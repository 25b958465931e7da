"""Wiring of the three roles in one process, over a Unix socket pair or
localhost TCP sockets per link.

One class, LocalCluster, wires either transport.  The server and owner
engines run their serve loops on daemon threads; the analyst drives
sessions from the caller's thread.  The roles talk over three channel
pairs, which a pair factory (transport.loopback_pair or
transport.tcp_pair) makes on the calling thread before any role starts,
so no role waits on another to listen or dial.  Closing the cluster
closes every channel, and each serve loop ends when its socket does.
One cluster keeps its base-OT setup alive across every session it runs,
which is also how a deployment would hold a connection open for a batch
of queries.
"""

import threading

from . import ope_state, paillier, transport
from .engine import (BOUND_HIGH, BOUND_LOW, DEFAULT_COLUMN, CspEngine,
                     DaEngine, DoEngine, ProtocolParams, make_node_tagger)
from .errors import ConfigurationError
from .ot import GROUP_DEFAULT
from .rng import make_rng


class LocalCluster:
    """The three engines in one process, linked by three channel pairs.

    tables maps each column to its OpeTable; each must hold ciphertexts
    under sk's public key (KeyMismatchError).  pair is the factory that
    makes each pair, transport.loopback_pair or transport.tcp_pair; it
    is the only thing the transport changes.  All six channel ends exist
    before any role starts.
    """

    def __init__(self, tables: dict, sk, params: ProtocolParams, seed=None,
                 mac_params=None, ot_group=GROUP_DEFAULT, record=False,
                 pair=transport.loopback_pair):
        rng = make_rng(seed)
        seeds = [rng.getrandbits(64) for _ in range(3)] if seed is not None \
            else [None, None, None]
        self.csp = CspEngine(tables, sk.public, params, make_rng(seeds[0]))
        self.do = DoEngine(sk, params, make_rng(seeds[1]),
                           mac_params=mac_params, ot_group=ot_group)
        self.da = DaEngine(params, make_rng(seeds[2]), ot_group=ot_group)
        csp_do, do_csp = pair("csp->do", "do->csp")
        csp_da, da_csp = pair("csp->da", "da->csp")
        do_da, da_do = pair("do->da", "da->do")
        self.channels = [csp_do, do_csp, csp_da, da_csp, do_da, da_do]
        for ch in self.channels:
            ch.record = record
        self.errors = []
        self._threads = []
        self._start(self.csp, csp_do, csp_da)
        self._start(self.do, do_csp, do_da)
        self.da.attach(da_csp, da_do)

    def _start(self, engine, *channels):
        """Attach engine to its channels and run its serve loop on a
        daemon thread."""
        def run():
            try:
                engine.attach(*channels)
                engine.serve()
            except Exception as e:  # surfaced via self.errors in tests
                self.errors.append(e)

        t = threading.Thread(target=run, daemon=True)
        self._threads.append(t)
        t.start()

    def encrypt(self, xbar, minmax=False, column=DEFAULT_COLUMN):
        """xbar's order, inserted if new; with minmax, the triple (order,
        lowest order of a plaintext >= xbar, highest order of one <=
        xbar) from an encrypt and two bound sessions, as the benchmark's
        fh workload asks for it."""
        ybar = self.da.encrypt(xbar, column=column)
        if not minmax:
            return ybar
        return (ybar, self.da.bound(xbar, BOUND_LOW, column),
                self.da.bound(xbar, BOUND_HIGH, column))

    def transcripts(self):
        """Sent-frame byte sequences, one list per directed channel."""
        return {ch.name: list(ch.transcript) for ch in self.channels}

    def close(self):
        for ch in self.channels:
            ch.close()
        for t in self._threads:
            t.join(timeout=5)


PAIR_FACTORIES = {"loopback": transport.loopback_pair,
                  "tcp": transport.tcp_pair}


def build_cluster(dataset, params: ProtocolParams, seed=None,
                  mac_params=None, ot_group=GROUP_DEFAULT, record=False,
                  transport_kind="loopback"):
    """Initialize owner state from a dataset and stand up a cluster.

    transport_kind names the pair factory (PAIR_FACTORIES); any other
    name is a ConfigurationError.  Returns (cluster, context) where the
    context keeps the pieces tests need for oracle checks: keys, table,
    and as "owner" the plaintext/order pairs set-up assigned.  The owner
    engine holds no orders, so those pairs do not follow a rebalance;
    the table and a row store built from them do.
    """
    from . import integrity as integrity_mod

    pair = PAIR_FACTORIES.get(transport_kind)
    if pair is None:
        raise ConfigurationError(f"unknown transport {transport_kind!r}")
    if params.integrity != integrity_mod.SCHEME_OFF and mac_params is None:
        raise ConfigurationError("integrity enabled but no MAC parameters")
    rng = make_rng(seed)

    def subseed():
        return rng.getrandbits(64) if seed is not None else None

    pk, sk = paillier.keygen(params.key_bits, rng=make_rng(subseed()))
    owner, table = ope_state.init_state(
        dataset, params.m, pk, l=params.l, mode=params.mode, rng=rng,
        tagger=make_node_tagger(params.integrity, mac_params, pk, rng))
    cluster = LocalCluster({DEFAULT_COLUMN: table}, sk, params,
                           seed=subseed(), mac_params=mac_params,
                           ot_group=ot_group, record=record, pair=pair)
    # "tree" is the table too: the benchmark reads ctx["tree"].height
    context = {"pk": pk, "sk": sk, "owner": owner, "table": table,
               "tree": table}
    return cluster, context
