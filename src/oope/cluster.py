"""Wiring of the three roles over loopback queues or TCP sockets.

The server and owner engines run their serve loops on daemon threads;
the analyst drives sessions from the caller's thread.  One cluster
keeps its base-OT setup alive across every session it runs, which is
also how a deployment would hold a connection open for a batch of
queries.
"""

import threading

from . import ope_state, paillier, transport
from .engine import (DEFAULT_COLUMN, CspEngine, DaEngine, DoEngine,
                     ProtocolParams, ServerState, make_node_tagger)
from .ot import GROUP_DEFAULT
from .rng import make_rng


def analyst_keygen(params: ProtocolParams, rng=None):
    """Analyst keypair; its modulus strictly dominates the owner's so
    cross-key re-encryptions in the min/max exchange never overflow."""
    from .engine import DA_KEY_EXTRA_BITS
    return paillier.keygen(params.key_bits + DA_KEY_EXTRA_BITS, rng=rng,
                           allow_small=True)


class _Cluster:
    """The three engines; subclasses link them by channels."""

    def __init__(self, states: dict, sk, params: ProtocolParams, seed=None,
                 mac_params=None, owners: dict = None, da_keys=None,
                 ot_group=GROUP_DEFAULT):
        rng = make_rng(seed)
        seeds = [rng.getrandbits(64) for _ in range(3)] if seed is not None \
            else [None, None, None]
        self.csp = CspEngine(states, params, make_rng(seeds[0]))
        self.do = DoEngine(sk, params, make_rng(seeds[1]),
                           mac_params=mac_params, owners=owners,
                           ot_group=ot_group)
        self.da = DaEngine(params, make_rng(seeds[2]), keys=da_keys,
                           ot_group=ot_group)
        self.channels = []
        self.errors = []
        self._threads = []

    def _start(self, engine, connect):
        """Run engine's serve loop on a daemon thread; connect() returns
        the engine's two channels."""
        def run():
            try:
                engine.attach(*connect())
                engine.serve()
            except Exception as e:  # surfaced via self.errors in tests
                self.errors.append(e)

        t = threading.Thread(target=run, daemon=True)
        self._threads.append(t)
        t.start()

    def encrypt(self, xbar, minmax=False, column=""):
        return self.da.encrypt(xbar, minmax=minmax, column=column)

    def transcripts(self):
        """Sent-frame byte sequences, one list per directed channel."""
        return {ch.name: list(ch.transcript) for ch in self.channels}

    def close(self):
        for ch in self.channels:
            ch.close()
        for t in self._threads:
            t.join(timeout=5)


class LocalCluster(_Cluster):
    """All three roles in one process, linked by in-memory channels."""

    def __init__(self, *args, record=False, **kwargs):
        super().__init__(*args, **kwargs)
        csp_do, do_csp = transport.loopback_pair("csp->do", "do->csp")
        csp_da, da_csp = transport.loopback_pair("csp->da", "da->csp")
        do_da, da_do = transport.loopback_pair("do->da", "da->do")
        self.channels = [csp_do, do_csp, csp_da, da_csp, do_da, da_do]
        for ch in self.channels:
            ch.record = record
        self._start(self.csp, lambda: (csp_do, csp_da))
        self._start(self.do, lambda: (do_csp, do_da))
        self.da.attach(da_csp, da_do)


class TcpCluster(_Cluster):
    """The three roles over real sockets on localhost, one per thread.

    The server takes its first connection for the owner's, so the
    analyst dials the server only once the owner's connection stands.
    """

    def __init__(self, *args, record=False, host="127.0.0.1", **kwargs):
        super().__init__(*args, **kwargs)
        self._record = record
        csp_srv = transport.tcp_listen(host, 0)
        do_srv = transport.tcp_listen(host, 0)
        csp_port = csp_srv.getsockname()[1]
        do_port = do_srv.getsockname()[1]
        do_dialed = threading.Event()

        def csp_links():
            do_ch = transport.tcp_accept(csp_srv, "csp->do")
            da_ch = transport.tcp_accept(csp_srv, "csp->da")
            csp_srv.close()
            return self._track(do_ch, da_ch)

        def do_links():
            try:
                csp_ch = transport.tcp_connect(host, csp_port, "do->csp")
            finally:
                do_dialed.set()
            da_ch = transport.tcp_accept(do_srv, "do->da")
            do_srv.close()
            return self._track(csp_ch, da_ch)

        self._start(self.csp, csp_links)
        self._start(self.do, do_links)
        do_ch = transport.tcp_connect(host, do_port, "da->do")
        do_dialed.wait()
        csp_ch = transport.tcp_connect(host, csp_port, "da->csp")
        self.da.attach(*self._track(csp_ch, do_ch))

    def _track(self, *chs):
        for ch in chs:
            ch.record = self._record
            self.channels.append(ch)
        return chs


def build_cluster(dataset, params: ProtocolParams, seed=None,
                  mac_params=None, ot_group=GROUP_DEFAULT, key_rng_seed=None,
                  record=False, transport_kind="loopback"):
    """Initialize owner state from a dataset and stand up a cluster.

    Returns (cluster, context) where the context keeps the pieces tests
    need for oracle checks: keys, owner state, table.
    """
    from . import integrity as integrity_mod

    rng = make_rng(seed)
    pk, sk = paillier.keygen(params.key_bits,
                             rng=make_rng(key_rng_seed if key_rng_seed
                                          is not None else
                                          (rng.getrandbits(64)
                                           if seed is not None else None)),
                             allow_small=True)
    tagger = None
    if params.integrity != integrity_mod.SCHEME_OFF:
        if mac_params is None:
            raise ValueError("integrity enabled but no MAC parameters given")
        tagger = make_node_tagger(params.integrity, mac_params, pk, rng)
    owner, table = ope_state.init_state(
        dataset, params.m, pk, l=params.l, mode=params.mode, rng=rng,
        tagger=tagger)
    state = ServerState(table=table, pk_owner=pk)
    da_keys = analyst_keygen(params, make_rng(rng.getrandbits(64)
                                              if seed is not None else None)) \
        if params.mode == ope_state.MODE_FH else None
    kind = TcpCluster if transport_kind == "tcp" else LocalCluster
    cluster = kind({DEFAULT_COLUMN: state}, sk, params,
                   seed=rng.getrandbits(64) if seed is not None else None,
                   mac_params=mac_params, owners={DEFAULT_COLUMN: owner},
                   da_keys=da_keys, ot_group=ot_group, record=record)
    # "tree" is the table too: the benchmark reads ctx["tree"].height
    context = {"pk": pk, "sk": sk, "owner": owner, "table": table,
               "tree": table, "state": state, "da_keys": da_keys}
    return cluster, context
