"""The benchmark's workloads: inputs from a seed, set-up, one op, its check.

Each workload drives the system through its public API only
(`cluster.build_cluster`, the cluster's analyst engine, `datastore`)
and checks every answer against a plaintext oracle.  One op is one
analyst session in the det workloads and one range query (two
sessions and a COUNT) in the fh workload.
"""

from dataclasses import dataclass, field

from oracles import Mope2Oracle

from oope import datastore, integrity
from oope.cluster import build_cluster
from oope.engine import DEFAULT_COLUMN, ProtocolParams
from oope.ot import GROUP_DEFAULT, GROUP_TEST
from oope.rng import make_rng

M = (1 << 32) - 5
PAPER = dict(l=32, k=32, m=M, key_bits=2048)  # paired with GROUP_DEFAULT
FAST = dict(l=32, k=32, m=M, key_bits=256)    # paired with GROUP_TEST
FH_MAC_BITS = (1024, 160)  # Pedersen modulus and subgroup bits, fast profile


@dataclass(frozen=True)
class Workload:
    """A named input set.  Sizes and profile are part of the definition."""

    name: str
    why: str
    moves: tuple          # layer metrics this workload is meant to move
    params: dict          # ProtocolParams fields
    ot_group: object
    transport: str        # "loopback" or "tcp"
    entries: int          # table size (det) or row count (fh)
    tail_pct: float       # percentile reported as op_ms.tail
    setup_reps: int       # set-ups per untraced run; setup_s is their median
    sessions_per_op: int = 1
    extra: dict = field(default_factory=dict)

    def profile(self):
        """Parameters as printed in the run's report."""
        group_bits = self.ot_group.p.bit_length()
        return dict(self.params, ot_group_bits=group_bits,
                    transport=self.transport, entries=self.entries,
                    **self.extra)

    # -- inputs --

    def dataset(self, rng):
        raise NotImplementedError

    def queries(self, rng, dataset):
        raise NotImplementedError

    # -- set-up, op, check --

    def setup(self, dataset, seed):
        params = ProtocolParams(**self.params)
        mac_params = None
        if params.integrity != integrity.SCHEME_OFF:
            mac_params = integrity.gen_mac_params(*FH_MAC_BITS,
                                                  rng=make_rng(seed))
        return build_cluster(dataset, params, seed=seed,
                             mac_params=mac_params, ot_group=self.ot_group,
                             record=True, transport_kind=self.transport)

    def oracle(self, dataset):
        """Plaintext reference, built outside the timed set-up."""
        raise NotImplementedError

    def op(self, cluster, query):
        raise NotImplementedError

    def check(self, oracle, query, result) -> bool:
        raise NotImplementedError


class DetWorkload(Workload):
    """Deterministic-mode sessions checked against a Mope2Oracle replay
    of dataset plus every query, rebalances included."""

    def oracle(self, dataset):
        return Mope2Oracle(self.params["m"]).load(dataset)

    def op(self, cluster, x):
        return cluster.encrypt(x)

    def check(self, oracle, x, order):
        return order == oracle.encrypt(x)


class UniformDet(DetWorkload):
    def dataset(self, rng):
        return [rng.getrandbits(32) for _ in range(self.entries)]

    def queries(self, rng, dataset):
        stored = list(dataset)
        while True:
            if rng.random() < self.extra["repeat_frac"]:
                yield rng.choice(stored)
            else:
                x = rng.getrandbits(32)
                stored.append(x)
                yield x


class AscendingDet(DetWorkload):
    def dataset(self, rng):
        return [rng.getrandbits(31) for _ in range(self.entries)]

    def queries(self, rng, dataset):
        x = 1 << 31
        while True:
            x += rng.randrange(1, self.extra["max_step"])
            yield x


class FhRange(Workload):
    """COUNT range queries over frequency-hiding orders with min/max
    rewriting, against a plaintext count over the rows."""

    def dataset(self, rng):
        values = rng.sample(range(1 << 32), self.extra["distinct"])
        return [rng.choice(values) for _ in range(self.entries)]

    def queries(self, rng, dataset):
        values = sorted(set(dataset))
        while True:
            yield tuple(sorted(rng.sample(values, 2)))

    def setup(self, dataset, seed):
        cluster, ctx = super().setup(dataset, seed)
        # one row per dataset entry, in ingestion order, like ingest()
        cluster.csp.rows = datastore.RowStore(
            public_columns=[], ope_columns=[DEFAULT_COLUMN],
            rows=[datastore.EncryptedRow(i, {}, {DEFAULT_COLUMN: y})
                  for i, (_, y) in enumerate(ctx["owner"].pairs)])
        return cluster, ctx

    def oracle(self, dataset):
        return list(dataset)

    def op(self, cluster, bounds):
        lo, hi = bounds
        _, lo_min, lo_max = cluster.encrypt(lo, minmax=True)
        _, hi_min, hi_max = cluster.encrypt(hi, minmax=True)
        interval = datastore.merge_intervals(
            datastore.interval_from_predicate(">=", (lo_min, lo_max), fh=True),
            datastore.interval_from_predicate("<=", (hi_min, hi_max), fh=True))
        return cluster.da.query({DEFAULT_COLUMN: interval})

    def check(self, rows, bounds, count):
        lo, hi = bounds
        return count == sum(lo <= x <= hi for x in rows)


WORKLOADS = {w.name: w for w in [
    UniformDet(
        name="paper-det-uniform",
        why="Paper profile: Paillier blinding and CRT decryption are about "
            "90% of a session, so Paillier and set-up changes show here and "
            "garbling changes should not.",
        moves=("paillier.encrypt.csp", "paillier.decrypt.do",
               "paillier.encrypt.setup", "ope_state.init_state_s",
               "ot.setup_s"),
        params=PAPER, ot_group=GROUP_DEFAULT, transport="loopback",
        entries=127, tail_pct=60, setup_reps=1,
        extra={"repeat_frac": 0.25}),
    AscendingDet(
        name="fast-det-ascending",
        why="Fast profile with timestamp-like ascending inserts: garbling "
            "and OT carry each round, and tree-height drift plus periodic "
            "rebalances set the round count.",
        moves=("garbling.garble", "garbling.evaluate", "ot.send_pairs",
               "ot.receive_pairs", "ope_state.tree_height.end",
               "ope_state.rebalance.calls_per_op"),
        params=FAST, ot_group=GROUP_TEST, transport="loopback",
        entries=1023, tail_pct=90, setup_reps=3,
        extra={"max_step": 1 << 12}),
    FhRange(
        name="fast-fh-range-tcp",
        why="Only path through the fh comparator, min/max exchange, "
            "Pedersen integrity, exec_range and real sockets: two sessions "
            "and one COUNT per op.",
        moves=("integrity.ped_open", "integrity.ped_verify",
               "paillier.hom_scale", "datastore.exec_range",
               "transport.bytes_per_op.MINMAX_TRIPLE"),
        params=dict(FAST, mode="fh", integrity=integrity.SCHEME_PEDERSEN,
                    mac_subgroup_bits=FH_MAC_BITS[1]),
        ot_group=GROUP_TEST, transport="tcp",
        entries=1023, tail_pct=85, setup_reps=3, sessions_per_op=2,
        extra={"distinct": 64}),
]}
