"""Transport equivalence: seeded loopback and TCP runs byte-match."""

from oope import transport
from oope.cluster import build_cluster
from oope.engine import ProtocolParams
from oope.ot import GROUP_TEST
from oope.rng import make_rng


def run(kind, seed=2024, queries=(77, 300, 77), data=None, minmax=False,
        m=(1 << 20) - 3, mode="det"):
    params = ProtocolParams(l=16, k=16, m=m, mode=mode, key_bits=256)
    if data is None:
        rng = make_rng(99)
        data = [rng.randrange(1 << 16) for _ in range(30)]
    cluster, ctx = build_cluster(data, params, seed=seed, ot_group=GROUP_TEST,
                                 record=True, transport_kind=kind)
    try:
        orders = [cluster.encrypt(x, minmax=minmax) for x in queries]
        transcripts = cluster.transcripts()
    finally:
        cluster.close()
    return orders, transcripts


def assert_identical(**kw):
    orders_a, loop = run("loopback", **kw)
    orders_b, tcp = run("tcp", **kw)
    assert orders_a == orders_b
    assert set(loop) == set(tcp)
    for name in loop:
        assert loop[name] == tcp[name], f"channel {name} diverged"
    return loop


def test_loopback_and_tcp_transcripts_identical():
    loop = assert_identical()
    # sanity: the protocol actually talked
    assert sum(len(v) for v in loop.values()) > 50


def test_loopback_and_tcp_identical_across_rebalances():
    # an order space of 67 for up to 18 entries runs out of unit gaps
    loop = assert_identical(data=[9000, 100, 52000, 7, 31000, 2500, 640,
                                  12000],
                            queries=range(1000, 51000, 5000), m=67)
    rebalances = [b for b in loop["csp->do"] if b[4] == transport.REBALANCE]
    assert rebalances


def test_loopback_and_tcp_identical_fh_minmax():
    loop = assert_identical(data=[5, 9, 9, 100, 100, 100, 300],
                            queries=(100, 9, 50, 100), minmax=True,
                            mode="fh")
    assert any(b[4] == transport.MINMAX_TRIPLE for b in loop["csp->do"])


def test_different_seeds_differ():
    _, a = run("loopback", seed=1)
    _, b = run("loopback", seed=2)
    assert a["csp->do"] != b["csp->do"]
