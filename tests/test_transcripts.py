"""Transport equivalence: seeded loopback and TCP runs byte-match."""

import pytest

from oope import integrity, transport
from oope.cluster import build_cluster
from oope.engine import ProtocolParams
from oope.ot import GROUP_TEST
from oope.rng import make_rng


MAC_PARAMS = integrity.gen_mac_params(512, 160, rng=make_rng(77))


def run(kind, seed=2024, queries=(77, 300, 77), data=None, minmax=False,
        m=(1 << 20) - 3, mac_params=None, **params_kw):
    params = ProtocolParams(l=16, k=16, m=m, key_bits=256, **params_kw)
    if data is None:
        rng = make_rng(99)
        data = [rng.randrange(1 << 16) for _ in range(30)]
    cluster, ctx = build_cluster(data, params, seed=seed, ot_group=GROUP_TEST,
                                 mac_params=mac_params, record=True,
                                 transport_kind=kind)
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


@pytest.mark.parametrize("scheme", [integrity.SCHEME_DLMAC,
                                    integrity.SCHEME_PEDERSEN])
def test_loopback_and_tcp_identical_under_integrity(scheme):
    loop = assert_identical(integrity=scheme, mac_subgroup_bits=160,
                            mac_params=MAC_PARAMS)
    assert any(b[4] == transport.INTEGRITY_PROOF for b in loop["do->da"])


def test_loopback_and_tcp_identical_uid_upload():
    # the second and third queries land next to the first one's uid node
    loop = assert_identical(data=[32, 20, 25, 69, 10],
                            queries=(15, 14, 16, 15), uid_upload=True)
    assert any(b[4] == transport.UID_COMPARE for b in loop["csp->da"])


def test_different_seeds_differ():
    _, a = run("loopback", seed=1)
    _, b = run("loopback", seed=2)
    assert a["csp->do"] != b["csp->do"]
