"""Transport equivalence: seeded loopback and TCP runs byte-match."""

import pytest

from oope import integrity, ope_state, paillier, transport
from oope.cluster import LocalCluster, build_cluster
from oope.engine import (BOUND_HIGH, BOUND_LOW, OP_BOUND_HIGH, OP_BOUND_LOW,
                         OP_ENCRYPT, ProtocolParams)
from oope.ot import GROUP_TEST
from oope.rng import make_rng


MAC_PARAMS = integrity.gen_mac_params(512, 160, rng=make_rng(77))


def run(kind, seed=2024, queries=(77, 300, 77), data=None,
        session=LocalCluster.encrypt, m=(1 << 20) - 3, mac_params=None,
        **params_kw):
    params = ProtocolParams(l=16, k=16, m=m, key_bits=256, **params_kw)
    if data is None:
        rng = make_rng(99)
        data = [rng.randrange(1 << 16) for _ in range(30)]
    cluster, ctx = build_cluster(data, params, seed=seed, ot_group=GROUP_TEST,
                                 mac_params=mac_params, record=True,
                                 transport_kind=kind)
    try:
        orders = [session(cluster, x) for x in queries]
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


def test_loopback_and_tcp_identical_across_rebalances(monkeypatch):
    # an order space of 67 for up to 18 entries runs out of unit gaps
    rebalances = []
    real_rebalance = ope_state.rebalance

    def counting_rebalance(table):
        rebalances.append(len(table))
        return real_rebalance(table)

    monkeypatch.setattr(ope_state, "rebalance", counting_rebalance)
    loop = assert_identical(data=[9000, 100, 52000, 7, 31000, 2500, 640,
                                  12000],
                            queries=range(1000, 51000, 5000), m=67)
    # both runs rebalanced alike, and neither told anyone
    assert rebalances and rebalances[:len(rebalances) // 2] == \
        rebalances[len(rebalances) // 2:]
    assert not any(b[4] == transport.REBALANCE
                   for blobs in loop.values() for b in blobs)


def bounds_and_encrypt(cluster, x):
    return (cluster.da.bound(x, BOUND_LOW), cluster.da.bound(x, BOUND_HIGH),
            cluster.encrypt(x))


@pytest.mark.parametrize("mode", ["det", "fh"])
def test_loopback_and_tcp_identical_bound(mode):
    # 50 is absent at its bounds; 9 and 100 are runs in fh
    loop = assert_identical(data=[5, 9, 9, 100, 100, 100, 300],
                            queries=(100, 9, 50, 100),
                            session=bounds_and_encrypt, mode=mode)
    starts = [b[21] for b in loop["da->csp"] if b[4] == transport.SESSION_START]
    assert starts == [OP_BOUND_LOW, OP_BOUND_HIGH, OP_ENCRYPT] * 4
    # only the encrypts upload
    assert sum(b[4] == transport.CIPHER_UPLOAD for b in loop["da->csp"]) == 4


@pytest.mark.parametrize("scheme", [integrity.SCHEME_PEDERSEN])
def test_loopback_and_tcp_identical_under_integrity(scheme):
    loop = assert_identical(integrity=scheme, mac_subgroup_bits=160,
                            mac_params=MAC_PARAMS)
    assert any(b[4] == transport.INTEGRITY_PROOF for b in loop["do->da"])


def test_different_seeds_differ():
    _, a = run("loopback", seed=1)
    _, b = run("loopback", seed=2)
    assert a["csp->do"] != b["csp->do"]


@pytest.mark.parametrize("mode", ["det", "fh"])
@pytest.mark.parametrize("scheme", [integrity.SCHEME_OFF,
                                    integrity.SCHEME_PEDERSEN])
def test_session_frames_have_the_v11_lengths(mode, scheme):
    # every session frame has one layout, whose length follows from h,
    # the key and MAC group widths and the circuit alone
    params = ProtocolParams(l=16, k=16, m=(1 << 20) - 3, key_bits=256,
                            mode=mode, integrity=scheme,
                            mac_subgroup_bits=160)
    pedersen = scheme == integrity.SCHEME_PEDERSEN
    rng = make_rng(99)
    data = [rng.randrange(1 << 16) for _ in range(30)]
    cluster, ctx = build_cluster(
        data, params, seed=2024, ot_group=GROUP_TEST, record=True,
        mac_params=MAC_PARAMS if pedersen else None)
    circuit = params.build_circuit()
    n = len(circuit.eval_inputs)
    w = paillier.cipher_width(params.key_bits)
    g = (MAC_PARAMS.p.bit_length() + 7) // 8
    flips = (n + 7) // 8
    seen = set()
    try:
        for op, x in ((LocalCluster.encrypt, 77), (LocalCluster.encrypt, 77),
                      (bounds_and_encrypt, 300)):
            start = {name: len(t) for name, t in
                     cluster.transcripts().items()}
            h = ctx["table"].height
            op(cluster, x)
            frames = [transport.decode_frame(blob[4:])
                      for name, blobs in cluster.transcripts().items()
                      for blob in blobs[start[name]:]]
            for sid in {f.session_id for f in frames
                        if f.ftype == transport.SESSION_START}:
                session = [f for f in frames if f.session_id == sid]
                m = 8 * -(-h * n // 8)
                want = {
                    transport.SESSION_START: [1],
                    transport.RANDOM_OFFSET: [16 * h],
                    transport.OT_MSG: [4 + 16 * m + flips],
                    transport.RANDOMIZED_NODE: [w * (1 + pedersen)] * h,
                    transport.GC_PAYLOAD: [
                        32 * (len(circuit.nonfree_gates()) +
                              len(circuit.outputs)) +
                        16 * len(circuit.gen_inputs) + 32 * n] * h,
                    transport.GC_RESULT: [1 + flips] * (h - 1) + [1],
                    transport.SHARES: [1] * 2 * h,
                    transport.ORDER_RESULT: [16],
                    transport.SESSION_DONE: [0]}
                if pedersen:
                    want[transport.INTEGRITY_TAG] = [64 + g] * h
                    want[transport.INTEGRITY_PROOF] = [g] * h
                if any(f.ftype == transport.CIPHER_UPLOAD for f in session):
                    want[transport.CIPHER_UPLOAD] = [
                        2 * w + g if pedersen else w]
                got = {}
                for f in session:
                    got.setdefault(f.ftype, []).append(len(f.payload))
                assert got == want
                seen |= got.keys()
        assert transport.CIPHER_UPLOAD in seen
        assert not cluster.errors
    finally:
        cluster.close()
