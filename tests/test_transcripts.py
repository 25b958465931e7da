"""Transport equivalence: seeded loopback and TCP runs byte-match, and
seeded runs byte-match pinned digests."""

import hashlib

import pytest

from oope import integrity, ope_state, paillier, transport
from oope.cluster import LocalCluster, build_cluster
from oope.engine import (BOUND_HIGH, BOUND_LOW, OP_BOUND_HIGH, OP_BOUND_LOW,
                         OP_ENCRYPT, ProtocolParams)
from oope.errors import SessionAborted
from oope.ot import GROUP_TEST
from oope.rng import make_rng
from oope.transport import Frame


MAC_PARAMS = integrity.gen_mac_params(512, 160, rng=make_rng(77))


def run(kind, seed=2024, queries=(77, 300, 77), data=None,
        session=LocalCluster.encrypt, m=(1 << 20) - 3, mac_params=None,
        key_bits=256, **params_kw):
    params = ProtocolParams(l=16, k=16, m=m, key_bits=key_bits, **params_kw)
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


def aborted_then_encrypts(cluster, xs):
    """An encrypt of xs[0] that the server aborts, a bit of the analyst's
    second SHARES flipped, then a good encrypt of each of xs; returns the
    abort reason and the orders."""
    end = cluster.da.csp_ch
    seen = []

    def damaged(frame):
        if frame.ftype == transport.SHARES:
            seen.append(frame)
            if len(seen) == 2:
                frame = Frame(frame.ftype, frame.session_id,
                              bytes([frame.payload[0] ^ 0b0100]) +
                              frame.payload[1:])
        transport.Channel.send(end, frame)

    end.send = damaged
    try:
        with pytest.raises(SessionAborted, match="failed to decode") as err:
            cluster.encrypt(xs[0])
    finally:
        del end.send
    return err.value.reason, [cluster.encrypt(x) for x in xs]


@pytest.mark.parametrize("scheme", [integrity.SCHEME_PEDERSEN])
def test_loopback_and_tcp_identical_under_integrity(scheme):
    loop = assert_identical(integrity=scheme, mac_subgroup_bits=160,
                            mac_params=MAC_PARAMS)
    assert any(b[4] == transport.INTEGRITY_PROOF for b in loop["do->da"])


# SHA-256 of each channel's transcript, its sent frames concatenated, in
# seeded runs of protocol 14: det, fh and Pedersen on a 256-bit key, det
# on a 1024-bit key, whose N^2 of 2048 bits takes encryption through
# modexp.FixedBase, and det with a session the server aborts in its
# second round, then two good ones, so the ABORT frames and the OT
# batches that follow an abort are pinned too, and fh over a short table
# whose searches stop before their last round, so the rounds that
# compare the sentinel are pinned.  A change that moves a byte at both
# ends alike, which loopback == TCP cannot see, fails here.
PINNED_CASES = {
    "det": {},
    "fh": {"mode": "fh"},
    "pedersen": {"integrity": integrity.SCHEME_PEDERSEN,
                 "mac_subgroup_bits": 160, "mac_params": MAC_PARAMS},
    "det-1024": {"key_bits": 1024},
    "abort": {"queries": [(77, 300)], "session": aborted_then_encrypts},
    "fh-stop": {"mode": "fh", "data": [3, 7, 7, 7, 12],
                "queries": (13, 7, 7, 7)},
}
PINNED_DIGESTS = {
    "det": {
        "csp->da":
            "34a4ad714e11cd8e579426710745da33d5a4750ab5390584f89fabe0b9f49cc0",
        "csp->do":
            "ad88d6154b04072e1280c174227dec0d5763be1bcb7f43043ebf93baea613ac0",
        "da->csp":
            "3d26ae6c8ca58f99ae03daa2f4f3bd32e68345c7c1dda40149aa40e8e73706cf",
        "da->do":
            "850a7090057babe323a76f401a0024080608d2484a72762fee97ae0784a1f8b1",
        "do->csp":
            "dc233a9e5ca402417a25dc5fb66acec5aec184cb24ce27cb97072e10a9f0145d",
        "do->da":
            "3fbc3c843ba4d0fc0328baa3ac9434fe7a82c27f5e45ef8d3dea16030a479126",
    },
    "fh": {
        "csp->da":
            "a3f082b2467e91d71087ee9527961ab3b52a5b12be301d8b784324b2f987cfb1",
        "csp->do":
            "ca48f765590459fa2afbd3b5eb580f2f6125e7b5e36a14da5649ba9d745cbfe3",
        "da->csp":
            "d785ac3179133c72e93040d4bc1b502f2a5fdaa9f2d5e160f5d6e77a24303071",
        "da->do":
            "96c2ddff5ebc32622ad14431fa7836c93bc713b3716d9d3df65592f16d90f786",
        "do->csp":
            "052b09fc63a2844cbe6b1534d75b27d80d3059daf2e4e136fa3bc2e31a822f08",
        "do->da":
            "a765f528ea420d38fe93576e45054c7653c9b5cd4420cab1c55ee562d88c659b",
    },
    "pedersen": {
        "csp->da":
            "bc9e5a056fd82698b2889057538a98b0e8b4e1c9a41add67476c8c9b06c12258",
        "csp->do":
            "4367c265f6ed53e2f2cbacc2e3fe7e7e5b1f31f0dca9e58f66e0f2c019b885d3",
        "da->csp":
            "d032775397c266ba683649618e6db84298d9500edf0a7eccd3f6b23868359fd8",
        "da->do":
            "87dc1806ba8dc64444aecb8b649a28899d021982eec4bd93d169e9e4449176c4",
        "do->csp":
            "2a11a6fb8bf740fad4c381a323aaee3b6adc469ee7f7b71af498b86c0066cc9d",
        "do->da":
            "c6eae801362a6d06677e579b1b24a2148ec212b8d57648146cffe4b4482039f1",
    },
    "det-1024": {
        "csp->da":
            "83c2c72008e7b55e366a735fd114b10690722c2bcebbac2c8ba87b387ea6dc1b",
        "csp->do":
            "39fbe503ab44b36adf7bc20078d822137cc6c7af0511aeff2a0d84f5c3ec5da1",
        "da->csp":
            "833161f5d4d2642dfdd41e8fd0ee8b660106050239a5437744fb65de303b689f",
        "da->do":
            "a7c668fdbf20cd28006b6a6edfa0253cd071ba1d98ad5992bd409a51fe34067f",
        "do->csp":
            "59496c9ff96525b21ad70f5e813604e0f1a5cd131c726c7a4ce10f48f92bd90e",
        "do->da":
            "741bfa953428d328967936f6bc1d6eecf5d6a9784fba2bf38f0998f1f1f96e73",
    },
    "abort": {
        "csp->da":
            "5bb83ff93a509c89ffbe31f94e92eddf04ebbc2faaeb90fc1cf3a3c4d22940d7",
        "csp->do":
            "935855a30f72a2ea08e689aaedc5adbb7ff7f2c0a4d8360368317567a14891f8",
        "da->csp":
            "addc74fbb32bfd9877b9061f6735ee52da366d8782491796163ba17cc7329487",
        "da->do":
            "da96e01b54f768adae924ae43ace5c21a5d5734b6b979de540935f27f1421775",
        "do->csp":
            "c1edd186bfb973b5377f7cf146187f91f503660785a1b2be44e1248d4ae02e46",
        "do->da":
            "5be98b1f12a32bb7893d2e117b84639dc3dc72d7fa1282077f9657662113c9c3",
    },
    "fh-stop": {
        "csp->da":
            "55b368230684615b204106906631f69e5225cf6feca514bd6f3dcb1c6c4ba425",
        "csp->do":
            "518f981ca2d5f51132bdacadf79759695a443a6e842b2ca86fc7aca4d9ac4128",
        "da->csp":
            "4fb6ef24ec0a4236beebe998cfc59219b696d2475ca3f730212e9362ef2c3957",
        "da->do":
            "ea685338a6106cd3cebd8b1b4f6aa8505a991cb8ba30c1c064858bd6f7e889c0",
        "do->csp":
            "dfc34cbaa2200e989dcaba4bf6383e2c24f70dca911323a41cf79116b0350771",
        "do->da":
            "a1cbcadf0895f11452e74d2830d1941ac5e12b889918653c827401af2c2bb9fa",
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_seeded_transcripts_match_pinned_digests(case):
    _, transcripts = run("loopback", **PINNED_CASES[case])
    assert {name: hashlib.sha256(b"".join(blobs)).hexdigest()
            for name, blobs in transcripts.items()} == PINNED_DIGESTS[case]


def test_different_seeds_differ():
    _, a = run("loopback", seed=1)
    _, b = run("loopback", seed=2)
    assert a["csp->do"] != b["csp->do"]


@pytest.mark.parametrize("mode", ["det", "fh"])
@pytest.mark.parametrize("scheme", [integrity.SCHEME_OFF,
                                    integrity.SCHEME_PEDERSEN])
def test_session_frames_have_the_v14_lengths(mode, scheme):
    # every session frame has one layout, whose length follows from h,
    # the key and MAC group widths and the circuit alone: GC_PAYLOAD
    # carries no decode hashes, which the owner's SHARES carries, 32
    # bytes per output, and the analyst's SHARES is 16 bytes per output
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
    seen = set()
    try:
        for op, x in ((LocalCluster.encrypt, 77), (LocalCluster.encrypt, 77),
                      (bounds_and_encrypt, 300)):
            start = {name: len(t) for name, t in
                     cluster.transcripts().items()}
            h = ctx["table"].height
            op(cluster, x)
            frames = [(name, transport.decode_frame(blob[4:]))
                      for name, blobs in cluster.transcripts().items()
                      for blob in blobs[start[name]:]]
            for sid in {f.session_id for _, f in frames
                        if f.ftype == transport.SESSION_START}:
                session = [(name, f) for name, f in frames
                           if f.session_id == sid]
                m = 8 * -(-h * n // 8)
                want = {
                    transport.SESSION_START: [1],
                    transport.RANDOM_OFFSET: [16 * h],
                    transport.OT_MSG: [4 + 16 * m],
                    transport.RANDOMIZED_NODE: [w * (1 + pedersen)] * h,
                    transport.GC_PAYLOAD: [
                        32 * len(circuit.nonfree_gates()) +
                        16 * len(circuit.gen_inputs) + 32 * n] * h,
                    transport.ORDER_RESULT: [16],
                    transport.SESSION_DONE: [0]}
                if pedersen:
                    want[transport.INTEGRITY_TAG] = [64 + g] * h
                    want[transport.INTEGRITY_PROOF] = [g] * h
                if any(f.ftype == transport.CIPHER_UPLOAD
                       for _, f in session):
                    want[transport.CIPHER_UPLOAD] = [
                        2 * w + g if pedersen else w]
                got, shares = {}, {}
                for name, f in session:
                    if f.ftype == transport.SHARES:
                        shares.setdefault(name, []).append(len(f.payload))
                    else:
                        got.setdefault(f.ftype, []).append(len(f.payload))
                assert got == want
                outputs = len(circuit.outputs)
                assert shares == {"do->csp": [32 * outputs] * h,
                                  "da->csp": [16 * outputs] * h}
                seen |= got.keys()
        assert transport.CIPHER_UPLOAD in seen
        assert not cluster.errors
    finally:
        cluster.close()
