"""Transport equivalence: seeded loopback and TCP runs byte-match, and
seeded runs byte-match pinned digests."""

import hashlib
from collections import Counter

import pytest

from oope import garbling, integrity, ope_state, paillier, transport
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

    def counting_rebalance(table, index):
        rebalances.append(len(table))
        return real_rebalance(table, index)

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
    # only the encrypts upload, behind their last round's output labels
    shares = Counter(len(b) for b in loop["da->csp"]
                     if b[4] == transport.SHARES)
    assert len(shares) == 2 and min(shares.items())[1] > 4
    assert max(shares.items())[1] == 4


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
# seeded runs of protocol 15: det, fh and Pedersen on a 256-bit key, det
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
            "02892776a4941e594c82aeb16b3b492442aad5d0dacdf651010b6bc35fcaff05",
        "csp->do":
            "ed27717c731ecf04562741ba4685c8400b58ace6d58b36eb2f26e29ba52d4075",
        "da->csp":
            "58e223801b6ca2727e70ee0afe58834e627a5d4bd5607d055e3465a8aa083c81",
        "da->do":
            "8d9ee6469a95252ac5ec0cf8f118d68f8db365535bf58836e4090a8fce7ab0c0",
        "do->csp":
            "886ae49281df714b4fce6075d4d72f5420921eeabd733e59965a654b77ae93b7",
        "do->da":
            "f4cb60a463d28a4449810f76450c5dda99c5e95a83663467884de3d51ca83659",
    },
    "fh": {
        "csp->da":
            "a70fbfdc437e7bc449df9c5fd094d1b771d7f1cefa2bf30b361fbaef324bdac8",
        "csp->do":
            "bb7de6272b9f23446152e5e0cea4f9330723a9035c41d620b8f65ed8a57765f8",
        "da->csp":
            "a0f523c1734ac81a03ed0ce18a984034982575a2e40dc184f7a191886512b96b",
        "da->do":
            "36323ab4972143c0221654e4c22422134acd130860151aba44ebad4726b299da",
        "do->csp":
            "42bfe2f9c65346bd9b2c78209761d42b8cd372e9b85eccc9870e2d5f5cc6dfbd",
        "do->da":
            "25d782ddd60aa2d512f47646de8e5c57011e75c9c202d4c74556dbf893f933b0",
    },
    "pedersen": {
        "csp->da":
            "ee8b92012564067cdc14623d05837720e3154a682bb78b1e4659ccecabe2bc60",
        "csp->do":
            "fd6defc470231f051a0cbb8d27db49ccf7a4090ce2468d65b818f3175969b6d0",
        "da->csp":
            "d7b0a40cce0c16efcde15a41183ce2f9283f9638add85888b604daba53c9a154",
        "da->do":
            "90337e3c96eb4c939595fa27f74d500234d62980392f2e95dc0bed93b67fbedd",
        "do->csp":
            "91f49a5318dfcecf91f0093e425e96ec00b6ac4676d66198c622f907794fb582",
        "do->da":
            "5e47051c27e08e187893e834e7413904e54398812c4daabf9cefc58018d5e86e",
    },
    "det-1024": {
        "csp->da":
            "98c70e544ec1ba5bf1c0b38af708d6f1c854c2ac846eb15dd5cf82382f9f5e2a",
        "csp->do":
            "c4e98b54b0980f771465ed18b3d013652adf4c5b5bac84ff68351a681a6b8b7b",
        "da->csp":
            "e6765c97b20a08f9e0eb55bc7879ce1c7b113c8cc4750bb804e3c311176233d2",
        "da->do":
            "5552edbb8c137e91c3955696500958296a71a559de3c4133e0a128ea8d5bdfe6",
        "do->csp":
            "2e9de840128dfe748304de3d2fe45b37f3993af19ffd3006be4c56c0fc92306a",
        "do->da":
            "22ec51ea140aad79f0e3e57a7cdc45d9884b16cd3fcb5fa8fee924fe789fbddd",
    },
    "abort": {
        "csp->da":
            "7302d91b07b133883d9f0cd21b1c79a0a3da0cc946c0aaa57f8d12dae7fbc1e9",
        "csp->do":
            "9a4516598b72e83b6540b5e4362e8f580637be725a0cc2841bd421ad07ff016b",
        "da->csp":
            "86d304220a4891a402739fec28e949ce2f04f6cdf92154bf26dfdb8b5e04be3b",
        "da->do":
            "c469dccf918192a26c74f010b6754d0ccd11ec26eeb8494c28b229fcbb93c26b",
        "do->csp":
            "741195fd19ed304c4da52d4ac0ea0b0f0491a149644b67b813169461cff77d68",
        "do->da":
            "69bedf94c8219311272600b38262afa760d16ce7c87ea003d5c2b1c9134cccac",
    },
    "fh-stop": {
        "csp->da":
            "28d158bbb51abd3be14b3237f3d1c7350b6384642dc634aea71a0e07a8ca3f8e",
        "csp->do":
            "c3af07b192161f918da4bf29069143176f7c4f2dd096579952070eb93781e147",
        "da->csp":
            "0f21c7112f4eb1da83b662230e23a588b047597c70e6e58e843c062ec22acf42",
        "da->do":
            "fd12a0de74fa80f27afce6c5b1494d13163c16cf2081a21e0f28d80984e2ad4d",
        "do->csp":
            "52ae9a46e474b52c4f303315f77b400f697e7cd58b7504b06554076aaf1ab95e",
        "do->da":
            "620a99ba40d3d90bc65d2c713b6468c5457ea4f1ced12a6ec15f24c1f21f7120",
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
def test_session_frames_have_the_v15_lengths(mode, scheme):
    # every session frame has one layout, whose length follows from h,
    # the key and MAC group widths and the circuit alone: GC_PAYLOAD
    # carries no decode hashes; the owner's SHARES carries a garbled
    # batch's, 32 bytes per output of each instance, in the rounds that
    # refill its pool, and the analyst's SHARES is 16 bytes per output,
    # the upload behind it in an encrypt's last round
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
    outputs = len(circuit.outputs)
    w = paillier.cipher_width(params.key_bits)
    g = (MAC_PARAMS.p.bit_length() + 7) // 8
    rounds = 0  # rounds run so far: the owner refills every BATCH
    inside = False  # whether a refill fell after a session's first round
    try:
        for op, x in ((LocalCluster.encrypt, 77), (LocalCluster.encrypt, 77),
                      (bounds_and_encrypt, 300)) + \
                ((LocalCluster.encrypt, 500),) * 4:
            start = {name: len(t) for name, t in
                     cluster.transcripts().items()}
            h = ctx["table"].height
            op(cluster, x)
            frames = [(name, transport.decode_frame(blob[4:]))
                      for name, blobs in cluster.transcripts().items()
                      for blob in blobs[start[name]:]]
            for sid in [f.session_id for _, f in frames
                        if f.ftype == transport.SESSION_START]:
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
                    transport.ORDER_RESULT: [16]}
                if pedersen:
                    want[transport.INTEGRITY_TAG] = [64 + g] * h
                    want[transport.INTEGRITY_PROOF] = [g] * h
                got, shares = {}, {}
                for name, f in session:
                    if f.ftype == transport.SHARES:
                        shares.setdefault(name, []).append(len(f.payload))
                    else:
                        got.setdefault(f.ftype, []).append(len(f.payload))
                assert got == want
                labels = [16 * outputs] * h
                op_byte, = {f.payload[0] for _, f in session
                            if f.ftype == transport.SESSION_START}
                if op_byte == OP_ENCRYPT:
                    labels[-1] += 2 * w + g if pedersen else w
                refills = [r for r in range(rounds, rounds + h)
                           if r % garbling.BATCH == 0]
                inside |= any(r > rounds for r in refills)
                rounds += h
                want_shares = {"da->csp": labels}
                if refills:
                    want_shares["do->csp"] = \
                        [32 * outputs * garbling.BATCH] * len(refills)
                assert shares == want_shares
        # a refill in the first round, and one inside a later session
        assert inside
        assert not cluster.errors
    finally:
        cluster.close()
