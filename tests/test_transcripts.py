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
    """An encrypt of xs[0] that the server aborts, the analyst's second
    SHARES damaged, then a good encrypt of each of xs; returns the abort
    reason and the orders."""
    end = cluster.da.csp_ch
    seen = []

    def damaged(frame):
        if frame.ftype == transport.SHARES:
            seen.append(frame)
            if len(seen) == 2:
                frame = Frame(frame.ftype, frame.session_id,
                              bytes([frame.payload[0] ^ 0b0100]))
        transport.Channel.send(end, frame)

    end.send = damaged
    try:
        with pytest.raises(SessionAborted, match="disagree") as err:
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
# seeded runs of protocol 12: det, fh and Pedersen on a 256-bit key, det
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
            "084b60187bf1e9104754846d011d468185fdab61b2e8454539861418efcdd581",
        "csp->do":
            "1b1dbbe5c580c40a902243fde2a2e45e946aa3fefe4a2cd5faae80e4d89cd928",
        "da->csp":
            "9f1b8d0f87980a2efbe87b89966c3222efb9352c4b89b68978b1ad94ec0d213a",
        "da->do":
            "0c3e9d28985ba6d2b8708e15898a491fb489308ba2e526571a0d97f4ff2c257a",
        "do->csp":
            "deb1d9b02188be82852f37c4ae20b4e49e3f79e5d1f3af308e4e5de4a789c00e",
        "do->da":
            "32e302c122a691a5bdceb2b048cea6bb549c15899cec595e56e360b03fc06374",
    },
    "fh": {
        "csp->da":
            "14d3a1fa71434e372fdfe5ed4e0092a3ce348ddf66272aeedb61aae9fecbc4cb",
        "csp->do":
            "a34fa68921429af61d0bd609668850169cede929b713c087ca86cae5f1716149",
        "da->csp":
            "757425567bb723fde3a23166abf0679b1e573d6eb0bad058ddd0ddd07122cfa9",
        "da->do":
            "86fda25f47f6937377ba4d519c7020b29dfe4bd894b2718fc2cf4e4a204791b8",
        "do->csp":
            "7591609b17a63d833ae924665405c659fa573e8151862c7bb2dbfa68017748cc",
        "do->da":
            "e983c6213cb2118c8c733f4d0298c2a9c2bfa4f55c5e6f25c7a7f9cbfdaf6715",
    },
    "pedersen": {
        "csp->da":
            "3b36102b85dcdd3dfbb35ba875bcede913d85357247c8f6792607d78677a9855",
        "csp->do":
            "cd646e661df87b75f9f00cd443e3afa7b4960189f8c0de81681fe25b0e93dc64",
        "da->csp":
            "623b2344eca2e33a8df7c4dc227eefdb94e9fff1cb8b08b2fa48e2ba65c980c1",
        "da->do":
            "b46a0f520b5299070ed4027ce81c5c269b13868f612255d509c0ad69e79e10ad",
        "do->csp":
            "fb3c8cd8d0ab1cae8a6f23a8442f56c3c6040a9932be2bb6bb3e3e0dc67b146d",
        "do->da":
            "4b3b0e4a584e150b43e9100e934a4ee529b63077ae512c894222d9b9a86bcb2f",
    },
    "det-1024": {
        "csp->da":
            "9febe425b7a01863117e9a256bd653aa29b7f2d48160a1e486d18ab3f68ccdf3",
        "csp->do":
            "f1d34c3ccbba2009ff70a133c5ed164a99d4e3e27bdfb8fc8caf3ed1ae89b104",
        "da->csp":
            "644d783d50b301f43caa95e7a97f88a45533ed7dbaceafb5ec274ac7c6dace9b",
        "da->do":
            "d107b4cb97e0dcf136cb0e9c26a8eb0d42a674114453d0700ecdf51d6abe4857",
        "do->csp":
            "203b938d645a1141964194998f68bc222825575a40f6984d44067e9b3c169936",
        "do->da":
            "18f7c5a6af48214dc16fcfc31953f7460f20fb848d3e12a57b3132bccf19354a",
    },
    "abort": {
        "csp->da":
            "5c562946ad8daaa1bb988c06e5e9518d2ec615db74321ef6ca378f8c68797dee",
        "csp->do":
            "f6ae45bc6c004e749c215004eab2e354ab05eea62e8e579c7af3724635d6f296",
        "da->csp":
            "0f23b73585cb5fd062ea7f311c582f33730a65d1e0b155ddad411a639b38c888",
        "da->do":
            "dc18938d32759fafa7f16b2b7042d0c460bb42df37f32a74471c6cc11c796005",
        "do->csp":
            "2950f6fb3d8d3bd95a79eb2669a21946028c4d6226efdfa20f4f8d35895eda43",
        "do->da":
            "74afb993106d4e3bbb7f3ba8710a1f1cf2ba2e720c95fbafb73a99e00fd2d48a",
    },
    "fh-stop": {
        "csp->da":
            "ec864808c0cadc6f934ba70afd6f3d3bd11948ef087043ccce5f2d3511ab8de3",
        "csp->do":
            "971935547288dde0fccc19b668e63d1291ce34736ba4b915ae1564ce6b9dfc2b",
        "da->csp":
            "b7a7eff5c9b4d394ef05f3d9927dcca4f97f71b8dc48ca4dbe0ad99cd101885a",
        "da->do":
            "3b45800a026d5363392cdc175c2428f21a891ebc46e9a19fc7981bc4ad04c1fd",
        "do->csp":
            "d0fc876dc15f56bd3b914f83ae376f69afcaa9caa73869cebc5ecba2a6c36d69",
        "do->da":
            "55424cafbcff37f73fbc60b8f207f44b8746764545487b57bcee67522610a31d",
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
def test_session_frames_have_the_v12_lengths(mode, scheme):
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
                    transport.OT_MSG: [4 + 16 * m],
                    transport.RANDOMIZED_NODE: [w * (1 + pedersen)] * h,
                    transport.GC_PAYLOAD: [
                        32 * (len(circuit.nonfree_gates()) +
                              len(circuit.outputs)) +
                        16 * len(circuit.gen_inputs) + 32 * n] * h,
                    transport.GC_RESULT: [1] * h,
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
