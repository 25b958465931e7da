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
    assert any(b[4] == transport.INTEGRITY_TAG for b in loop["csp->da"])


# SHA-256 of each channel's transcript, its sent frames concatenated, in
# seeded runs of protocol 16: det, fh and Pedersen on a 256-bit key, det
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
            "2b2ebf938d7720f823c2c4fb81cf8c5f3e073b178df2cb214017c879ced56af2",
        "csp->do":
            "cc3f1139c5a4ee09be556445c5ac6d0b515c52c28e2174b727a6f142f9f84612",
        "da->csp":
            "b33d5b7d08d43502301c909ecb12121e39d4c8ad8c9fa8c44a3b96b7f99db068",
        "da->do":
            "248ddc4512f6c9a9c3b4d64d9b3c1e00b412c88ee5a601bb5ca60b7d95968faa",
        "do->csp":
            "cb57cae7c37b71f87f9934a686fd63e0275331dbf22c8f7b46df0443ccf90949",
        "do->da":
            "eac8a0bc572a9af23481f7770b0cdecb8ce83f1265d5a028f93e02199329a725",
    },
    "fh": {
        "csp->da":
            "81f9b9f0851ffc1e5db7e7d073252a3717979ea555edba0670754d4632a4e0ec",
        "csp->do":
            "c6f4909a7bc5ac29cb1d4f05189fac7a871390412187ca9478f28d7255cbc3e3",
        "da->csp":
            "b9123e6686ce6248f64a3a54b3aaf519e292e8faeba77996d46c80ef5ff55dc9",
        "da->do":
            "dea28626c5cccab87b08902e6a1fc816f47cddeedffd4eef0935a8ead399cc63",
        "do->csp":
            "a46a4366dab3b6745999d7c406e7d248ac30d67e47c2b0887cc69c706d33582a",
        "do->da":
            "afc24930f5db646c18c3335b93a6aa9301d6f2b4417961f91a6b7e0316b422b1",
    },
    "pedersen": {
        "csp->da":
            "f4c708109db36602d0f2915aa8663dfd6a35876e714fdbf5fc6111b4669cacae",
        "csp->do":
            "632591d969c488fd4da80338c501ad1230d3bc6a024b5dc1f120b21114efdc8e",
        "da->csp":
            "a96e4005baebacac346c30bd639eeea0530ae28e360811f4437405c9013eda99",
        "da->do":
            "34e8c9a148d2b1d9768cf78ad305014d9ec0f96c7c0d1a807b97b6355369dc36",
        "do->csp":
            "15faa566d5ced29d919ab8dd5ec711f31d031014de7e5ad7e006f5dbc2b533aa",
        "do->da":
            "d94f8cc5ee339312f3f0afb205ea1818d09de2ba16aa8cebabbf9904c151e724",
    },
    "det-1024": {
        "csp->da":
            "2944b06c404dabe300ad44c74184278b5b9bbae7b135f80587862f811b4587b6",
        "csp->do":
            "b1cf9c5a2ee476e4989593e7c1f8c0585d0e9e2b751b4a6114a69502747501e2",
        "da->csp":
            "b11c15c04acf1ecef3b3bd7c419abc371f31524c17777faa06d28a7c28ef514d",
        "da->do":
            "5fbe02f88571bd68fa0c7da612c7d74370bc61e8dcce0da43903ab3f0aba6b34",
        "do->csp":
            "a3b7209cbabdaa23059395e6fa7d488efd47fd4530db5b5875fcb097ffbe9243",
        "do->da":
            "7685b95f8ebe3f6b4491c7ec6325ad23aaf6799789a0018dfc4756f172421fba",
    },
    "abort": {
        "csp->da":
            "6eaa1d5f7b360b70c41d9c5570ae885ca3ffdf11e6e98f94bf7f9f882f494be2",
        "csp->do":
            "70d822d8088712f9aa190f616cd37a72e2c15e4702831c7c20f1178a539d0420",
        "da->csp":
            "d9e7d18eac86bbd4281b6f96f25c396c35088ca3dbcbe3143744a96bb351e385",
        "da->do":
            "fb624b0d91ea8b832bb9cc8c7698fed0040d4a3d3e01fe6735ce344e420bb9cf",
        "do->csp":
            "8a1ba913aa1ecb6e1542ba899c1d85e0d52b729101fc26ac894358d3c5d6e806",
        "do->da":
            "074accb79517e03ceb54931d3967e173db929f047933112925bb5c7fa41a22fc",
    },
    "fh-stop": {
        "csp->da":
            "bdcc477dcc1a98ee105dbb6406c17a1c6605b0a57156fc69fee4b8c8efc65e19",
        "csp->do":
            "a5bdc6e8dd3c8ddac4ebc9f6e44a09bc0699c4103fde067955305bf6f4f0a03f",
        "da->csp":
            "f992c4fbba6e3b0a22c063a46ee5639983ffe04818d0ceb529461a2419bf3f24",
        "da->do":
            "5c9c232751420ef9a29818fa47f7727d8a5138ff5cf3e54974bf6128c2479489",
        "do->csp":
            "09198e030109af9d021d9f86a49e1d48cf33a6bcee289e8dfea0d8e31d2421e9",
        "do->da":
            "42e9b2df6e7d8c72caa18e397fbbafb028ca862d057950d986f5bfa26f43d164",
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
def test_session_frames_have_the_v16_lengths(mode, scheme):
    # every session frame has one layout, whose length follows from h,
    # the key and MAC group widths and the circuit alone: under Pedersen
    # an offset record is r and r', INTEGRITY_TAG the commitment alone
    # and GC_PAYLOAD opens with the opening; GC_PAYLOAD carries no
    # decode hashes; the owner's SHARES carries a garbled
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
                    transport.RANDOM_OFFSET: [(16 + 64 * pedersen) * h],
                    transport.OT_MSG: [4 + 16 * m],
                    transport.RANDOMIZED_NODE: [w * (1 + pedersen)] * h,
                    transport.GC_PAYLOAD: [
                        g * pedersen + 32 * len(circuit.nonfree_gates()) +
                        16 * len(circuit.gen_inputs) + 32 * n] * h,
                    transport.ORDER_RESULT: [16]}
                if pedersen:
                    want[transport.INTEGRITY_TAG] = [g] * h
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
