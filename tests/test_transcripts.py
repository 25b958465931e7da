"""Transport equivalence: seeded loopback and TCP runs byte-match, and
seeded runs byte-match pinned digests."""

import hashlib
from collections import Counter

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
# seeded runs of protocol 18: det, fh and Pedersen on a 256-bit key, det
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
            "82ed0efbd3629c790ab93c218149daf15835549028e582483d4ea5933f525113",
        "csp->do":
            "f99491e18ed5b1af0586cf065f258165e42a7b4e35534cd97c55cc3c436a5787",
        "da->csp":
            "9a7cd08de47a52dae2b3b9b8e299c236d45ff5605b3990ef0c8fd23b7ca95750",
        "da->do":
            "d48786c2067579d81dcd480d5a7cfb34ff23d053a870b237e0a891d25e0d13b3",
        "do->csp":
            "034b775c40225bd32f451d0b111065ead93ed476a13c6bab1cc51cddb2bb9b53",
        "do->da":
            "5c46cba44db1f7fbfedd1e056b421b8970a303214eaa5135932fbfd006ce6bfe",
    },
    "fh": {
        "csp->da":
            "b793abcf4b5138db3c5bfa8c91675653095967169b348fa393a7478e24b8bfba",
        "csp->do":
            "3d13ab74a18d28d01c3aa852dd75b16e0b1b3dcfaf90e7a46cf7d666472e2472",
        "da->csp":
            "60480a7c4fd091329b5247b0362b2fca4d82799ac443440a8574a55fc4b0ec5f",
        "da->do":
            "ad5b76be2a362697c7e3c07012d7986bfb6a87afccac8e423bd63512e14d4ab9",
        "do->csp":
            "4fef9217aa838893980f0e2fe3f2998ecced72be358cd14eba5a7d51cefdcb86",
        "do->da":
            "ff28c284da292e044d0cee4fd79db166222cc6f570e259a0d35a2123cfd35805",
    },
    "pedersen": {
        "csp->da":
            "7e0503316d70bda833ad287644c2aff38ad716d4886e5cbe6f49e08c59189a0c",
        "csp->do":
            "a5d5a13fb88dbdc69b7a5079f1a49c78ffce4c82c434d6fb2c9e18038fcd0dcb",
        "da->csp":
            "281182fb62c108f178a5368ea8cc0e026ee5ee0d5aca19021d0652044b807a91",
        "da->do":
            "d34f35c63ff0044c2e56b129e1349dd626aebb51b5dc641b1848914da79f8061",
        "do->csp":
            "99bf87e31118af03579d08b808c60a67670353778b736d22d0f2f1db9e3fed43",
        "do->da":
            "865fa44ee33bc5fbd33338f6f28332f72f10d5dd3c6fcd87ac0d19ed5c16f5bd",
    },
    "det-1024": {
        "csp->da":
            "ed62944cde6639582182f2d1f8e61695d29c6dca53e495679640256e2fb06252",
        "csp->do":
            "410bb2172548498e6ec5a5dcad2138a87162fc1daf6ec6d5253afc4b5d3bdc69",
        "da->csp":
            "59e41eef1c70182f8eddd3ad2fc6ee1b0db163b924fecc5cae9cfbc248b08b5e",
        "da->do":
            "72f2f0da201e9879fb08ab389f1ad97dac58e835d0a2bfad587c244ff7f54ce5",
        "do->csp":
            "ca51318bdbe64f72a463e5ded84b1aa4e8fcac37ed4549ef92fcbc80e460a681",
        "do->da":
            "53e1df70c9a481325a395e91207b8faaf8da160997ce76fe43263e7104b06094",
    },
    "abort": {
        "csp->da":
            "bb2df556352ec6a4f2626a78880d1fa73c259a81a8d32c56e3debd32cfe295f5",
        "csp->do":
            "e7867720cbc8bfc16589147f5053e6a38944da51c5abcda3195a70bdf92cc744",
        "da->csp":
            "595d61e727886b335bebf34e4ee7e31a0d1515e76881f007cdd34e02323ca179",
        "da->do":
            "8d675442528438c6f8ef50c280c14fc4eb4b2bdff30fcd402e0e21a51f698235",
        "do->csp":
            "2d2550054ed631f3de3ebd22c8dfc4d22f067940e6ed6c69ff46fc24584231f4",
        "do->da":
            "c372e92120a5af31ef643b367b447eadbfd5024361187fcd6a59d14669bff006",
    },
    "fh-stop": {
        "csp->da":
            "4b1f01270b29ca56c7960d21df0d1c7dde256c8d08073fcf2dedccb3a3ef191b",
        "csp->do":
            "0f6c002badb23e01257f810789ebd4dfae292fab5bdd5b920b88b651a4d44c25",
        "da->csp":
            "804a3c63d0409fb3be4c44bb2bba715a96db82f3ce4490bf5717517958d7213a",
        "da->do":
            "f2ea403d8d3160821d70b533a7b5249c461c0e5174bc4f491450e88e2d2b2f46",
        "do->csp":
            "675832ea388e8ded8c7040a1ee26e3cfe31ec403b87b2e3cabe031a6fcf6ae8c",
        "do->da":
            "848724e1a346371f3e7991d28141962913c97c35bc539187ec9d8e173a275fab",
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
    # and GC_PAYLOAD opens with the opening; GC_PAYLOAD carries the
    # round's owner labels, and round 1's behind them every comparator's
    # tables and the whole OT reply, but no decode hashes; the owner's
    # one SHARES carries those of the session's h comparators, 32 bytes
    # per output of each, and the analyst's SHARES is 16 bytes per
    # output, the upload behind it in an encrypt's last round: 3h + 5
    # frames, 4h + 5 under Pedersen, and as many GC_PAYLOAD bytes as
    # when each round carried its own tables and reply
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
                labels = g * pedersen + 16 * len(circuit.gen_inputs)
                garbled = 32 * len(circuit.nonfree_gates()) + 32 * n
                want = {
                    transport.SESSION_START: [1],
                    transport.RANDOM_OFFSET: [(16 + 64 * pedersen) * h],
                    transport.OT_MSG: [4 + 16 * m],
                    transport.RANDOMIZED_NODE: [w * (1 + pedersen)] * h,
                    transport.GC_PAYLOAD: [labels + h * garbled] +
                    [labels] * (h - 1),
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
                assert sum(got[transport.GC_PAYLOAD]) == \
                    h * (labels + garbled)
                assert len(session) == (3 + pedersen) * h + 5
                labels = [16 * outputs] * h
                op_byte, = {f.payload[0] for _, f in session
                            if f.ftype == transport.SESSION_START}
                if op_byte == OP_ENCRYPT:
                    labels[-1] += 2 * w + g if pedersen else w
                assert shares == {"da->csp": labels,
                                  "do->csp": [32 * outputs * h]}
        assert not cluster.errors
    finally:
        cluster.close()
