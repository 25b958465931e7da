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
# seeded runs of protocol 17: det, fh and Pedersen on a 256-bit key, det
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
            "575952b15147703d8f4a8238ca2a1a935ac3753849cb357b2a2bb89382ece207",
        "csp->do":
            "4caa4b9ac9373b027ada5b55dbcb352b06670d14dc364c60b848fe1fefdd2c27",
        "da->csp":
            "90c1e22aadcc471b24cdeaefd0535a10f3beaed3ec38abf3a565c6b5fa28db83",
        "da->do":
            "49a6957e00bc69f77be9f72355e430a30028b8fb46f72d12cde17a30efea43cf",
        "do->csp":
            "9080f9936a8ca28830489dd888df62987733dd2aafa2a7f075d63e811923ef8c",
        "do->da":
            "6e65dbac7ed53881257602d7cbc40e08a8a07ae605b61ba33378dac8c2558cb0",
    },
    "fh": {
        "csp->da":
            "dda094269f8e1034cc59f9e20b816f69ae5007ccb03a8422e7659c739f20341b",
        "csp->do":
            "e895d61d5c7c5af5cef7b082bc8af7f74e791deea512216f145e701aebccf862",
        "da->csp":
            "002487bf02f2f967ce47c117738df719748dd8cc282f241834207da8a25e0ba7",
        "da->do":
            "6186ce37adbed71f5746134f1785f84185d17f04e73f6fb17218548bd4f5d619",
        "do->csp":
            "4f12cdc688655e6be9c302493906dc4d751c610cff7e1d01b7bca81fb757ed44",
        "do->da":
            "58d2c3fc6e671ac1deafb6a0fec1cb7c13fc51322e6c4fb750cc7e38067a6178",
    },
    "pedersen": {
        "csp->da":
            "2b36e3cb098221d3d6a667b94f5880e7edfe29397598022df032f5603963497e",
        "csp->do":
            "c68a435e7b8f29489b14ff7f7a2f7842dbedeb617cd3ee57582e0d2aa3193d4d",
        "da->csp":
            "d98bf5a400830ee67dc370f92b51133fe2b62213377f1b53279e05b99c26b31d",
        "da->do":
            "3afb0307b2704ba9e0e75ab5ff57efaf454ccdf4078e06f19bffc40a072770c4",
        "do->csp":
            "029906352bad67328980956e9e58c22fac3c1e71d55f4a5aa0b6c16e7e12ce95",
        "do->da":
            "948dc78ee084f0d29515c7b95aef11109ee1b5f99675d24f0f7bcaf5aa716616",
    },
    "det-1024": {
        "csp->da":
            "8bccae1f7bba5d4d943bdb2e03dffcad06c5d3dfa8bb1908b501448819c9b896",
        "csp->do":
            "a7e9ba9d1a0d44d3f7993c3dabb4bbc3b4929e1e86480811f53d92c87fabdf3b",
        "da->csp":
            "d42ab895b1184359ce842152e7788525fe80960a2a7c8e1333837586a72f3cf7",
        "da->do":
            "58e43ff0e367f7dbfeecad02f3899991483f56478e99aa4f05bad1e6e440ebda",
        "do->csp":
            "4dc4d939fb3ad5b85f038544abe56b32f463380c3998e64a9c96cd68005bd011",
        "do->da":
            "3087e46f281acfa00a48acab1cd4bb1c4a047e8e3054167a76afa10117a45ac5",
    },
    "abort": {
        "csp->da":
            "6bce6392f8f8f64b70f9ee2d09842d0926741eb59ca5cb3742d45c340902fde1",
        "csp->do":
            "a192dffda069e6c7279a6f01f6ef2d883536aa6a5017ae5fb8fecbde0c25e5f0",
        "da->csp":
            "7db682015b4f42b806f170f51bf4c384256e65a7f619bcce0ce589f817c7f622",
        "da->do":
            "4e248a7226fb1d123cdef8ab6d45005c01b8a1df327a9e42808a20abcab0a754",
        "do->csp":
            "012bff22a49be8ecf42c4ae24506ba493695d331b1cc1708df2a579490ef369d",
        "do->da":
            "4b485e94c2da3336e27b953c8d01eaa8bbbcba95a132310bce35c6caca6b933d",
    },
    "fh-stop": {
        "csp->da":
            "c8291b272b526dcb628b356dce5e9964ac8d9b13b7b81fb06f9eb51bbeee0c69",
        "csp->do":
            "313e1e0cffdbed52e5e75014b0689e1634c03db1f1898f8a5e7ce729eaf40a77",
        "da->csp":
            "1a56bc20760fc9a654e5f4704409da3a7d1d4819e8073a6b0c1a9219eb66aa3d",
        "da->do":
            "783132267897110b21035a68f197935b3fd7fc21e72a003270bc4ef1a6dd6e96",
        "do->csp":
            "ed76563834609c398da8667d058488faf759861209720cf37277d998cd3207fe",
        "do->da":
            "69561fb8c54b572f7128d677e338ab296352572aa967cb5e0f5372d4ac72066a",
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
    # decode hashes; the owner's one SHARES carries those of the
    # session's h comparators, 32 bytes per output of each, and the
    # analyst's SHARES is 16 bytes per output, the upload behind it in
    # an encrypt's last round: 3h + 5 frames, 4h + 5 under Pedersen
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
