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
# seeded runs of protocol 13: det, fh and Pedersen on a 256-bit key, det
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
            "8f0a3cc32a9c3b86a74c7e8ac009b10969ac3d7ea0ab0a67de9e95972a62c805",
        "csp->do":
            "7ef951716ef841aa3228291ef1b7f40a66413921b4060e0d821727d243acf7c2",
        "da->csp":
            "25f58b79f99c780c9037f45d7db5ed410114af6b0c88c50487e60879271fc044",
        "da->do":
            "e5cc5de57e996d55d31ad694e7f7cb4b3906beca4f307734f13fa3697961accd",
        "do->csp":
            "7b2eb56ae083f8c92e54cfb12a2b5c658ec60c9ffcaf53e39be74d4491083485",
        "do->da":
            "8b754c527d8bda91bdbf77e31468fcc1a3b2434874b0f4ade1bb0d8b9b3291be",
    },
    "fh": {
        "csp->da":
            "d399518713eb8267cf4008d670a53870f9e0d218b619b69c3103bb19a07ab2c6",
        "csp->do":
            "0d7b18ef3b68c213c9e49ee16ea8e8c9a8b549251cf586d404555338d9ff39da",
        "da->csp":
            "c451d813f3dfd2e71f9b326065b755e9c67deb3a6e1ace3fa66b1229e97a073e",
        "da->do":
            "1101eb39b0e184e5cf6663eb130abd771e7e6efadf2c77f2bb287a6986a5f756",
        "do->csp":
            "57dc7278922835694b81fca23236c8d4277cdacadec3a1e98cf3fc4081c1a488",
        "do->da":
            "15c3a010903b2562a7b7d2e7e2d83056c1ec7bfd48f0af816b8f280a3aa45ee7",
    },
    "pedersen": {
        "csp->da":
            "af3aea386f5e57584c712ede3d916c816db69066d5f39b204e37c0c494b03279",
        "csp->do":
            "0b9abad49484d54687479c066de2f45c6f4ea6a9d62f930591a7266dff4675a6",
        "da->csp":
            "146f7150ae06afb09fa7b8fc3352f022daec07760e2780b74fcc72d7c2d35ed2",
        "da->do":
            "140a007b2a93c2ec541c0e61f2a3800bf57b00bcbb7c809d54c320e38fc5f6e7",
        "do->csp":
            "dbb070d71dc0bd6e451046630f520c95d9fcadbedb020fd6a1a6f3204c2d91e7",
        "do->da":
            "4ab38af1fee52ec678ce3e38146059f4e76f26dd27fe42dd4934d90fb60981e4",
    },
    "det-1024": {
        "csp->da":
            "292851b5216eb4467ab30929e1178ab34a15bd35284bbb4be23402374cf0376f",
        "csp->do":
            "99035081f4e1da76ed3c27d325a3ccdbd2ce2c9bdd97ef041d23555f88d47879",
        "da->csp":
            "6eebcfbed251d5dc1d165a2b2579c773fb98aca20de8c01b137337160df7c747",
        "da->do":
            "e512099ec31e061d4eb5d94542ec45570f7186329b76e280697dbc18e9dd5837",
        "do->csp":
            "9e99e8ca3f963b59e01f425cdd89ae7caf587524354e5c64934c5c159c255287",
        "do->da":
            "1ab02da4f16f6bcf9be7ff8db978d087a7095d9528ec7012096603326e9d75c7",
    },
    "abort": {
        "csp->da":
            "d48ba8a83611900403e0a066320cae2b1bde16288539a1de8744733ed9c97080",
        "csp->do":
            "f9ac29c829dcae8577bc86d943414d824eb2366abf60eccea8ebec688d442bd8",
        "da->csp":
            "ff6cf1ca7b6e76b08cb230bab55100b53d6cbbeff9e94fd9b878808046d045d0",
        "da->do":
            "e29fa218ce0dcfaf50274d57a383fe8095b4112554feb05e1fe115a972032357",
        "do->csp":
            "ad502263b77faa4e8108e06aa57ba29a59a621dfc025284f955976d6bceffb95",
        "do->da":
            "2e3fb73009e8ec9814a194bf1325dd7d4bd1fa44e9a9f632566b449079161cee",
    },
    "fh-stop": {
        "csp->da":
            "460fc16c756d89915a89f7ab6ee36b9f0ca22d2040ab7cd063c8745b621ed5e4",
        "csp->do":
            "569b5ebd16d91f17fa951deb7b9aa8b021b1e61b37be4b519474abb3a4aae043",
        "da->csp":
            "fde885a0c900d349cd9d935c8590f04eecf9d2915ecc616e25fb7a1642f7a7c5",
        "da->do":
            "cb5cfee6536e511a93c44b29c543e0aae5bb3c3c08a5d36a7107fc579abeea2b",
        "do->csp":
            "5a2cc927950e6b09103f097224a500eedb6bdcf7e1268fda0a11629134434efd",
        "do->da":
            "ab153387e3d0d6f5bb8bf22af347fe1eb0993da0ffaceb21b805895aff36c118",
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
def test_session_frames_have_the_v13_lengths(mode, scheme):
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
