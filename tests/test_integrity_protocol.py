"""Node-authentication inside the protocol: honest rounds pass, a
substituting server is caught before any circuit evaluation."""

import threading

import pytest
from oracles import Mope2Oracle, decrypt_direct, table_snapshot

from oope import engine, integrity, paillier, transport
from oope.cluster import build_cluster
from oope.engine import ProtocolParams
from oope.errors import (ConfigurationError, HandshakeError, OopeError,
                         SessionAborted)
from oope.ot import GROUP_TEST
from oope.rng import make_rng

MAC_PARAMS = integrity.gen_mac_params(512, 160, rng=make_rng(77))
DATA = [32, 20, 25, 69, 10]


def build(scheme, seed):
    params = ProtocolParams(l=16, k=16, m=28, key_bits=256,
                            integrity=scheme, mac_subgroup_bits=160)
    return build_cluster(DATA, params, seed=seed, ot_group=GROUP_TEST,
                         mac_params=MAC_PARAMS)


@pytest.mark.parametrize("scheme", [integrity.SCHEME_PEDERSEN])
def test_honest_rounds_verify(scheme):
    cluster, ctx = build(scheme, seed=101)
    try:
        assert cluster.encrypt(25) == 11
        assert cluster.encrypt(15) == 6
        assert cluster.encrypt(100) == 25
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("scheme", [integrity.SCHEME_PEDERSEN])
def test_substituted_node_detected_before_evaluation(scheme):
    cluster, ctx = build(scheme, seed=103)
    try:
        table, pk = ctx["table"], ctx["pk"]
        # server forges a ciphertext for the first node of every search
        # (the middle order) but keeps the old tag
        root = table.entry_at(len(table) // 2)
        root.cipher = paillier.encrypt(pk, 55, make_rng(1))
        for ch in cluster.channels:
            if ch.name in ("da->do", "da->csp"):
                ch.record = True
        with pytest.raises(SessionAborted, match="authentication") as err:
            cluster.encrypt(15)
        # the analyst sent its OT choices, one-time padded, before the
        # node arrived, but it evaluated nothing: no output label left
        # its side for this session
        sent = [transport.decode_frame(b[4:]) for ch in cluster.channels
                if ch.name in ("da->do", "da->csp") for b in ch.transcript]
        sid = err.value.session_id
        assert transport.OT_MSG in {f.ftype for f in sent
                                    if f.session_id == sid}
        assert not [f for f in sent if f.session_id == sid and
                    f.ftype == transport.SHARES]
    finally:
        cluster.close()


@pytest.mark.parametrize("scheme", [integrity.SCHEME_PEDERSEN])
def test_analyst_uploads_are_tagged_and_verifiable(scheme):
    cluster, ctx = build(scheme, seed=107)
    try:
        cluster.encrypt(15)
        entry = ctx["table"].get(6)
        assert entry.node_tag
        # a follow-up session traverses the analyst-inserted node fine
        assert cluster.encrypt(14) == 5
        assert not cluster.errors
    finally:
        cluster.close()


def test_upload_without_a_commitment_aborts():
    # an upload is Enc(xbar) | Enc(a) | commitment, behind the output
    # labels of the last round's SHARES; the server does not know the
    # commitment's width, but it refuses an upload with none before the
    # tag reaches the table, where every later session that visited the
    # node would abort
    cluster, ctx = build(integrity.SCHEME_PEDERSEN, seed=111)
    try:
        table, pk = ctx["table"], ctx["pk"]
        orders = table.orders()
        orig_send = cluster.da.csp_ch.send
        labels = 16 * len(cluster.da.circuit.outputs)
        end = labels + 2 * paillier.cipher_width(pk.key_bits)

        def cut(frame):
            if frame.ftype == transport.SHARES and \
                    len(frame.payload) > labels:
                frame = transport.Frame(frame.ftype, frame.session_id,
                                        frame.payload[:end])
            orig_send(frame)

        cluster.da.csp_ch.send = cut
        with pytest.raises(SessionAborted, match=(
                f"SHARES of {end} bytes, expected more than {end}")):
            cluster.encrypt(15)
        cluster.da.csp_ch.send = orig_send
        assert table.orders() == orders
        assert cluster.encrypt(15) == 6
        assert not cluster.errors
    finally:
        cluster.close()


# damage -> (sending end, frame type, payload edit, abort reason).  Under
# Pedersen a node is Enc(x + r) | Enc(a + r'), cipher_width bytes each,
# its tag the commitment, and GC_PAYLOAD opens with the proof, the
# opening; both are one group element of the MAC group's width.  Every
# field of GC_PAYLOAD has a fixed width, so a proof with a leading zero
# byte makes the frame one byte too long.
PEDERSEN_DAMAGE = {
    "node-trailing": ("csp->do", transport.RANDOMIZED_NODE,
                      lambda p: p + b"\0",
                      "RANDOMIZED_NODE of \\d+ bytes, expected"),
    "tag-trailing": ("csp->da", transport.INTEGRITY_TAG, lambda p: p + b"\0",
                     "INTEGRITY_TAG of \\d+ bytes, expected"),
    "proof-leading-zero": ("do->da", transport.GC_PAYLOAD,
                           lambda p: b"\0" + p,
                           "GC_PAYLOAD of \\d+ bytes, expected"),
    "proof-flipped": ("do->da", transport.GC_PAYLOAD,
                      lambda p: bytes([p[0] ^ 1]) + p[1:], "authentication"),
}


@pytest.mark.parametrize("damage", sorted(PEDERSEN_DAMAGE))
def test_malformed_pedersen_frames_abort_and_leave_the_table(damage):
    sender, ftype, edit, reason = PEDERSEN_DAMAGE[damage]
    cluster, ctx = build(integrity.SCHEME_PEDERSEN, seed=115)
    try:
        before = table_snapshot(ctx["table"])
        end = next(ch for ch in cluster.channels if ch.name == sender)

        def damaged(frame):
            if frame.ftype == ftype:
                frame = transport.Frame(ftype, frame.session_id,
                                        edit(frame.payload))
            transport.Channel.send(end, frame)

        end.send = damaged
        with pytest.raises(SessionAborted, match=reason):
            cluster.encrypt(15)
        del end.send
        assert table_snapshot(ctx["table"]) == before
        assert cluster.encrypt(15) == \
            Mope2Oracle(cluster.da.params.m).load(DATA).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


def test_state_untouched_after_detected_attack():
    cluster, ctx = build(integrity.SCHEME_PEDERSEN, seed=109)
    try:
        table, pk = ctx["table"], ctx["pk"]
        orders = table.orders()
        root = table.entry_at(len(table) // 2)
        honest_cipher = root.cipher
        root.cipher = paillier.encrypt(pk, 1, make_rng(2))
        with pytest.raises(SessionAborted):
            cluster.encrypt(15)
        assert table.orders() == orders
        # restore and confirm the cluster still works
        root.cipher = honest_cipher
        assert cluster.encrypt(15) == 6
    finally:
        cluster.close()


def test_pedersen_blind_decrypts_on_full_crt():
    # the analyst chooses a and learns r', so it knows a + r'; shifting
    # that plaintext by P must fail authentication, or the outcome would
    # tell it whether a + r' < P and, by bisection, the factor P of N
    params = ProtocolParams(l=16, k=16, m=28, key_bits=512,
                            integrity=integrity.SCHEME_PEDERSEN,
                            mac_subgroup_bits=160)
    cluster, ctx = build_cluster(DATA, params, seed=113, ot_group=GROUP_TEST,
                                 mac_params=MAC_PARAMS)
    try:
        pk, sk = ctx["pk"], ctx["sk"]
        # the owner's mod-P path would apply to this bound
        assert (1 << (160 + params.k)) + MAC_PARAMS.q <= sk.p
        orig_node, orig_proof = cluster.csp.do_ch.send, cluster.do.da_ch.send
        shifted, proofs = [], []
        width = paillier.cipher_width(pk.key_bits)
        g = (MAC_PARAMS.p.bit_length() + 7) // 8

        def shift_a_blind(frame):
            if frame.ftype == transport.RANDOMIZED_NODE:
                # Enc(x + r) | Enc(a + r'), width bytes each
                cipher, a_cipher = (int.from_bytes(c, "big") for c in (
                    frame.payload[:width], frame.payload[width:]))
                a_cipher = paillier.hom_add(
                    pk, a_cipher, paillier.encrypt(pk, sk.p, make_rng(3)))
                shifted.append((decrypt_direct(sk, cipher),
                                decrypt_direct(sk, a_cipher)))
                frame = transport.Frame(
                    frame.ftype, frame.session_id,
                    frame.payload[:width] + a_cipher.to_bytes(width, "big"))
            orig_node(frame)

        def capture(frame):
            # GC_PAYLOAD opens with the proof
            if frame.ftype == transport.GC_PAYLOAD:
                proofs.append(frame.payload[:g])
            orig_proof(frame)

        cluster.csp.do_ch.send = shift_a_blind
        cluster.do.da_ch.send = capture
        with pytest.raises(SessionAborted, match="authentication"):
            cluster.encrypt(15)
        cluster.csp.do_ch.send = orig_node
        cluster.do.da_ch.send = orig_proof
        (v, a_blind), = shifted
        assert a_blind >= sk.p
        assert proofs == [engine.wire_group(
            integrity.ped_open(v, a_blind, MAC_PARAMS), MAC_PARAMS)]
        assert cluster.encrypt(15) == 6
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("bits", [64, 200])
def test_subgroup_bits_must_match_the_mac_group(bits):
    # at 64 bits the server's r' < 2^80 would blind an a < 2^160, and the
    # owner's a + r' would show a's top bits
    params = ProtocolParams(l=16, k=16, m=28, key_bits=256,
                            integrity=integrity.SCHEME_PEDERSEN,
                            mac_subgroup_bits=bits)
    pk, sk = paillier.keygen(256, rng=make_rng(5))
    with pytest.raises(ConfigurationError, match="mac_subgroup_bits"):
        engine.DoEngine(sk, params, mac_params=MAC_PARAMS)
    # an owner that sends the 160-bit group anyway fails at HELLO
    da_csp, csp_da = transport.loopback_pair()
    da_do, do_da = transport.loopback_pair()
    peers = [threading.Thread(target=transport.handshake, daemon=True,
                              args=(ch, role, transport.ROLE_DA,
                                    params.digest(), extra))
             for ch, role, extra in (
                 (csp_da, transport.ROLE_CSP,
                  paillier.serialize_public_key(pk)),
                 (do_da, transport.ROLE_DO,
                  integrity.serialize_params(MAC_PARAMS)))]
    for t in peers:
        t.start()
    analyst = engine.DaEngine(params, make_rng(6), ot_group=GROUP_TEST)
    try:
        with pytest.raises(HandshakeError, match="mac_subgroup_bits"):
            analyst.attach(da_csp, da_do)
    finally:
        # each peer reads the analyst's HELLO on its own end, so it is
        # joined before that end closes
        for t, ends in zip(peers, ((da_csp, csp_da), (da_do, do_da))):
            t.join(timeout=5)
            for ch in ends:
                ch.close()
    assert not any(t.is_alive() for t in peers)


@pytest.mark.parametrize("damaged", ["owner key at the server",
                                     "owner key at the analyst",
                                     "MAC parameters at the analyst"])
def test_hello_extra_with_trailing_bytes_refused(damaged):
    # a HELLO extra holds one key or one parameter set and nothing else,
    # as the last round's SHARES holds one upload
    params = ProtocolParams(l=16, k=16, m=28, key_bits=256,
                            integrity=integrity.SCHEME_PEDERSEN,
                            mac_subgroup_bits=160)
    pk, _ = paillier.keygen(256, rng=make_rng(5))
    key = paillier.serialize_public_key(pk)
    mac = integrity.serialize_params(MAC_PARAMS)
    first, first_peer = transport.loopback_pair()
    second, second_peer = transport.loopback_pair()
    # an end that accepted the extra would wait on its next peer, which
    # never answers; fail that in a second, not in 120
    first.timeout = second.timeout = 1
    if damaged == "owner key at the server":
        attaching = engine.CspEngine({}, pk, params, make_rng(6))
        hellos = [(first_peer, transport.ROLE_DO, transport.ROLE_CSP,
                   key + b"\0")]
    else:
        attaching = engine.DaEngine(params, make_rng(6), ot_group=GROUP_TEST)
        trail = (b"\0", b"") if damaged == "owner key at the analyst" \
            else (b"", b"\0")
        hellos = [(first_peer, transport.ROLE_CSP, transport.ROLE_DA,
                   key + trail[0]),
                  (second_peer, transport.ROLE_DO, transport.ROLE_DA,
                   mac + trail[1])]

    def hello(ch, role, peer_role, extra):
        try:
            transport.handshake(ch, role, peer_role, params.digest(), extra)
        except OopeError:
            pass  # the attaching end closed before its HELLO

    peers = [threading.Thread(target=hello, args=args, daemon=True)
             for args in hellos]
    for t in peers:
        t.start()
    try:
        with pytest.raises(HandshakeError, match="trailing bytes"):
            attaching.attach(first, second)
    finally:
        first.close()
        second.close()
        for t in peers:
            t.join(timeout=5)
        first_peer.close()
        second_peer.close()
    assert not any(t.is_alive() for t in peers)
