"""Node-authentication inside the protocol: honest rounds pass, a
substituting server is caught before any circuit evaluation."""

import threading

import pytest
from oracles import decrypt_direct

from oope import engine, integrity, paillier, transport
from oope.cluster import build_cluster
from oope.engine import ProtocolParams
from oope.errors import ConfigurationError, HandshakeError, SessionAborted
from oope.ot import GROUP_TEST
from oope.rng import make_rng
from oope.wire import lp, read_lp

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
        root = table.get(table.order_at(len(table) // 2))
        root.cipher = paillier.encrypt(pk, 55, make_rng(1))
        for ch in cluster.channels:
            if ch.name == "da->do":
                ch.record = True
        with pytest.raises(SessionAborted, match="authentication"):
            cluster.encrypt(15)
        # the analyst never engaged the oblivious comparison: no OT
        # derandomization left its side for this session
        sent = [transport.decode_frame(b[4:]) for ch in cluster.channels
                if ch.name == "da->do" for b in ch.transcript]
        assert not [f for f in sent
                    if f.ftype == transport.OT_MSG and
                    f.session_id != transport.NULL_SESSION]
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


def test_upload_with_an_oversize_node_tag_aborts():
    # the server cannot check the commitment, but it refuses an Enc(a)
    # of the wrong width before the tag reaches the table, where every
    # later session that visited the node would abort
    cluster, ctx = build(integrity.SCHEME_PEDERSEN, seed=111)
    try:
        table, pk = ctx["table"], ctx["pk"]
        orders = table.orders()
        orig_send = cluster.da.csp_ch.send

        def widen(frame):
            # upload: Enc(xbar) record | lp(node tag); node tag:
            # lp(commitment) | Enc(a) record, which gains a byte
            if frame.ftype == transport.CIPHER_UPLOAD:
                end = 4 + paillier.cipher_width(pk.key_bits)
                node_tag, _ = read_lp(frame.payload, end)
                commit, off = read_lp(node_tag, 0)
                node_tag = lp(commit) + lp(b"\0" + node_tag[off + 4:])
                frame = transport.Frame(frame.ftype, frame.session_id,
                                        frame.payload[:end] + lp(node_tag))
            orig_send(frame)

        cluster.da.csp_ch.send = widen
        with pytest.raises(SessionAborted, match="cipher record"):
            cluster.encrypt(15)
        cluster.da.csp_ch.send = orig_send
        assert table.orders() == orders
        assert cluster.encrypt(15) == 6
        assert not cluster.errors
    finally:
        cluster.close()


def test_state_untouched_after_detected_attack():
    cluster, ctx = build(integrity.SCHEME_PEDERSEN, seed=109)
    try:
        table, pk = ctx["table"], ctx["pk"]
        orders = table.orders()
        root = table.get(table.order_at(len(table) // 2))
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

        def shift_a_blind(frame):
            if frame.ftype == transport.RANDOMIZED_NODE:
                cipher, off = paillier.parse_cipher_record(
                    frame.payload, 0, pk.key_id, pk.key_bits)
                a_cipher, _ = paillier.parse_cipher_record(
                    frame.payload, off, pk.key_id, pk.key_bits)
                a_cipher = paillier.hom_add(
                    pk, a_cipher, paillier.encrypt(pk, sk.p, make_rng(3)))
                shifted.append((decrypt_direct(sk, cipher),
                                decrypt_direct(sk, a_cipher)))
                frame = transport.Frame(
                    frame.ftype, frame.session_id,
                    frame.payload[:off] +
                    paillier.cipher_record(a_cipher, pk.key_bits))
            orig_node(frame)

        def capture(frame):
            if frame.ftype == transport.INTEGRITY_PROOF:
                proofs.append(frame.payload)
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
                              args=(ch, role, params.digest(), extra))
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
        for ch in (da_csp, csp_da, da_do, do_da):
            ch.close()
        for t in peers:
            t.join(timeout=5)
    assert not any(t.is_alive() for t in peers)
