"""Node-authentication inside the protocol: honest rounds pass, a
substituting server is caught before any circuit evaluation."""

import pytest

from oope import engine, integrity, paillier, transport
from oope.cluster import build_cluster
from oope.engine import ProtocolParams
from oope.errors import SessionAborted
from oope.ot import GROUP_TEST
from oope.rng import make_rng

MAC_PARAMS = integrity.gen_mac_params(512, 160, rng=make_rng(77))
DATA = [32, 20, 25, 69, 10]


def build(scheme, seed):
    params = ProtocolParams(l=16, k=16, m=28, key_bits=256,
                            integrity=scheme, mac_subgroup_bits=160)
    return build_cluster(DATA, params, seed=seed, ot_group=GROUP_TEST,
                         mac_params=MAC_PARAMS)


@pytest.mark.parametrize("scheme", [integrity.SCHEME_DLMAC,
                                    integrity.SCHEME_PEDERSEN])
def test_honest_rounds_verify(scheme):
    cluster, ctx = build(scheme, seed=101)
    try:
        assert cluster.encrypt(25) == 11
        assert cluster.encrypt(15) == 6
        assert cluster.encrypt(100) == 25
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("scheme", [integrity.SCHEME_DLMAC,
                                    integrity.SCHEME_PEDERSEN])
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


@pytest.mark.parametrize("scheme", [integrity.SCHEME_DLMAC,
                                    integrity.SCHEME_PEDERSEN])
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
                    frame.payload, 0, pk.key_id)
                a_cipher, _ = paillier.parse_cipher_record(
                    frame.payload, off, pk.key_id)
                a_cipher = paillier.hom_add(
                    pk, a_cipher, paillier.encrypt(pk, sk.p, make_rng(3)))
                shifted.append((paillier.decrypt_direct(sk, cipher),
                                paillier.decrypt_direct(sk, a_cipher)))
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
