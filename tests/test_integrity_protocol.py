"""Node-authentication inside the protocol: honest rounds pass, a
substituting server is caught before any circuit evaluation."""

import pytest

from oope import integrity, paillier, transport
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
