"""The privacy contract and the round's shape, seen from each role:
what the owner and the analyst see depends on nothing they must not
learn, and a round costs four one-way flights."""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import Mope2Oracle

import views
from oope import integrity, transport
from oope.cluster import build_cluster
from oope.engine import BOUND_HIGH, BOUND_LOW, ProtocolParams
from oope.ot import GROUP_TEST
from oope.rng import make_rng

MAC_PARAMS = integrity.gen_mac_params(512, 64, rng=make_rng(3))
SCHEMES = [integrity.SCHEME_OFF, integrity.SCHEME_PEDERSEN]
PLAIN = st.integers(0, (1 << 16) - 1)
OPS = {"encrypt": lambda c, x: c.da.encrypt(x),
       "bound-low": lambda c, x: c.da.bound(x, BOUND_LOW),
       "bound-high": lambda c, x: c.da.bound(x, BOUND_HIGH)}


def build(mode, scheme, data, seed=83):
    params = ProtocolParams(l=16, k=16, m=(1 << 20) - 3, key_bits=256,
                            mode=mode, integrity=scheme, mac_subgroup_bits=64)
    return build_cluster(
        data, params, seed=seed, ot_group=GROUP_TEST,
        mac_params=None if scheme == integrity.SCHEME_OFF else MAC_PARAMS)


def role_view(role, mode, scheme, data, op, xbar):
    """role's whole view of a seeded cluster over data, from its
    handshakes through one op; equal seeds give equal keys and set-up."""
    with views.tap() as tap:
        cluster, _ = build(mode, scheme, data)
        try:
            OPS[op](cluster, xbar)
            assert not cluster.errors
        finally:
            cluster.close()
    return tap.views[role]


@pytest.mark.parametrize("mode", ["det", "fh"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_round_is_four_flights(mode, scheme):
    # node, garbled circuit with the OT reply, GC_RESULT with the next
    # round's flips, SHARES: the first round adds the offsets and the
    # first flips, and the session adds SESSION_START and ORDER_RESULT
    data = list(range(100, 2100, 100))
    pedersen = scheme == integrity.SCHEME_PEDERSEN
    with views.tap() as tap:
        cluster, ctx = build(mode, scheme, data)
        oracle = Mope2Oracle(cluster.da.params.m).load(data)
        try:
            for op, xbar in (("encrypt", 1050), ("bound-low", 1050),
                             ("bound-high", 1050), ("encrypt", 700)):
                h = ctx["table"].height
                assert h >= 2
                ybar = OPS[op](cluster, xbar)
                if op == "encrypt" and mode == "det":
                    assert ybar == oracle.encrypt(xbar)
                sid = [f.session_id for f, _ in tap.sent
                       if f.ftype == transport.SESSION_START][-1]
                flights = tap.stamp(transport.ORDER_RESULT, sid) - \
                    tap.stamp(transport.SESSION_START, sid)
                assert flights <= 4 * h + 3, (op, h, flights)
                counts = Counter(f.ftype for f in tap.session_frames(sid))
                # the extension batch with the first flips
                assert counts.pop(transport.OT_MSG) == 1
                per_round = [transport.RANDOMIZED_NODE, transport.GC_PAYLOAD,
                             transport.GC_RESULT, transport.SHARES,
                             transport.SHARES]
                if pedersen:
                    per_round += [transport.INTEGRITY_TAG,
                                  transport.INTEGRITY_PROOF]
                want = Counter(per_round * h + [
                    transport.SESSION_START, transport.RANDOM_OFFSET,
                    transport.ORDER_RESULT, transport.SESSION_DONE])
                if op == "encrypt":
                    want[transport.CIPHER_UPLOAD] = 1
                assert counts == want
            assert not cluster.errors
        finally:
            cluster.close()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mode=st.sampled_from(["det", "fh"]), scheme=st.sampled_from(SCHEMES),
       data=st.lists(PLAIN, min_size=1, max_size=12), draw=st.data())
def test_owner_view_is_the_same_for_any_query(mode, scheme, data, draw):
    # over one table: any xbar, a hit or a miss, an encrypt or either
    # bound show the owner frames of the same types and lengths
    sessions = [(draw.draw(st.sampled_from(sorted(OPS))),
                 draw.draw(st.one_of(st.sampled_from(data), PLAIN)))
                for _ in range(2)]
    first, second = (role_view("do", mode, scheme, data, op, xbar)
                     for op, xbar in sessions)
    assert first == second


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mode=st.sampled_from(["det", "fh"]), scheme=st.sampled_from(SCHEMES),
       size=st.integers(0, 12), op=st.sampled_from(sorted(OPS)), xbar=PLAIN,
       draw=st.data())
def test_analyst_view_is_the_same_for_tables_of_one_size(mode, scheme, size,
                                                         op, xbar, draw):
    # only ORDER_RESULT's payload tells two tables of one size apart
    tables = [draw.draw(st.lists(PLAIN, min_size=size, max_size=size,
                                 unique=True)) for _ in range(2)]
    first, second = (role_view("da", mode, scheme, data, op, xbar)
                     for data in tables)
    assert first == second
