"""The privacy contract and the round's shape, seen from each role:
what the owner and the analyst see depends on nothing they must not
learn, the server sees one bit per table node and frames that depend on
no query, and a round costs three one-way flights."""

from collections import Counter, defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import Mope2Oracle

import views
from oope import garbling, integrity, transport
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
def test_a_round_is_three_flights(mode, scheme):
    # node, garbled circuit with the OT reply, the analyst's SHARES: the
    # first round adds the offsets and the session's OT batch, which
    # holds every round's choices, the session adds SESSION_START and
    # ORDER_RESULT, its last frame, and a round that refills the owner's
    # garbled pool adds the owner's SHARES: 3h + 4 frames, plus one per
    # refill.  Pedersen adds one frame per round, the node's commitment
    # in INTEGRITY_TAG, since its opening rides in GC_PAYLOAD.  Twelve
    # sessions of five rounds or more cross a batch boundary inside a
    # session
    data = list(range(100, 2100, 100))
    pedersen = scheme == integrity.SCHEME_PEDERSEN
    with views.tap() as tap:
        cluster, ctx = build(mode, scheme, data)
        oracle = Mope2Oracle(cluster.da.params.m).load(data)
        rounds, inside = 0, False
        try:
            for op, xbar in (("encrypt", 1050), ("bound-low", 1050),
                             ("bound-high", 1050), ("encrypt", 700)) * 3:
                h = ctx["table"].height
                assert h >= 2
                ybar = OPS[op](cluster, xbar)
                if op == "encrypt" and mode == "det":
                    assert ybar == oracle.encrypt(xbar)
                sid = [f.session_id for f, _ in tap.sent
                       if f.ftype == transport.SESSION_START][-1]
                last = max(s for f, s in tap.sent if f.session_id == sid)
                assert last == tap.stamp(transport.ORDER_RESULT, sid)
                flights = last - tap.stamp(transport.SESSION_START, sid)
                assert flights <= 3 * h + 3, (op, h, flights)
                counts = Counter(f.ftype for f in tap.session_frames(sid))
                # one extension batch per session, and no OT frame after
                assert counts.pop(transport.OT_MSG) == 1
                per_round = [transport.RANDOMIZED_NODE, transport.GC_PAYLOAD,
                             transport.SHARES]
                if pedersen:
                    per_round.append(transport.INTEGRITY_TAG)
                refills = [r for r in range(rounds, rounds + h)
                           if r % garbling.BATCH == 0]
                inside |= any(r > rounds for r in refills)
                rounds += h
                want = Counter(per_round * h + [transport.SHARES] *
                               len(refills) + [
                    transport.SESSION_START, transport.RANDOM_OFFSET,
                    transport.ORDER_RESULT])
                assert counts == want
            assert rounds > garbling.BATCH and inside
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


@pytest.mark.parametrize("mode", ["det", "fh"])
@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.lists(PLAIN, min_size=1, max_size=12),
       op=st.sampled_from(sorted(OPS)), draw=st.data())
def test_server_view_is_the_same_for_any_query(mode, scheme, data, op, draw):
    # over one table and one op: any two xbar, hits or misses, show the
    # server frames of the same types and lengths, the analyst's output
    # labels and the owner's decode hashes among them
    first, second = (role_view("csp", mode, scheme, data, op,
                               draw.draw(st.one_of(st.sampled_from(data),
                                                   PLAIN)))
                     for _ in range(2))
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


def stop_round(n, bits):
    """The index of the round at which the server's search over n
    entries stops, given each round's (b_e, side)."""
    lo, hi = 0, n
    for rnd, (b_e, side) in enumerate(bits):
        mid = (lo + hi) // 2
        if b_e and side and mid + 1 < hi:
            lo = mid + 1
        elif b_e and not side and lo < mid:
            hi = mid
        else:
            return rnd


def stop_tails(mode, data, queries):
    """The server's bits of each encrypt of queries over data, split at
    the round where its search stops: the set of tails seen after each
    head.  Each encrypt's insert is cleaned up again."""
    cluster, ctx = build(mode, integrity.SCHEME_OFF, data)
    table = ctx["table"]
    real = cluster.csp._shares
    tails = defaultdict(set)
    try:
        for xbar in queries:
            n, bits = len(table), []
            cluster.csp._shares = lambda *args: bits.append(real(*args)) \
                or bits[-1]
            cluster.da.encrypt(xbar)
            cluster.da.cleanup()
            assert len(table) == n
            bits = [b for b, _ in bits]  # without the upload's fields
            stop = stop_round(n, bits) + 1
            tails[tuple(bits[:stop])].add(tuple(bits[stop:]))
        assert not cluster.errors
    finally:
        cluster.close()
    return tails


TOP = (1 << 16) - 1  # the largest plaintext at l = 16


def test_rounds_after_the_stop_show_the_server_nothing():
    # the bits of the rounds after a stop must follow from those before
    # it alike for every xbar.  Over [3, 7, 7, 7, 12] an fh copy of 7
    # stops at node 1, a 7, in round 2 when its coins are 0 then 1, with
    # round 3 to go: a replay of an equal stop node tossed a fresh coin,
    # where an unequal one (13 stops at node 4 in round 2) repeats its
    # bit.  The sentinel 2^l lies furthest from xbar = 0, 2^l apart,
    # which only l + 2 comparator bits tell from equal; an fh search for
    # 0 stops early over copies of 0 whose coins lead it right, and a det
    # search for 0 never does, index 0 being the last round's node.  Over
    # det's [3, 7, 12, 20] a 7 and TOP stop in round 2 of 3
    cases = [("fh", [3, 7, 7, 7, 12], [7] * 40 + [13, 5, 12, 0, TOP]),
             ("fh", [0] * 5, [0] * 30),
             ("det", [3, 7, 7, 7, 12, 20], [7, 3, 12, 13, 20, 5, 0, TOP])]
    for mode, data, queries in cases:
        tails = stop_tails(mode, data, queries)
        assert all(len(tail) == 1 for tail in tails.values()), tails
        # the sentinel's bits, xbar < 2^l, in every round after a stop
        assert {bit for tail, in tails.values() for bit in tail} == {(1, 0)}
        if data == [3, 7, 7, 7, 12]:
            assert {((1, 0), (1, 1)), ((1, 1), (1, 1))} <= set(tails)
        # every case has rounds after a stop, and over [0] * 5 they
        # compare the sentinel with 0
        assert any(tail for tail, in tails.values())
