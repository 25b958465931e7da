"""OPE table state: order assignment, rebalance, set-up."""

import math
import os
import signal
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fh_gap_distribution, table_snapshot

from oope import engine, integrity, modexp, ope_state, paillier
from oope.errors import (CapacityError, ConfigurationError, DomainError,
                         GapExhausted, IntegrityError, UsageError)
from oope.ope_state import (OpeEntry, OpeTable, assign_order, init_state,
                            place, rebalance)
from oope.rng import make_rng

EXAMPLE_DATA = [32, 20, 25, 69, 10]
EXAMPLE_M = 28


@pytest.fixture(scope="module")
def keys():
    return paillier.keygen(128, rng=make_rng(99))


def example_state(keys):
    pk, _ = keys
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return init_state(EXAMPLE_DATA, EXAMPLE_M, pk, l=16,
                          rng=make_rng(1))


def test_assign_order_formula():
    assert assign_order(0, 28) == 14
    assert assign_order(4, 7) == 6
    assert assign_order(14, 28) == 21
    with pytest.raises(GapExhausted):
        assign_order(7, 8)
    with pytest.raises(UsageError):
        assign_order(9, 9)


def test_assign_order_stays_inside_interval():
    rng = make_rng(3)
    for _ in range(500):
        a = rng.randrange(0, 1000)
        b = a + rng.randrange(2, 1000)
        y = assign_order(a, b)
        assert a < y < b


def test_example_insertion_orders(keys):
    owner, table = example_state(keys)
    want = {32: 14, 20: 7, 25: 11, 69: 21, 10: 4}
    assert dict(owner.pairs) == want
    assert table.orders() == [4, 7, 11, 14, 21]
    assert table.height == 3


def test_height_is_balanced_depth(keys):
    pk, _ = keys
    table = OpeTable(1 << 20, key_id=pk.key_id)
    c = paillier.encrypt(pk, 1, make_rng(1))
    for n in range(70):
        assert table.height == math.ceil(math.log2(n + 1))
        table.insert(OpeEntry(c, n + 1))


def test_singleton_dataset(keys):
    pk, _ = keys
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        owner, table = init_state([5], EXAMPLE_M, pk, l=16, rng=make_rng(2))
    assert table.orders() == [14]
    assert table.height == 1


def test_init_sorted_by_order_matches_sorted_by_plaintext(keys):
    pk, sk = keys
    rng = make_rng(5)
    data = [rng.randrange(1 << 16) for _ in range(1000)]
    owner, table = init_state(data, (1 << 40) - 3, pk, l=16, rng=rng)
    plain = [paillier.decrypt(sk, e.cipher) for e in table.entries()]
    assert plain == sorted(set(data))
    assert table.height == len(table).bit_length()
    # order preservation with key access
    orders = table.orders()
    for i in range(len(orders) - 1):
        assert plain[i] <= plain[i + 1]


def test_init_rejects_small_m(keys):
    pk, _ = keys
    with pytest.raises(ConfigurationError):
        init_state(list(range(40)), 30, pk, l=16, rng=make_rng(1))


def test_init_warns_on_power_of_two_m(keys):
    pk, _ = keys
    with pytest.warns(UserWarning):
        init_state([1, 2], 32, pk, l=16, rng=make_rng(1))


def test_gap_examples(keys):
    _, table = example_state(keys)  # orders [4, 7, 11, 14, 21], M=28
    assert table.gap(0) == (0, 4)
    assert table.gap(5) == (21, 28)
    assert table.gap(2) == (7, 11)
    assert table.gap(3) == (11, 14)
    assert OpeTable(28).gap(0) == (0, 28)


def table_on(keys, m, orders):
    pk, _ = keys
    table = OpeTable(m, key_id=pk.key_id)
    for i, y in enumerate(orders):
        table.insert(OpeEntry(paillier.encrypt(pk, i, make_rng(i)), y))
    return table


def test_place_takes_the_midpoint_of_its_gap(keys):
    _, table = example_state(keys)  # orders [4, 7, 11, 14, 21], M=28
    before = table_snapshot(table)
    assert place(table, 2) == (9, None)
    assert place(table, 5) == (25, None)
    assert table_snapshot(table) == before


def test_place_rebalances_a_unit_gap_once(keys, monkeypatch):
    table = table_on(keys, 28, [4, 5, 21])
    before = table_snapshot(table)
    calls = []
    monkeypatch.setattr(ope_state, "rebalance",
                        lambda t: calls.append(1) or rebalance(t))
    # (4, 5) is a unit gap; the respread would put the entries on 7, 14,
    # 21, and the new one goes between the first two
    assert place(table, 1) == (11, {4: 7, 5: 14, 21: 21})
    assert calls == [1]
    assert table_snapshot(table) == before


def test_place_without_room_restores_the_table(keys):
    # three entries respread over M=6 sit on 2, 3, 5: (2, 3) is still a
    # unit gap, and the table stays on 1, 2, 4
    table = table_on(keys, 6, [1, 2, 4])
    before = table_snapshot(table)
    with pytest.raises(CapacityError, match="too dense"):
        place(table, 1)
    assert table_snapshot(table) == before


def test_rebalance_single_entry(keys):
    table = table_on(keys, 28, [3])
    before = table_snapshot(table)
    assert rebalance(table) == {3: 14}
    assert table_snapshot(table) == before


def test_rebalance_preserves_rank(keys):
    pk, sk = keys
    _, table = example_state(keys)
    before = [(paillier.decrypt(sk, e.cipher), e.order) for e in table.entries()]
    snapshot = table_snapshot(table)
    remap = rebalance(table)
    assert table_snapshot(table) == snapshot
    table.reassign_orders(remap)
    after = [(paillier.decrypt(sk, e.cipher), e.order) for e in table.entries()]
    assert [x for x, _ in before] == [x for x, _ in after]
    orders = [y for _, y in after]
    assert orders == sorted(orders)
    assert all(1 <= y <= table.m - 1 for y in orders)
    assert [remap[y] for _, y in before] == orders


def test_rebalance_capacity_error(keys):
    table = table_on(keys, 6, [1, 2, 3, 4, 5])
    with pytest.raises(CapacityError):
        rebalance(table)


def test_init_unit_gap_after_respread_raises_capacity_error(keys):
    pk, _ = keys
    # 0 takes order 2 of M=3, 1 finds a unit gap above it, and the
    # respread puts 0 back on 2

    def hung(signum, frame):
        raise TimeoutError("init_state did not return")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(CapacityError):
            init_state([0, 1], 3, pk, l=8)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_no_rebalance_for_uniform_inputs_with_large_m(keys):
    # M > 2^(6.4 log2 n) makes rebalancing vanishingly unlikely
    pk, _ = keys
    rng = make_rng(11)
    n = 100
    m = (1 << 43) - 3
    data = [rng.randrange(1 << 32) for _ in range(n)]
    calls = []
    orig = ope_state.assign_order

    def counting(y_l, y_r):
        try:
            return orig(y_l, y_r)
        except GapExhausted:
            calls.append(1)
            raise

    ope_state.assign_order = counting
    try:
        init_state(data, m, pk, l=32, rng=rng)
    finally:
        ope_state.assign_order = orig
    assert not calls


def test_fh_init_duplicates_get_distinct_orders(keys):
    pk, sk = keys
    rng = make_rng(13)
    data = [7, 7, 7, 3, 3, 9]
    owner, table = init_state(data, (1 << 20) - 3, pk, l=16, mode="fh",
                              rng=rng)
    assert len(table) == 6
    orders = table.orders()
    assert len(set(orders)) == 6
    plain = [paillier.decrypt(sk, e.cipher) for e in table.entries()]
    assert plain == sorted(data)
    # every occurrence is present in the owner's pairs
    assert sorted(x for x, _ in owner.pairs) == sorted(data)


# Pearson's chi-square at its 0.1% point with 5 degrees of freedom
CHI2_999_5 = 20.515


def test_fh_setup_places_a_copy_by_the_session_rule(keys):
    # set-up puts the last copy of [7] * 6 into a gap of the first five
    # as a session's search would: 1/8, 1/8, 1/4, 1/8, 1/8, 1/4 in gaps
    # 0 to 5 (fh_gap_distribution), where a uniform pick gives 1/6 each
    pk, _ = keys
    samples = 480
    want = fh_gap_distribution([7] * 5, 7)
    rng = make_rng(71)
    gaps = Counter()
    for _ in range(samples):
        owner, _ = init_state([7] * 6, (1 << 20) - 3, pk, l=16, mode="fh",
                              rng=rng)
        *first, (_, last) = owner.pairs
        gaps[sum(y < last for _, y in first)] += 1
    assert set(gaps) <= set(want)
    chi2 = sum((gaps[g] - samples * p) ** 2 / (samples * p)
               for g, p in want.items())
    assert chi2 < CHI2_999_5, gaps


@pytest.mark.parametrize("mode,tagged", [("det", False), ("fh", False),
                                         ("det", True)])
def test_setup_fan_out_matches_serial(keys, monkeypatch, mode, tagged):
    pk, sk = keys
    data = [make_rng(3).randrange(1 << 16) for _ in range(40)] + [7, 7, 7]
    mac_params = integrity.gen_mac_params(256, 64, rng=make_rng(5)) \
        if tagged else None

    encrypt = paillier.encrypt
    threads = set()

    def recording_encrypt(*args, **kwargs):
        threads.add(threading.get_ident())
        return encrypt(*args, **kwargs)

    monkeypatch.setattr(paillier, "encrypt", recording_encrypt)

    def table_of(cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        threads.clear()
        rng = make_rng(17)
        tagger = engine.make_node_tagger(engine.ProtocolParams(
            integrity=integrity.SCHEME_PEDERSEN, mac_subgroup_bits=64),
            mac_params, pk, rng) if tagged else None
        _, table = init_state(data, (1 << 20) - 3, pk, l=16, mode=mode,
                              rng=rng, tagger=tagger)
        return table_snapshot(table)

    serial = table_of(1)
    assert threads == {threading.get_ident()}
    assert table_of(3) == serial
    assert len(threads) > 1
    assert table_of(None) == serial
    assert table_of(64) == serial
    assert sorted(paillier.decrypt(sk, cipher)
                  for _, cipher, _, _ in serial[2]) == sorted(
        data if mode == "fh" else set(data))


def test_setup_derives_h_n_once_on_the_calling_thread(monkeypatch):
    # a key no object has used yet has no table; set-up builds it once,
    # on the calling thread, before any worker's encryption reads it.
    # A 1024-bit key's N^2 is large enough for the comb.
    pk, sk = paillier.keygen(1024, rng=make_rng(1024))
    fresh = paillier.parse_public_key(paillier.serialize_public_key(pk))
    events = []

    class RecordingFixedBase(modexp.FixedBase):
        def __init__(self, base, mod, bits):
            events.append(("build", threading.get_ident(), base == pow(
                fresh.h, fresh.n, fresh.n_sq) and mod == fresh.n_sq))
            super().__init__(base, mod, bits)

        def pow(self, e):
            events.append(("pow", threading.get_ident(), None))
            return super().pow(e)

    monkeypatch.setattr(paillier, "FixedBase", RecordingFixedBase)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _, table = init_state(range(0, 60, 3), (1 << 20) - 3, fresh, l=16,
                          rng=make_rng(4))
    assert events[0] == ("build", threading.get_ident(), True)
    assert all(kind == "pow" for kind, _, _ in events[1:])
    assert len(events) == 1 + 20 and len({t for _, t, _ in events[1:]}) > 1
    assert isinstance(fresh.h_n, RecordingFixedBase)
    assert (fresh.h_n._table is not None) == (modexp._sec is not None)
    assert [paillier.decrypt(sk, e.cipher) for e in table.entries()] == \
        list(range(0, 60, 3))
    # every key object with this key_id shares that one table
    again = paillier.parse_public_key(paillier.serialize_public_key(pk))
    assert again is not fresh and again.h_n is fresh.h_n is pk.h_n
    assert len(events) == 1 + 20


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.integers(3, 48))
def test_table_invariants_hold_against_a_sorted_list_model(data, m):
    # a small M makes unit gaps, rebalances and full tables common
    table = OpeTable(m, key_id=bytes(range(32)))
    model = {}  # order -> (cipher, tag, node tag)
    blobs = st.none() | st.binary(min_size=16, max_size=16)

    def gap(orders, i):
        return (orders[i - 1] if i else 0,
                orders[i] if i < len(orders) else m)

    def new_entry(order):
        entry = OpeEntry(data.draw(st.integers(0, (1 << 128) - 1)), order,
                         data.draw(blobs), data.draw(blobs))
        model[order] = (entry.cipher, entry.tag, entry.node_tag)
        return entry

    for _ in range(data.draw(st.integers(0, 30))):
        orders = sorted(model)
        op = data.draw(st.sampled_from(["insert", "remove", "place"]))
        if op == "insert" and len(orders) < m - 1:
            order = data.draw(st.integers(1, m - 1).filter(
                lambda o: o not in model))
            table.insert(new_entry(order))
        elif op == "remove" and orders:
            order = data.draw(st.sampled_from(orders))
            assert table.remove(order).cipher == model.pop(order)[0]
        elif op == "place":
            index = data.draw(st.integers(0, len(orders)))
            try:
                order, remap = place(table, index)
            except CapacityError:
                continue
            if remap is not None:
                table.reassign_orders(remap)
                model = {remap[o]: v for o, v in model.items()}
                orders = sorted(model)
            left, right = gap(orders, index)
            assert left < order < right
            table.insert(new_entry(order))

        orders = sorted(model)
        assert table.orders() == orders and len(table) == len(orders)
        assert all(a < b for a, b in zip(orders, orders[1:]))
        for i, o in enumerate(orders):
            entry = table.entry_at(i)
            assert entry.order == o and table.get(o) is entry
            assert (entry.cipher, entry.tag, entry.node_tag) == model[o]
        for i in range(len(orders) + 1):
            assert table.gap(i) == gap(orders, i)
        for o in [o for o in range(m + 1) if o not in model][:2]:
            with pytest.raises(UsageError, match="not present"):
                table.get(o)
        for o in orders[:1]:
            with pytest.raises(IntegrityError, match="collision"):
                table.insert(OpeEntry(0, o))
        for o in (0, m):
            with pytest.raises(DomainError):
                table.insert(OpeEntry(0, o))
