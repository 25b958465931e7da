"""OPE table state: order assignment, rebalance, persistence."""

import math
import os
import signal
import threading

import pytest

from oope import engine, integrity, ope_state, paillier
from oope.errors import (CapacityError, ConfigurationError, GapExhausted,
                         ProtocolError, UsageError)
from oope.ope_state import (OpeEntry, OpeTable, assign_order, init_state,
                            place, rebalance)
from oope.rng import make_rng
from oope.wire import ORDER_BYTES, lp, seal, unseal

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
    table = OpeTable(1 << 20, key_bits=pk.key_bits, key_id=pk.key_id)
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
    table = OpeTable(m, key_bits=pk.key_bits, key_id=pk.key_id)
    for i, y in enumerate(orders):
        table.insert(OpeEntry(paillier.encrypt(pk, i, make_rng(i)), y))
    return table


def test_place_takes_the_midpoint_of_its_gap(keys):
    _, table = example_state(keys)  # orders [4, 7, 11, 14, 21], M=28
    before = ope_state.serialize_table(table)
    assert place(table, 2) == (9, None)
    assert place(table, 5) == (25, None)
    assert ope_state.serialize_table(table) == before


def test_place_rebalances_a_unit_gap_once(keys, monkeypatch):
    table = table_on(keys, 28, [4, 5, 21])
    before = ope_state.serialize_table(table)
    calls = []
    monkeypatch.setattr(ope_state, "rebalance",
                        lambda t: calls.append(1) or rebalance(t))
    # (4, 5) is a unit gap; the respread would put the entries on 7, 14,
    # 21, and the new one goes between the first two
    assert place(table, 1) == (11, {4: 7, 5: 14, 21: 21})
    assert calls == [1]
    assert ope_state.serialize_table(table) == before


def test_place_without_room_restores_the_table(keys):
    # three entries respread over M=6 sit on 2, 3, 5: (2, 3) is still a
    # unit gap, and the table stays on 1, 2, 4
    table = table_on(keys, 6, [1, 2, 4])
    before = ope_state.serialize_table(table)
    with pytest.raises(CapacityError, match="too dense"):
        place(table, 1)
    assert ope_state.serialize_table(table) == before


def test_rebalance_single_entry(keys):
    table = table_on(keys, 28, [3])
    before = ope_state.serialize_table(table)
    assert rebalance(table) == {3: 14}
    assert ope_state.serialize_table(table) == before


def test_rebalance_preserves_rank(keys):
    pk, sk = keys
    _, table = example_state(keys)
    before = [(paillier.decrypt(sk, e.cipher), e.order) for e in table.entries()]
    blob = ope_state.serialize_table(table)
    remap = rebalance(table)
    assert ope_state.serialize_table(table) == blob
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

    def table_bytes(cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        threads.clear()
        rng = make_rng(17)
        tagger = engine.make_node_tagger(integrity.SCHEME_PEDERSEN,
                                         mac_params, pk, rng) \
            if tagged else None
        _, table = init_state(data, (1 << 20) - 3, pk, l=16, mode=mode,
                              rng=rng, tagger=tagger)
        return ope_state.serialize_table(table)

    serial = table_bytes(1)
    assert threads == {threading.get_ident()}
    assert table_bytes(3) == serial
    assert len(threads) > 1
    assert table_bytes(None) == serial
    assert table_bytes(64) == serial
    table = ope_state.parse_table(serial)
    assert sorted(paillier.decrypt(sk, e.cipher)
                  for e in table.entries()) == sorted(
        data if mode == "fh" else set(data))


def test_setup_derives_h_n_once_on_the_calling_thread(keys, monkeypatch):
    # a freshly parsed key has no h^N yet; set-up computes it once, on
    # the calling thread, before any worker's encryption uses it
    pk, sk = keys
    fresh, _ = paillier.parse_public_key(paillier.serialize_public_key(pk))
    powmod = paillier.powmod
    calls = []

    def recording_powmod(base, exp, mod):
        calls.append((threading.get_ident(), base == fresh.h and
                      exp == fresh.n and mod == fresh.n_sq))
        return powmod(base, exp, mod)

    monkeypatch.setattr(paillier, "powmod", recording_powmod)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _, table = init_state(range(0, 60, 3), (1 << 20) - 3, fresh, l=16,
                          rng=make_rng(4))
    assert calls[0] == (threading.get_ident(), True)
    assert not any(is_h_n for _, is_h_n in calls[1:])
    assert len(calls) == 1 + 20 and len({t for t, _ in calls[1:]}) > 1
    assert [paillier.decrypt(sk, e.cipher) for e in table.entries()] == \
        list(range(0, 60, 3))


def test_table_file_with_a_cipher_record_of_another_width_refused(keys):
    # correctly sealed, but the first entry's record is one byte wider
    # than cipher_width: parse_table refuses it, so no residue that
    # serialize_table cannot write back enters a table
    _, table = example_state(keys)
    body = unseal(ope_state.serialize_table(table), ope_state.TABLE_MAGIC,
                  ope_state.TABLE_VERSION)
    start = 2 + 16 + 8 + 32 + ORDER_BYTES + 1  # header, order, flags
    end = start + 4 + paillier.cipher_width(table.key_bits)
    wide = body[:start] + lp(b"\0" + body[start + 4:end]) + body[end:]
    with pytest.raises(ProtocolError, match="cipher record"):
        ope_state.parse_table(seal(ope_state.TABLE_MAGIC,
                                   ope_state.TABLE_VERSION, wide))
