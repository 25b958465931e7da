"""Row store, range queries, analyst-entry cleanup."""

import pytest
from oracles import table_snapshot

from oope import datastore, ope_state, paillier
from oope.datastore import (EncryptedRow, RangeQuery, RowStore, exec_range,
                            interval_from_predicate, merge_intervals)
from oope.errors import DomainError, KeyMismatchError
from oope.rng import make_rng


@pytest.fixture(scope="module")
def keys():
    return paillier.keygen(128, rng=make_rng(5))


EXAMPLE_X1 = [32, 20, 25, 69, 10]


def column_store(values, m, pk, rng):
    """The table of column X1 over values, and a row store with one row
    per value, in dataset order: a public id r<i> and the order set-up
    assigned the value, from the owner's pairs."""
    owner, table = ope_state.init_state(values, m, pk, l=16, rng=rng)
    store = RowStore(public_columns=["id"], ope_columns=["X1"],
                     rows=[EncryptedRow(i, {"id": f"r{i}"}, {"X1": y})
                           for i, (_, y) in enumerate(owner.pairs)])
    return table, store


def example_store(keys):
    pk, _ = keys
    return column_store(EXAMPLE_X1, 28, pk, make_rng(1))


def test_exec_range_example(keys):
    _, store = example_store(keys)
    assert {row.public["id"]: row.orders["X1"] for row in store.rows} == \
        {"r0": 14, "r1": 7, "r2": 11, "r3": 21, "r4": 4}
    # X1 < 32, bound order 14
    q = RangeQuery(bounds={"X1": interval_from_predicate("<", 14)})
    assert exec_range(store, q) == 3
    # full order range
    q = RangeQuery(bounds={"X1": (1, 27, True, True)})
    assert exec_range(store, q) == 5
    # projection
    q = RangeQuery(bounds={"X1": interval_from_predicate("<", 14)},
                   projection=["id"])
    assert sorted(r["id"] for r in exec_range(store, q)) == ["r1", "r2", "r4"]
    # inverted bounds: empty result, not an error
    q = RangeQuery(bounds={"X1": (20, 10, True, True)})
    assert exec_range(store, q) == 0
    with pytest.raises(DomainError):
        exec_range(store, RangeQuery(bounds={"nope": (None, 5, False, False)}))


def test_exec_range_matches_plaintext_oracle(keys):
    pk, sk = keys
    rng = make_rng(11)
    xs = [rng.randrange(100) for _ in range(300)]
    table, store = column_store(xs, (1 << 30) - 9, pk, rng)
    # every row's order decrypts, through the table, to its plaintext
    assert [paillier.decrypt(sk, table.get(row.orders["X1"]).cipher)
            for row in store.rows] == xs
    order_of = {paillier.decrypt(sk, e.cipher): e.order
                for e in table.entries()}
    for bound in (0, 1, 17, 50, 99):
        if bound not in order_of:
            continue
        y = order_of[bound]
        got = exec_range(store, RangeQuery(
            bounds={"X1": interval_from_predicate("<", y)}))
        assert got == sum(1 for x in xs if x < bound)
        got = exec_range(store, RangeQuery(
            bounds={"X1": interval_from_predicate("<=", y)}))
        assert got == sum(1 for x in xs if x <= bound)
        got = exec_range(store, RangeQuery(
            bounds={"X1": interval_from_predicate(">", y)}))
        assert got == sum(1 for x in xs if x > bound)


def test_merge_intervals():
    a = interval_from_predicate(">", 5)
    b = interval_from_predicate("<", 20)
    merged = merge_intervals(a, b)
    assert merged == (5, 20, False, False)
    tighter = merge_intervals(merged, interval_from_predicate("<=", 15))
    assert tighter == (5, 15, False, True)


def test_fh_interval_rewrite():
    # bound plaintext has min order 10, max order 14
    assert interval_from_predicate("<", (10, 14), fh=True) == \
        (None, 10, False, False)
    assert interval_from_predicate("<=", (10, 14), fh=True) == \
        (None, 14, False, True)
    assert interval_from_predicate(">", (10, 14), fh=True) == \
        (14, None, False, False)
    assert interval_from_predicate(">=", (10, 14), fh=True) == \
        (10, None, True, False)


def test_cleanup_restores_table_bytes(keys):
    pk, _ = keys
    table, _ = example_store(keys)
    before = table_snapshot(table)
    sid = b"s" * 16
    entry = ope_state.OpeEntry(paillier.encrypt(pk, 15, make_rng(3)), 6,
                               tag=sid)
    table.insert(entry)
    assert table_snapshot(table) != before
    removed = datastore.cleanup_da_entries([table], [sid])
    assert removed == 1
    assert table_snapshot(table) == before


def test_cleanup_unknown_session_removes_nothing(keys):
    # an id that no table holds is counted out, not reported: the
    # server runs this on its serve thread, where a warning under a
    # warnings-as-errors filter would end the thread
    table, _ = example_store(keys)
    before = table_snapshot(table)
    assert datastore.cleanup_da_entries([table], [b"z" * 16]) == 0
    assert table_snapshot(table) == before


def test_cleanup_all_tagged(keys):
    pk, _ = keys
    table, _ = example_store(keys)
    for i, order in enumerate((6, 13)):
        table.insert(ope_state.OpeEntry(paillier.encrypt(pk, 1, make_rng(i)),
                                        order, tag=bytes([i]) * 16))
    assert datastore.cleanup_da_entries([table]) == 2
    assert table.orders() == [4, 7, 11, 14, 21]


def test_table_under_another_key_refused(keys):
    pk, _ = keys
    other, _ = paillier.keygen(128, rng=make_rng(6))
    table, _ = example_store(keys)
    _, other_table = ope_state.init_state([1, 2], 28, other, l=16,
                                          rng=make_rng(7))
    ope_state.check_key({"X1": table}, pk)
    with pytest.raises(KeyMismatchError, match="'Y'"):
        ope_state.check_key({"X1": table, "Y": other_table}, pk)


def test_public_key_copies_share_h_n(keys):
    # h travels in the key, so the analyst's parsed key encrypts
    # byte-equal ciphertexts from equally seeded rngs
    pk, _ = keys
    parsed = paillier.parse_public_key(paillier.serialize_public_key(pk))
    assert parsed is not pk
    assert parsed.h == pk.h and parsed.h_n.base == pk.h_n.base
    for m in (0, 7, pk.n - 1):
        ciphers = {paillier.encrypt(key, m, make_rng(m))
                   for key in (pk, parsed)}
        assert len(ciphers) == 1
