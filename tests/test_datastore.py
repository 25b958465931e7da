"""Ingestion, row store, range queries, analyst-entry cleanup."""

import json
import shutil
import warnings

import pytest

from oope import datastore, engine, integrity, ope_state, paillier
from oope.datastore import RangeQuery, exec_range, ingest, \
    interval_from_predicate, merge_intervals
from oope.engine import ProtocolParams
from oope.errors import (ConfigurationError, DomainError, IntegrityError,
                         KeyMismatchError)
from oope.rng import make_rng
from oope.wire import seal


@pytest.fixture(scope="module")
def keys():
    return paillier.keygen(128, rng=make_rng(5), allow_small=True)


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


EXAMPLE_CSV = "id,X1\nr0,32\nr1,20\nr2,25\nr3,69\nr4,10\n"


def ingest_example(tmp_path, keys, **kw):
    pk, _ = keys
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ingest(write_csv(tmp_path, EXAMPLE_CSV), ["X1"], 28, pk, l=16,
                      rng=make_rng(1), **kw)


def test_ingest_example_orders(tmp_path, keys):
    result = ingest_example(tmp_path, keys)
    got = {row.public["id"]: row.orders["X1"] for row in result.rows.rows}
    assert got == {"r0": 14, "r1": 7, "r2": 11, "r3": 21, "r4": 4}
    assert result.tables["X1"].orders() == [4, 7, 11, 14, 21]


def test_ingest_empty_file(tmp_path, keys):
    pk, _ = keys
    result = ingest(write_csv(tmp_path, ""), ["X1"], 28, pk, l=16,
                    rng=make_rng(1))
    assert result.rows.rows == [] and result.tables == {}


def test_ingest_header_only(tmp_path, keys):
    pk, _ = keys
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = ingest(write_csv(tmp_path, "id,X1\n"), ["X1"], 28, pk, l=16,
                        rng=make_rng(1))
    assert result.rows.rows == []
    assert len(result.tables["X1"]) == 0


def test_ingest_rejects_bad_values(tmp_path, keys):
    pk, _ = keys
    with pytest.raises(DomainError, match="not an integer"):
        ingest(write_csv(tmp_path, "X1\nfoo\n"), ["X1"], 28, pk, l=16)
    with pytest.raises(DomainError, match="exceeds"):
        ingest(write_csv(tmp_path, "X1\n70000\n"), ["X1"], 28, pk, l=16)
    with pytest.raises(DomainError, match="duplicate"):
        ingest(write_csv(tmp_path, "X1,X1\n1,2\n"), ["X1"], 28, pk, l=16)


def test_ingest_random_matches_sort_oracle(tmp_path, keys):
    pk, sk = keys
    rng = make_rng(9)
    rows = ["v,X1"] + [f"p{i},{rng.randrange(1 << 16)}" for i in range(2000)]
    path = write_csv(tmp_path, "\n".join(rows) + "\n")
    result = ingest(path, ["X1"], (1 << 40) - 9, pk, l=16, rng=rng)
    assert len(result.rows.rows) == 2000
    plain = [paillier.decrypt(sk, e.cipher)
             for e in result.tables["X1"].entries()]
    assert plain == sorted(plain)
    # row orders are consistent with the plaintexts
    owner = dict(result.owners["X1"].pairs)
    for row, line in zip(result.rows.rows, rows[1:]):
        x = int(line.split(",")[1])
        assert row.orders["X1"] == owner[x]


def test_exec_range_example(tmp_path, keys):
    result = ingest_example(tmp_path, keys)
    store = result.rows
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


def test_exec_range_matches_plaintext_oracle(tmp_path, keys):
    pk, _ = keys
    rng = make_rng(11)
    xs = [rng.randrange(100) for _ in range(300)]
    text = "X1\n" + "".join(f"{x}\n" for x in xs)
    result = ingest(write_csv(tmp_path, text), ["X1"], (1 << 30) - 9, pk,
                    l=16, rng=rng)
    owner = dict(result.owners["X1"].pairs)
    for bound in (0, 1, 17, 50, 99):
        if bound not in owner:
            continue
        y = owner[bound]
        got = exec_range(result.rows, RangeQuery(
            bounds={"X1": interval_from_predicate("<", y)}))
        assert got == sum(1 for x in xs if x < bound)
        got = exec_range(result.rows, RangeQuery(
            bounds={"X1": interval_from_predicate("<=", y)}))
        assert got == sum(1 for x in xs if x <= bound)
        got = exec_range(result.rows, RangeQuery(
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


def test_cleanup_restores_table_bytes(tmp_path, keys):
    pk, _ = keys
    result = ingest_example(tmp_path, keys)
    table = result.tables["X1"]
    before = ope_state.serialize_table(table)
    sid = b"s" * 16
    entry = ope_state.OpeEntry(paillier.encrypt(pk, 15, make_rng(3)), 6,
                               tag=sid)
    table.insert(entry)
    assert ope_state.serialize_table(table) != before
    removed = datastore.cleanup_da_entries(table, [sid])
    assert removed == 1
    assert ope_state.serialize_table(table) == before


def test_cleanup_unknown_session_warns(tmp_path, keys):
    result = ingest_example(tmp_path, keys)
    with pytest.warns(UserWarning):
        removed = datastore.cleanup_da_entries(result.tables["X1"],
                                               [b"z" * 16])
    assert removed == 0


def test_cleanup_all_tagged(tmp_path, keys):
    pk, _ = keys
    result = ingest_example(tmp_path, keys)
    table = result.tables["X1"]
    for i, order in enumerate((6, 13)):
        table.insert(ope_state.OpeEntry(paillier.encrypt(pk, 1, make_rng(i)),
                                        order, tag=bytes([i]) * 16))
    assert datastore.cleanup_da_entries(table) == 2
    assert table.orders() == [4, 7, 11, 14, 21]


def test_state_dir_roundtrip(tmp_path, keys):
    pk, sk = keys
    result = ingest_example(tmp_path, keys)
    params = ProtocolParams(l=16, k=16, m=28, key_bits=pk.key_bits)
    csp_dir = tmp_path / "csp"
    do_dir = tmp_path / "do"
    datastore.save_csp_state(csp_dir, params, pk, result.tables, result.rows)
    datastore.save_do_state(do_dir, params, sk, result.owners)
    params2, pk2, tables2, rows2 = datastore.load_csp_state(csp_dir)
    assert params2 == params and pk2 == pk
    assert tables2["X1"].orders() == result.tables["X1"].orders()
    assert len(rows2.rows) == 5
    params3, sk2, owners2, mac2 = datastore.load_do_state(do_dir)
    assert params3 == params
    assert owners2["X1"].pairs == result.owners["X1"].pairs
    assert mac2 is None
    c = paillier.encrypt(pk, 7, make_rng(2))
    assert paillier.decrypt(sk2, c) == 7


def test_table_under_another_key_refused(tmp_path, keys):
    pk, _ = keys
    result = ingest_example(tmp_path, keys)
    other, _ = paillier.keygen(128, rng=make_rng(6), allow_small=True)
    params = ProtocolParams(l=16, k=16, m=28, key_bits=pk.key_bits)
    datastore.save_csp_state(tmp_path, params, pk, result.tables, result.rows)
    datastore.load_csp_state(tmp_path)
    _, table = ope_state.init_state([1, 2], 28, other, l=16, rng=make_rng(7))
    (tmp_path / "table_Y.bin").write_bytes(ope_state.serialize_table(table))
    with pytest.raises(KeyMismatchError, match="'Y'"):
        datastore.load_csp_state(tmp_path)


def test_public_key_copies_share_h_n(state_dirs, keys):
    # h^N depends on N alone, so the analyst's parsed key and a restored
    # server encrypt byte-equal ciphertexts from equally seeded rngs
    pk, _ = keys
    parsed, _ = paillier.parse_public_key(paillier.serialize_public_key(pk))
    _, restored, _, _ = datastore.load_csp_state(state_dirs / "csp")
    assert parsed is not pk and restored is not pk
    assert parsed.h_n == restored.h_n == pk.h_n
    for m in (0, 7, pk.n - 1):
        records = {paillier.cipher_record(paillier.encrypt(key, m, make_rng(m)),
                                          pk.key_bits)
                   for key in (pk, parsed, restored)}
        assert len(records) == 1


# --- sealed state files ------------------------------------------------------

# file kind -> (state directory, file name)
STATE_FILES = {
    "table-det": ("csp", "table_det.bin"),
    "table-fh": ("csp", "table_fh.bin"),
    "table-tagged": ("csp", "table_tagged.bin"),
    "rows": ("csp", "rows.bin"),
    "pk": ("csp", "pk.bin"),
    "owner": ("do", "owner_X1.bin"),
    "key": ("do", "key.bin"),
    "macparams": ("do", "macparams.bin"),
}
SAVE_LOAD = {"csp": (datastore.save_csp_state, datastore.load_csp_state),
             "do": (datastore.save_do_state, datastore.load_do_state)}


@pytest.fixture(scope="module")
def state_dirs(tmp_path_factory, keys):
    """A server and an owner directory holding every file kind."""
    pk, sk = keys
    root = tmp_path_factory.mktemp("state")
    rng = make_rng(11)
    result = ingest_example(root, keys)
    mac_params = integrity.gen_mac_params(256, 64, rng=rng)
    tagger = engine.make_node_tagger(integrity.SCHEME_PEDERSEN, mac_params,
                                     pk, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, fh = ope_state.init_state([3, 5, 5, 5, 9], 64, pk, l=16,
                                     mode=ope_state.MODE_FH, rng=rng)
        _, tagged = ope_state.init_state([3, 5, 9], 64, pk, l=16, rng=rng,
                                         tagger=tagger)
    tagged.insert(ope_state.OpeEntry(paillier.encrypt(pk, 7, rng), 40,
                                     tag=b"s" * 16, node_tag=tagger(7)))
    tables = {"det": result.tables["X1"], "fh": fh, "tagged": tagged}
    params = ProtocolParams(l=16, k=16, m=28, key_bits=pk.key_bits)
    datastore.save_csp_state(root / "csp", params, pk, tables, result.rows)
    datastore.save_do_state(root / "do", params, sk, result.owners,
                            mac_params)
    return root


@pytest.mark.parametrize("side", sorted(SAVE_LOAD))
@pytest.mark.parametrize("edit, match", [
    ({"uid_upload": False}, "unknown fields"),
    ({"integrity": "dlmac"}, "integrity scheme"),
])
def test_state_dir_with_retired_params_rejected(state_dirs, tmp_path, side,
                                                 edit, match):
    work = tmp_path / side
    shutil.copytree(state_dirs / side, work)
    spec = json.loads((work / "params.json").read_text())
    (work / "params.json").write_text(json.dumps(dict(spec, **edit)))
    with pytest.raises(ConfigurationError, match=match):
        SAVE_LOAD[side][1](work)


@pytest.mark.parametrize("kind", sorted(STATE_FILES))
def test_sealed_state_file(state_dirs, tmp_path, kind):
    side, name = STATE_FILES[kind]
    save, load = SAVE_LOAD[side]
    blob = (state_dirs / side / name).read_bytes()
    # serialize(parse(blob)) == blob: load the directory, save it again
    save(tmp_path / "again", *load(state_dirs / side))
    assert (tmp_path / "again" / name).read_bytes() == blob

    magic, version, body = blob[:4], int.from_bytes(blob[4:6], "big"), \
        blob[6:-32]
    assert seal(magic, version, body) == blob
    damaged = [blob[:i] + bytes([blob[i] ^ 1 << i % 8]) + blob[i + 1:]
               for i in range(len(blob))]
    damaged += [blob[:-1], blob[:len(blob) // 2], b"",
                seal(b"OPEX", version, body), seal(magic, version + 1, body)]
    work = tmp_path / side
    shutil.copytree(state_dirs / side, work)
    for bad in damaged:
        (work / name).write_bytes(bad)
        with pytest.raises(IntegrityError):
            load(work)
