"""Server-side row storage, owner-side ingestion, range queries.

The owner ingests a CSV file: designated columns are order-encoded (one
OPE table per column), everything else stays public.  Rows keep only
order values for the encoded columns; the plaintexts never leave the
owner.  Range queries run on order comparisons alone, no decryption
anywhere.  Analyst-inserted table entries are tagged by session and can
be swept out again without touching the rows.
"""

import csv
import json
import os
import warnings
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from . import integrity, ope_state, paillier
from .engine import ProtocolParams
from .errors import ConfigurationError, DomainError
from .ope_state import MODE_DET, OpeTable
from .rng import make_rng
from .wire import (ORDER_BYTES, fixed_bytes, read_bytes, read_int, read_lp,
                   seal, u16, u32, unseal)

ROWS_MAGIC = b"OPER"
ROWS_VERSION = 1


@dataclass
class EncryptedRow:
    row_id: int
    public: dict
    orders: dict  # encoded column -> order value


@dataclass
class RowStore:
    public_columns: list
    ope_columns: list
    rows: list = field(default_factory=list)

    def apply_remap(self, column: str, remap: dict):
        for row in self.rows:
            row.orders[column] = remap.get(row.orders[column],
                                           row.orders[column])


@dataclass
class RangeQuery:
    """Conjunction of per-column order intervals; projection None = COUNT."""

    bounds: dict  # column -> (lo, hi, lo_incl, hi_incl); None end = open
    projection: Optional[list] = None


def interval_from_predicate(op: str, order_or_pair, fh: bool = False):
    """Translate one comparison against an encrypted bound into an
    order interval.

    Deterministic mode gets a single order; frequency-hiding mode gets
    the pair (engine.DaEngine.bound(b, BOUND_LOW), bound(b, BOUND_HIGH)),
    since < b must cut below every copy of b and <= b must reach above
    all of them; for an absent b the pair is the orders around its gap.
    """
    if fh:
        cmin, cmax = order_or_pair
    else:
        cmin = cmax = order_or_pair
    if op == "<":
        return (None, cmin, False, False)
    if op == "<=":
        return (None, cmax, False, True)
    if op == ">":
        return (cmax, None, False, False)
    if op == ">=":
        return (cmin, None, True, False)
    raise DomainError(f"unsupported predicate operator {op!r}")


def merge_intervals(a, b):
    lo_a, hi_a, li_a, hi_ia = a
    lo_b, hi_b, li_b, hi_ib = b
    if lo_a is None or (lo_b is not None and (lo_b, not li_b) > (lo_a, not li_a)):
        lo, li = lo_b, li_b
    else:
        lo, li = lo_a, li_a
    if hi_a is None or (hi_b is not None and (hi_b, hi_ib) < (hi_a, hi_ia)):
        hi, hi_i = hi_b, hi_ib
    else:
        hi, hi_i = hi_a, hi_ia
    return (lo, hi, li, hi_i)


def _matches(order, interval):
    lo, hi, lo_incl, hi_incl = interval
    if lo is not None and (order < lo or (order == lo and not lo_incl)):
        return False
    if hi is not None and (order > hi or (order == hi and not hi_incl)):
        return False
    return True


def exec_range(store: RowStore, query: RangeQuery):
    """COUNT or public projection of rows matching every interval.

    Inverted bounds select nothing; that is an empty result, not an
    error.
    """
    for col in query.bounds:
        if col not in store.ope_columns:
            raise DomainError(f"unknown encoded column {col!r}")
    if query.projection is not None:
        for col in query.projection:
            if col not in store.public_columns:
                raise DomainError(f"unknown public column {col!r}")
    hits = [row for row in store.rows
            if all(_matches(row.orders[c], iv)
                   for c, iv in query.bounds.items())]
    if query.projection is None:
        return len(hits)
    return [{c: row.public[c] for c in query.projection} for row in hits]


def cleanup_da_entries(table: OpeTable, session_ids=None):
    """Remove analyst-inserted entries; database rows are untouched.

    session_ids None removes every tagged entry.  Unknown ids are a
    warning, not an error.
    """
    tagged = {e.tag: e.order for e in table.entries() if e.tag is not None}
    if session_ids is None:
        victims = list(tagged.values())
    else:
        victims = []
        for sid in session_ids:
            if sid in tagged:
                victims.append(tagged[sid])
            else:
                warnings.warn(f"no analyst entry for session {sid.hex()}")
    for order in victims:
        table.remove(order)
    return len(victims)


# --- ingestion ---------------------------------------------------------------

@dataclass
class IngestResult:
    tables: dict   # column -> OpeTable
    owners: dict   # column -> OwnerState
    rows: RowStore


def ingest(csv_path, ope_columns, m: int, pk, l: int, mode: str = MODE_DET,
           rng=None, tagger=None) -> IngestResult:
    """Build per-column OPE state and the row store from a CSV file."""
    rng = rng or make_rng()
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            header = []
        if len(set(header)) != len(header):
            raise DomainError("duplicate column in CSV header")
        missing = [c for c in ope_columns if c not in header]
        if missing and header:
            raise DomainError(f"encoded columns missing from header: "
                              f"{missing}")
        public_cols = [c for c in header if c not in ope_columns]
        raw_rows = []
        values = {c: [] for c in ope_columns}
        for line, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise DomainError(f"row {line} has {len(rec)} fields, "
                                  f"expected {len(header)}")
            named = dict(zip(header, rec))
            for c in ope_columns:
                try:
                    v = int(named[c])
                except ValueError:
                    raise DomainError(
                        f"row {line}: column {c!r} is not an integer") \
                        from None
                if not 0 <= v < (1 << l):
                    raise DomainError(f"row {line}: column {c!r} value "
                                      f"exceeds {l} bits")
                values[c].append(v)
            raw_rows.append(named)

    tables, owners = {}, {}
    for c in (ope_columns if header else []):
        owners[c], tables[c] = ope_state.init_state(
            values[c], m, pk, l=l, mode=mode, rng=rng, tagger=tagger)

    store = RowStore(public_columns=public_cols,
                     ope_columns=list(ope_columns) if header else [])
    det_orders = {c: dict(owners[c].pairs) for c in store.ope_columns}
    for i, named in enumerate(raw_rows):
        orders = {}
        for c in store.ope_columns:
            if mode == MODE_DET:
                orders[c] = det_orders[c][int(named[c])]
            else:
                # one table entry per occurrence: the owner's pairs are
                # in the original ingestion order
                orders[c] = owners[c].pairs[i][1]
        store.rows.append(EncryptedRow(
            row_id=i,
            public={c: named[c] for c in public_cols},
            orders=orders))
    return IngestResult(tables=tables, owners=owners, rows=store)


# --- persistence -------------------------------------------------------------
# Row store file, sealed (wire.seal) under ROWS_MAGIC:
#   meta: len u32 | JSON {"public": [...], "ope": [...]} | count u64
#   per row: row_id u32 | per public column: len u16 | UTF-8 |
#            per encoded column: order 16B

def serialize_rows(store: RowStore) -> bytes:
    meta = json.dumps({"public": store.public_columns,
                       "ope": store.ope_columns}).encode()
    out = [u32(len(meta)), meta, len(store.rows).to_bytes(8, "big")]
    for row in store.rows:
        out.append(u32(row.row_id))
        for c in store.public_columns:
            blob = row.public[c].encode()
            out += [u16(len(blob)), blob]
        out += [fixed_bytes(row.orders[c], ORDER_BYTES)
                for c in store.ope_columns]
    return seal(ROWS_MAGIC, ROWS_VERSION, b"".join(out))


def parse_rows(blob: bytes) -> RowStore:
    body = unseal(blob, ROWS_MAGIC, ROWS_VERSION)
    meta, off = read_lp(body, 0)
    meta = json.loads(meta)
    count, off = read_int(body, off, 8)
    store = RowStore(public_columns=meta["public"], ope_columns=meta["ope"])
    for _ in range(count):
        row_id, off = read_int(body, off, 4)
        public = {}
        for c in store.public_columns:
            ln, off = read_int(body, off, 2)
            raw, off = read_bytes(body, off, ln)
            public[c] = raw.decode()
        orders = {}
        for c in store.ope_columns:
            orders[c], off = read_int(body, off, ORDER_BYTES)
        store.rows.append(EncryptedRow(row_id, public, orders))
    return store


# --- state directories -------------------------------------------------------
# Server dir:  params.json, pk.bin, rows.bin, table_<col>.bin
# Owner dir:   params.json, key.bin, owner_<col>.bin, [macparams.bin]
# Every .bin file is sealed (wire.seal).  pk.bin, key.bin and
# macparams.bin seal the owner's public key, its private key and the
# MAC parameters in the encodings the handshake uses; a server dir holds
# everything a CspEngine needs, an owner dir everything a DoEngine needs.

PK_MAGIC, KEY_MAGIC, MAC_MAGIC = b"OPEP", b"OPEK", b"OPEM"
KEY_FILE_VERSION = 1


def _write(path, name, blob: bytes):
    with open(os.path.join(path, name), "wb") as fh:
        fh.write(blob)


def _read(path, name) -> bytes:
    with open(os.path.join(path, name), "rb") as fh:
        return fh.read()


def _columns(path, prefix):
    """{column: blob} of every <prefix><column>.bin file in path."""
    return {name[len(prefix):-4]: _read(path, name)
            for name in sorted(os.listdir(path))
            if name.startswith(prefix) and name.endswith(".bin")}


def _load_params(path) -> ProtocolParams:
    """The directory's params.json; a field ProtocolParams does not
    have or a value it rejects, such as a retired option that an older
    version saved, is a ConfigurationError."""
    spec = json.loads(_read(path, "params.json"))
    known = {f.name for f in fields(ProtocolParams)}
    if not isinstance(spec, dict):
        raise ConfigurationError("params.json holds no object")
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ConfigurationError(f"params.json has unknown fields {unknown}")
    params = ProtocolParams(**spec)
    params.validate()
    return params


def save_csp_state(path, params: ProtocolParams, pk, tables: dict,
                   rows: RowStore):
    os.makedirs(path, exist_ok=True)
    _write(path, "params.json", json.dumps(asdict(params), indent=1).encode())
    _write(path, "pk.bin", seal(PK_MAGIC, KEY_FILE_VERSION,
                                paillier.serialize_public_key(pk)))
    _write(path, "rows.bin", serialize_rows(rows))
    for col, table in tables.items():
        _write(path, f"table_{col}.bin", ope_state.serialize_table(table))


def load_csp_state(path):
    """(params, pk, tables, rows); a table under another key than pk is a
    KeyMismatchError."""
    params = _load_params(path)
    pk, _ = paillier.parse_public_key(
        unseal(_read(path, "pk.bin"), PK_MAGIC, KEY_FILE_VERSION))
    tables = {col: ope_state.parse_table(blob)
              for col, blob in _columns(path, "table_").items()}
    ope_state.check_key(tables, pk)
    return params, pk, tables, parse_rows(_read(path, "rows.bin"))


def save_do_state(path, params: ProtocolParams, sk, owners: dict,
                  mac_params=None):
    os.makedirs(path, exist_ok=True)
    _write(path, "params.json", json.dumps(asdict(params), indent=1).encode())
    _write(path, "key.bin", seal(KEY_MAGIC, KEY_FILE_VERSION,
                                 paillier.serialize_private_key(sk)))
    for col, owner in owners.items():
        _write(path, f"owner_{col}.bin", ope_state.serialize_owner(owner))
    if mac_params is not None:
        _write(path, "macparams.bin", seal(MAC_MAGIC, KEY_FILE_VERSION,
                                           integrity.serialize_params(
                                               mac_params)))


def load_do_state(path):
    """(params, sk, owners, mac_params or None)."""
    params = _load_params(path)
    sk, _ = paillier.parse_private_key(
        unseal(_read(path, "key.bin"), KEY_MAGIC, KEY_FILE_VERSION))
    owners = {col: ope_state.parse_owner(blob)
              for col, blob in _columns(path, "owner_").items()}
    mac_params = None
    if os.path.exists(os.path.join(path, "macparams.bin")):
        mac_params, _ = integrity.parse_params(
            unseal(_read(path, "macparams.bin"), MAC_MAGIC, KEY_FILE_VERSION))
    return params, sk, owners, mac_params
