"""Server-side row storage, owner-side ingestion, range queries.

The owner ingests a CSV file: designated columns are order-encoded (one
OPE table per column), everything else stays public.  Rows keep only
order values for the encoded columns; the plaintexts never leave the
owner.  Range queries run on order comparisons alone, no decryption
anywhere.  Analyst-inserted table entries are tagged by session and can
be swept out again without touching the rows.
"""

import csv
import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Optional

from . import integrity, ope_state, paillier
from .engine import ProtocolParams
from .errors import DomainError, IntegrityError
from .ope_state import MODE_DET, OpeTable
from .rng import make_rng
from .wire import ORDER_BYTES, fixed_bytes, read_bytes, read_int, u16, u32

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
    the bound's (c_min, c_max) pair, since < b must cut below every copy
    of b and <= b must reach above all of them.
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

def serialize_rows(store: RowStore, fh=None) -> int:
    w = ope_state._HashingWriter(fh)
    w.write(ROWS_MAGIC)
    w.write(u16(ROWS_VERSION))
    meta = json.dumps({"public": store.public_columns,
                       "ope": store.ope_columns}).encode()
    w.write(u32(len(meta)))
    w.write(meta)
    w.write(len(store.rows).to_bytes(8, "big"))
    for row in store.rows:
        w.write(u32(row.row_id))
        for c in store.public_columns:
            blob = row.public[c].encode()
            w.write(u16(len(blob)))
            w.write(blob)
        for c in store.ope_columns:
            w.write(fixed_bytes(row.orders[c], ORDER_BYTES))
    digest = w.hash.digest()
    if fh is not None:
        fh.write(digest)
    return w.written + len(digest)


def parse_rows(blob: bytes) -> RowStore:
    if len(blob) < 32 or hashlib.sha256(blob[:-32]).digest() != blob[-32:]:
        raise IntegrityError("row store checksum mismatch")
    if blob[:4] != ROWS_MAGIC:
        raise IntegrityError("not a row store file")
    off = 4
    version, off = read_int(blob, off, 2)
    if version != ROWS_VERSION:
        raise IntegrityError(f"unsupported row store version {version}")
    n, off = read_int(blob, off, 4)
    meta = json.loads(blob[off:off + n])
    off += n
    count, off = read_int(blob, off, 8)
    store = RowStore(public_columns=meta["public"], ope_columns=meta["ope"])
    for _ in range(count):
        row_id, off = read_int(blob, off, 4)
        public = {}
        for c in store.public_columns:
            ln, off = read_int(blob, off, 2)
            raw, off = read_bytes(blob, off, ln)
            public[c] = raw.decode()
        orders = {}
        for c in store.ope_columns:
            orders[c], off = read_int(blob, off, ORDER_BYTES)
        store.rows.append(EncryptedRow(row_id, public, orders))
    return store


# --- state directories -------------------------------------------------------
# Server dir:  params.json, rows.bin, table_<col>.bin
# Owner dir:   params.json, key.bin, owner_<col>.bin, macparams.bin

def _params_dict(params: ProtocolParams) -> dict:
    return {"l": params.l, "k": params.k, "m": params.m, "mode": params.mode,
            "key_bits": params.key_bits, "integrity": params.integrity,
            "mac_subgroup_bits": params.mac_subgroup_bits,
            "uid_upload": params.uid_upload}


def save_csp_state(path, params: ProtocolParams, tables: dict,
                   rows: RowStore):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "params.json"), "w") as fh:
        json.dump(_params_dict(params), fh, indent=1)
    with open(os.path.join(path, "rows.bin"), "wb") as fh:
        serialize_rows(rows, fh)
    for col, table in tables.items():
        with open(os.path.join(path, f"table_{col}.bin"), "wb") as fh:
            ope_state.serialize_table(table, fh)


def load_csp_state(path):
    with open(os.path.join(path, "params.json")) as fh:
        params = ProtocolParams(**json.load(fh))
    with open(os.path.join(path, "rows.bin"), "rb") as fh:
        rows = parse_rows(fh.read())
    tables = {}
    for name in sorted(os.listdir(path)):
        if name.startswith("table_") and name.endswith(".bin"):
            with open(os.path.join(path, name), "rb") as fh:
                tables[name[len("table_"):-4]] = ope_state.parse_table(
                    fh.read())
    return params, tables, rows


def save_do_state(path, params: ProtocolParams, sk, owners: dict,
                  mac_params=None):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "params.json"), "w") as fh:
        json.dump(_params_dict(params), fh, indent=1)
    with open(os.path.join(path, "key.bin"), "wb") as fh:
        fh.write(paillier.serialize_private_key(sk))
    for col, owner in owners.items():
        with open(os.path.join(path, f"owner_{col}.bin"), "wb") as fh:
            ope_state.serialize_owner(owner, fh)
    if mac_params is not None:
        with open(os.path.join(path, "macparams.bin"), "wb") as fh:
            fh.write(integrity.serialize_params(mac_params))


def load_do_state(path):
    with open(os.path.join(path, "params.json")) as fh:
        params = ProtocolParams(**json.load(fh))
    with open(os.path.join(path, "key.bin"), "rb") as fh:
        sk, _ = paillier.parse_private_key(fh.read())
    owners = {}
    for name in sorted(os.listdir(path)):
        if name.startswith("owner_") and name.endswith(".bin"):
            with open(os.path.join(path, name), "rb") as fh:
                owners[name[len("owner_"):-4]] = ope_state.parse_owner(
                    fh.read())
    mac_params = None
    mp_path = os.path.join(path, "macparams.bin")
    if os.path.exists(mp_path):
        with open(mp_path, "rb") as fh:
            mac_params, _ = integrity.parse_params(fh.read())
    return params, sk, owners, mac_params
