"""Server-side row storage, range queries, analyst-entry cleanup.

The server keeps one row per data record: its public columns in the
clear and, for each order-encoded column (one OPE table per column),
only the order set-up assigned it, from the owner's plaintext/order
pairs (ope_state.init_state); the plaintexts never leave the owner.
Range queries run on order comparisons alone, no decryption anywhere.
Analyst-inserted table entries are tagged by session and can be swept
out again without touching the rows.
"""

from dataclasses import dataclass, field
from typing import Optional

from .errors import DomainError


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


def cleanup_da_entries(tables, session_ids=None):
    """Remove analyst-inserted entries from the OpeTables in tables and
    return how many went; database rows are untouched.

    session_ids None removes every tagged entry.  A session's entry goes
    once however often its id is named.
    """
    wanted = None if session_ids is None else set(session_ids)
    removed = 0
    for table in tables:
        for e in table.entries():
            if e.tag is not None and (wanted is None or e.tag in wanted):
                table.remove(e.order)
                removed += 1
    return removed
