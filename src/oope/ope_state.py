"""Mutable order-preserving encryption state.

The table (OpeTable) is one list of entries sorted by order, each a
slotted OpeEntry holding a Paillier ciphertext as a plain int, its order
and two optional tags.  Orders live in [1, M-1].  A new entry goes in at
an index of the table, and its gap is the pair of orders either side of
that index, with 0 and M as the virtual ends (OpeTable.gap).  One rule,
place, gives every new order, at set-up and in a session alike: the
midpoint (rounded up) of its gap.  On a unit gap (GapExhausted), place
takes the gap at the same index among the orders of a uniform,
rank-keeping respread (rebalance), and a unit gap there is a
CapacityError.  Neither changes the table: the respread comes back as an
old -> new map for the caller to apply to the table and the row store.
Set-up also returns the owner's plaintext/order pairs (OwnerState), one
per dataset value, from which the caller builds the server's row store
(datastore.RowStore); the owner keeps no orders afterwards.

The server stores no tree.  A session runs an implicit binary search
over the sorted orders: it keeps an index range [lo, hi), starting at
[0, n), compares against the order at mid = (lo+hi)//2 and narrows to
[lo, mid) or [mid+1, hi).  Those midpoints are exactly the nodes of the
balanced binary search tree built by picking the median as root and
recursing on each half, so the search visits what a balanced mOPE tree
would, and its depth, OpeTable.height, is ceil(log2(n+1)) whatever
order the entries arrived in.

Frequency-hiding mode stores one entry, one ciphertext, per plaintext
occurrence.  A range query's ends, the lowest or highest order among
the copies of a value, are found by a search (engine.DaEngine.bound), so the
table stores no run extremes.
"""

import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from . import paillier
from .errors import (CapacityError, ConfigurationError, DomainError,
                     GapExhausted, IntegrityError, KeyMismatchError,
                     UsageError)
from .modexp import fan_out
from .rng import make_rng

MODE_DET, MODE_FH = "det", "fh"


@dataclass(slots=True)
class OpeEntry:
    cipher: int  # Paillier ciphertext, a residue mod N^2
    order: int
    tag: Optional[bytes] = None       # session id of an analyst insert
    node_tag: Optional[tuple] = None  # (Enc(a), commitment) under Pedersen


_ORDER = attrgetter("order")


class OpeTable:
    """One list of entries sorted by order, bisected to find one; orders
    are unique.  key_id names the key of every ciphertext (check_key)."""

    def __init__(self, m: int, key_id: bytes = b""):
        self.m = m
        self.key_id = key_id
        self._entries = []
        self.sentinel_tag = None  # the integrity tag of 2^l (init_state)

    def __len__(self):
        return len(self._entries)

    @property
    def height(self) -> int:
        """Rounds of the midpoint search: ceil(log2(n+1))."""
        return len(self._entries).bit_length()

    def orders(self):
        return [e.order for e in self._entries]

    def entries(self):
        return list(self._entries)

    def entry_at(self, index: int) -> OpeEntry:
        return self._entries[index]

    def _index(self, order: int) -> int:
        """The index of the entry at order; UsageError if none is."""
        i = bisect_left(self._entries, order, key=_ORDER)
        if i == len(self._entries) or self._entries[i].order != order:
            raise UsageError(f"order {order} not present")
        return i

    def get(self, order: int) -> OpeEntry:
        return self._entries[self._index(order)]

    def insert(self, entry: OpeEntry):
        if not 1 <= entry.order <= self.m - 1:
            raise DomainError("order outside [1, M-1]")
        i = bisect_left(self._entries, entry.order, key=_ORDER)
        if i < len(self._entries) and self._entries[i].order == entry.order:
            raise IntegrityError(f"order collision at {entry.order}")
        self._entries.insert(i, entry)

    def remove(self, order: int) -> OpeEntry:
        return self._entries.pop(self._index(order))

    def gap(self, index: int):
        """(y_left, y_right): the orders either side of index, where a
        new entry at index would go, with 0 and M as the virtual ends."""
        left = self._entries[index - 1].order if index else 0
        right = self._entries[index].order if index < len(self) else self.m
        return left, right

    def reassign_orders(self, remap: dict):
        """Move each entry from order o to remap[o].  A rebalance keeps
        ranks, so the list stays sorted and is not sorted again."""
        for e in self._entries:
            e.order = remap[e.order]


def check_key(tables: dict, pk: paillier.PaillierPublicKey):
    """KeyMismatchError unless every table (column -> OpeTable) holds
    ciphertexts under pk."""
    for column, table in tables.items():
        if table.key_id != pk.key_id:
            raise KeyMismatchError(f"table {column!r} belongs to another key")


@dataclass
class OwnerState:
    """The plaintext/order pairs set-up assigns, in dataset order."""

    pairs: list = field(default_factory=list)


def assign_order(y_left: int, y_right: int) -> int:
    """Midpoint order y_left + ceil((y_right - y_left) / 2)."""
    if y_left >= y_right:
        raise UsageError("neighbor orders must satisfy y_left < y_right")
    gap = y_right - y_left
    if gap == 1:
        raise GapExhausted(f"unit gap at ({y_left}, {y_right})")
    return y_left + (gap + 1) // 2


def _uniform_orders(n: int, m: int) -> list:
    """n orders spread uniformly across [1, M-1]: ceil(i*M/(n+1)) for
    i = 1..n."""
    return [-(-i * m // (n + 1)) for i in range(1, n + 1)]


def rebalance(table: OpeTable) -> dict:
    """The old -> new map of a uniform respread of every order across
    [1, M-1] that keeps their ranks; the table is left as it is."""
    n = len(table)
    if n == 0:
        raise UsageError("cannot rebalance an empty table")
    if n >= table.m - 1:
        raise CapacityError("order space exhausted")
    return dict(zip(table.orders(), _uniform_orders(n, table.m)))


def place(table: OpeTable, index: int):
    """(order, remap or None) for a new entry at index: the midpoint of
    its gap, or on a unit gap, of the gap at index among the orders of
    remap, a rebalance.  The table is never changed; a unit gap among
    the respread orders is a CapacityError."""
    try:
        return assign_order(*table.gap(index)), None
    except GapExhausted:
        remap = rebalance(table)
    respread = [0, *remap.values(), table.m]
    try:
        return assign_order(respread[index], respread[index + 1]), remap
    except GapExhausted:
        # a uniform respread left no room here: M is too dense
        raise CapacityError("order space too dense for another "
                            "entry at this position") from None


def _fh_index(xs, x, rng) -> int:
    """The index of sorted plaintexts xs at which an fh session's search
    would put x: the midpoint walk over [lo, hi) towards [x > xs[mid]],
    or towards a fresh coin where the two are equal, stopping at its
    first empty half (engine.CspEngine.run_session)."""
    lo, hi = 0, len(xs)
    while lo < hi:
        mid = (lo + hi) // 2
        side = rng.getrandbits(1) if xs[mid] == x else int(x > xs[mid])
        if side and mid + 1 < hi:
            lo = mid + 1
        elif not side and lo < mid:
            hi = mid
        else:
            return mid + side
    return 0


def init_state(dataset, m: int, pk: paillier.PaillierPublicKey, l: int,
               mode: str = MODE_DET, rng=None, tagger=None):
    """Build owner state and table from a plaintext dataset.

    Each plaintext is placed in the dataset's given order, straight into
    the table, by the rules a session uses: det finds its index by
    bisection and a duplicate reuses its entry; fh finds each
    occurrence's index by a session's search (_fh_index), and place
    gives the order.
    The server's search needs no further structure: its midpoint walk
    over the sorted table is the balanced tree over these orders,
    whatever order they were inserted in.  tagger, when given, is called
    with each plaintext to produce the integrity tag stored next to the
    entry, and last with 2^l, above every plaintext, for the tag of the
    sentinel that a session's rounds after its search stops compare
    (engine.CspEngine.run_session).

    Ciphertexts and tags are filled in once every order is placed, in
    table order.  Every encryption's short exponent alpha
    (paillier.fresh_alpha) is drawn on the calling thread, entry by
    entry and interleaved with the tagger's draws, and the key's h^N and
    its comb table (paillier.PaillierPublicKey.h_n) are built there once,
    before any worker runs; the encryptions then spread over the cores
    (modexp.fan_out), which read that table.  So a seeded table is
    the same on any number of cores, and no worker rebuilds h^N.
    """
    dataset = list(dataset)
    n = len(dataset)
    if m <= max(2, n):
        raise ConfigurationError(f"order space M={m} too small for {n} entries")
    if m & (m - 1) == 0:
        warnings.warn("M is a power of two; orders may leak tree positions")
    rng = rng or make_rng()
    table = OpeTable(m, pk.key_id)
    xs = []  # the plaintexts in table order, for bisect
    placed = []  # each dataset value's entry
    for x in dataset:
        if not 0 <= x < (1 << l):
            raise DomainError(f"plaintext {x} outside [0, 2^{l})")
        if mode == MODE_FH:
            i = _fh_index(xs, x, rng)
        else:
            i = bisect_left(xs, x)
            if i < len(xs) and xs[i] == x:
                placed.append(table.entry_at(i))
                continue
        order, remap = place(table, i)
        if remap is not None:
            table.reassign_orders(remap)
        entry = OpeEntry(None, order)
        table.insert(entry)
        xs.insert(i, x)
        placed.append(entry)

    jobs, node_tags = [], []
    for x in xs:
        jobs.append((x, paillier.fresh_alpha(rng)))
        node_tags.append(tagger(x) if tagger is not None else None)
    pk.h_n  # built here, once, so the workers share its table
    # paillier.encrypt is looked up per call, where a tracer may wrap it
    ciphers = fan_out(lambda job: paillier.encrypt(pk, job[0], alpha=job[1]),
                      jobs)
    for entry, node_tag, cipher in zip(table.entries(), node_tags, ciphers):
        entry.cipher, entry.node_tag = cipher, node_tag
    if tagger is not None:
        table.sentinel_tag = tagger(1 << l)
    return OwnerState([(x, e.order) for x, e in zip(dataset, placed)]), table

