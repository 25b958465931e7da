"""Mutable order-preserving encryption state.

The table holds ⟨homomorphic ciphertext, order⟩ pairs sorted by order.
Orders live in [1, M-1].  A new entry goes in at an index of the table,
and its gap is the pair of orders either side of that index, with 0 and
M as the virtual ends (OpeTable.gap).  One rule, place, gives every new
order, at set-up and in a session alike: the midpoint (rounded up) of
its gap.  On a unit gap (GapExhausted), place takes the gap at the
same index among the orders of a uniform, rank-keeping respread
(rebalance), and a unit gap there is a CapacityError.  Neither changes
the table: the respread comes back as an old -> new map for the caller
to apply to the table and the row store.  Set-up also returns the
owner's plaintext/order pairs (OwnerState), from which the row store is
built; the owner keeps no orders afterwards.

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

import os
import warnings
from bisect import bisect_left, bisect_right, insort
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from . import paillier
from .errors import (CapacityError, ConfigurationError, DomainError,
                     GapExhausted, IntegrityError, KeyMismatchError,
                     UsageError)
from .rng import make_rng
from .wire import (ORDER_BYTES, fixed_bytes, read_bytes, read_int, seal, u16,
                   u32, unseal)

MODE_DET, MODE_FH = "det", "fh"
TABLE_MAGIC = b"OPET"
# 3: sealed, no l or mode; 4: no fh extremes; 5: every entry has a cipher
TABLE_VERSION = 5

FLAG_TAGGED = 2
FLAG_NODETAG = 4


@dataclass
class OpeEntry:
    cipher: paillier.HomCiphertext
    order: int
    tag: Optional[bytes] = None       # session id of an analyst insert
    node_tag: Optional[bytes] = None  # serialized integrity tag


def _gap(orders: list, index: int, m: int):
    left = orders[index - 1] if index else 0
    right = orders[index] if index < len(orders) else m
    return left, right


class OpeTable:
    """Entries sorted ascending by order; orders are unique."""

    def __init__(self, m: int, key_bits: int = 0, key_id: bytes = b""):
        self.m = m
        self.key_bits = key_bits
        self.key_id = key_id
        self._orders = []
        self._by_order = {}

    def __len__(self):
        return len(self._orders)

    @property
    def height(self) -> int:
        """Rounds of the midpoint search: ceil(log2(n+1))."""
        return len(self._orders).bit_length()

    def orders(self):
        return list(self._orders)

    def order_at(self, index: int) -> int:
        return self._orders[index]

    def entries(self):
        return [self._by_order[o] for o in self._orders]

    def get(self, order: int) -> OpeEntry:
        try:
            return self._by_order[order]
        except KeyError:
            raise UsageError(f"order {order} not present") from None

    def insert(self, entry: OpeEntry):
        if entry.order in self._by_order:
            raise IntegrityError(f"order collision at {entry.order}")
        if not 1 <= entry.order <= self.m - 1:
            raise DomainError("order outside [1, M-1]")
        insort(self._orders, entry.order)
        self._by_order[entry.order] = entry

    def remove(self, order: int) -> OpeEntry:
        entry = self.get(order)
        self._orders.pop(bisect_left(self._orders, order))
        del self._by_order[order]
        return entry

    def gap(self, index: int):
        """(y_left, y_right): the orders either side of index, where a
        new entry at index would go, with 0 and M as the virtual ends."""
        return _gap(self._orders, index, self.m)

    def reassign_orders(self, remap: dict):
        entries = self.entries()
        for e in entries:
            e.order = remap[e.order]
        self._orders = sorted(remap[o] for o in self._orders)
        self._by_order = {e.order: e for e in entries}


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
    try:
        return assign_order(*_gap(list(remap.values()), index, table.m)), \
            remap
    except GapExhausted:
        # a uniform respread left no room here: M is too dense
        raise CapacityError("order space too dense for another "
                            "entry at this position") from None


def init_state(dataset, m: int, pk: paillier.PaillierPublicKey, l: int,
               mode: str = MODE_DET, rng=None, tagger=None):
    """Build owner state and table from a plaintext dataset.

    Each plaintext is placed in the dataset's given order, straight into
    the table, by the rule a session uses (place): det finds its index
    by bisection and a duplicate reuses its entry; fh puts each
    occurrence at a coin-chosen index inside or beside its value's run.
    The server's search needs no further structure: its midpoint walk
    over the sorted table is the balanced tree over these orders,
    whatever order they were inserted in.  tagger, when given, is called
    with each plaintext to produce the serialized integrity tag stored
    next to the entry.

    Ciphertexts and tags are filled in once every order is placed, in
    table order.  Every encryption's short exponent alpha
    (paillier.fresh_alpha) is drawn on the calling thread, entry by
    entry and interleaved with the tagger's draws, and the key's h^N is
    computed there once, before any worker runs; the exponentiations
    then spread over the cores (_encrypt_all).  So a seeded table is the
    same on any number of cores, and no worker recomputes h^N.
    """
    dataset = list(dataset)
    n = len(dataset)
    if m <= max(2, n):
        raise ConfigurationError(f"order space M={m} too small for {n} entries")
    if m & (m - 1) == 0:
        warnings.warn("M is a power of two; orders may leak tree positions")
    rng = rng or make_rng()
    table = OpeTable(m, pk.key_bits, pk.key_id)
    xs = []  # the plaintexts in table order, for bisect
    placed = []  # each dataset value's entry
    for x in dataset:
        if not 0 <= x < (1 << l):
            raise DomainError(f"plaintext {x} outside [0, 2^{l})")
        i = bisect_left(xs, x)
        if mode == MODE_DET and i < len(xs) and xs[i] == x:
            placed.append(table.get(table.order_at(i)))
            continue
        if mode == MODE_FH:
            hi = bisect_right(xs, x, i)
            if hi > i:
                i = rng.randint(i, hi)
        order, remap = place(table, i)
        if remap is not None:
            table.reassign_orders(remap)
        entry = OpeEntry(None, order)
        table.insert(entry)
        xs.insert(i, x)
        placed.append(entry)

    entries = table.entries()
    jobs, node_tags = [], []
    for x in xs:
        jobs.append((x, paillier.fresh_alpha(rng)))
        node_tags.append(tagger(x) if tagger is not None else None)
    pk.h_n  # cached here, so the workers share it
    for entry, node_tag, cipher in zip(entries, node_tags,
                                       _encrypt_all(pk, jobs)):
        entry.cipher, entry.node_tag = cipher, node_tag
    return OwnerState([(x, e.order) for x, e in zip(dataset, placed)]), table


def _encrypt_all(pk, jobs):
    """paillier.encrypt of every (plaintext, alpha) job, in job order.

    The jobs run in os.cpu_count() contiguous slices: the calling thread
    runs the first, a thread pool the others; powmod releases the
    interpreter lock, so the slices' exponentiations run in parallel.
    The calling thread takes a slice itself because a pool reuses a
    worker that went idle, so short slices could all queue on one thread.
    """
    workers = min(os.cpu_count() or 1, len(jobs))

    def run(chunk):
        return [paillier.encrypt(pk, v, alpha=a) for v, a in chunk]

    if workers <= 1:
        return run(jobs)
    size = -(-len(jobs) // workers)
    first, *rest = [jobs[i:i + size] for i in range(0, len(jobs), size)]
    with ThreadPoolExecutor(len(rest)) as pool:
        futures = [pool.submit(run, chunk) for chunk in rest]
        out = run(first)
        for f in futures:
            out.extend(f.result())
        return out


# --- persistence ------------------------------------------------------------
# The table file is sealed (wire.seal): magic | version u16 | body |
# SHA-256.  The owner keeps no orders, so it has no file here.
# Table body:
#   key_bits u16 | M 16B | count u64 | key_id 32B
#   per entry: order 16B | flags u8 | cipher record |
#              [tag 16B] | [node tag: len u32 | blob]
# A cipher record is len u32 | residue of exactly
# paillier.cipher_width(key_bits) bytes; every entry has one.
# Flags: FLAG_TAGGED, FLAG_NODETAG; bits 1 and 8 are retired.

def serialize_table(table: OpeTable) -> bytes:
    out = [u16(table.key_bits), fixed_bytes(table.m, 16),
           len(table).to_bytes(8, "big"), table.key_id or bytes(32)]
    for e in table.entries():
        flags = (FLAG_TAGGED if e.tag is not None else 0) | \
            (FLAG_NODETAG if e.node_tag is not None else 0)
        out += [fixed_bytes(e.order, ORDER_BYTES), bytes([flags]),
                paillier.cipher_record(e.cipher, table.key_bits)]
        if e.tag is not None:
            out.append(e.tag)
        if e.node_tag is not None:
            out += [u32(len(e.node_tag)), e.node_tag]
    return seal(TABLE_MAGIC, TABLE_VERSION, b"".join(out))


def parse_table(blob: bytes) -> OpeTable:
    body = unseal(blob, TABLE_MAGIC, TABLE_VERSION)
    key_bits, off = read_int(body, 0, 2)
    m, off = read_int(body, off, 16)
    count, off = read_int(body, off, 8)
    key_id, off = read_bytes(body, off, 32)
    table = OpeTable(m, key_bits, key_id)
    for _ in range(count):
        order, off = read_int(body, off, ORDER_BYTES)
        flags, off = read_int(body, off, 1)
        cipher, off = paillier.parse_cipher_record(body, off, key_id,
                                                   key_bits)
        entry = OpeEntry(cipher, order)
        if flags & FLAG_TAGGED:
            entry.tag, off = read_bytes(body, off, 16)
        if flags & FLAG_NODETAG:
            n, off = read_int(body, off, 4)
            entry.node_tag, off = read_bytes(body, off, n)
        table.insert(entry)
    return table
