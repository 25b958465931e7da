"""Mutable order-preserving encryption state.

The table holds ⟨homomorphic ciphertext, order⟩ pairs sorted by order;
the owner keeps the plaintext/order pairs.  Orders live in [1, M-1],
with 0 and M acting as virtual neighbors of the extremes.  A fresh
order is the midpoint (rounded up) of its neighbor gap; a unit gap
signals GapExhausted and forces a rebalance that respreads all orders
uniformly while keeping their relative ranks.

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
OWNER_MAGIC = b"OPEO"
# 3: sealed, no l or mode; 4: no fh extremes; 5: every entry has a cipher
TABLE_VERSION = 5
OWNER_VERSION = 3  # 3: sealed, no l or M

FLAG_TAGGED = 2
FLAG_NODETAG = 4


@dataclass
class OpeEntry:
    cipher: paillier.HomCiphertext
    order: int
    tag: Optional[bytes] = None       # session id of an analyst insert
    node_tag: Optional[bytes] = None  # serialized integrity tag


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

    def __contains__(self, order):
        return order in self._by_order

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

    def neighbors(self, node_order: int, direction: str):
        """(y_left, y_right, neighbor entry or None for a virtual bound)."""
        if node_order not in self._by_order:
            raise UsageError(f"order {node_order} not present")
        i = bisect_left(self._orders, node_order)
        if direction == "left":
            if i == 0:
                return 0, node_order, None
            y = self._orders[i - 1]
            return y, node_order, self._by_order[y]
        if direction == "right":
            if i == len(self._orders) - 1:
                return node_order, self.m, None
            y = self._orders[i + 1]
            return node_order, y, self._by_order[y]
        raise UsageError("direction must be 'left' or 'right'")

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
    """The data owner's plaintext/order pairs."""

    pairs: list = field(default_factory=list)

    def apply_remap(self, remap: dict):
        self.pairs = [(x, remap.get(y, y)) for x, y in self.pairs]


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
    """Respread all orders uniformly across [1, M-1]; rank is preserved.

    Returns the old-order -> new-order map the owner needs to update its
    pairs (and the row store its column values).
    """
    n = len(table)
    if n == 0:
        raise UsageError("cannot rebalance an empty table")
    if n >= table.m - 1:
        raise CapacityError("order space exhausted")
    remap = dict(zip(table.orders(), _uniform_orders(n, table.m)))
    table.reassign_orders(remap)
    return remap


def _local_insert_det(sorted_pairs, xs, x, m):
    """mOPE2 order for x against sorted (plaintext, order) pairs, whose
    plaintexts are xs.

    Returns (order, is_new); duplicates reuse the existing order.
    """
    i = bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return sorted_pairs[i][1], False
    y_left = sorted_pairs[i - 1][1] if i > 0 else 0
    y_right = sorted_pairs[i][1] if i < len(xs) else m
    return assign_order(y_left, y_right), True


def _local_insert_fh(sorted_pairs, xs, x, m, rng):
    """mOPE3 placement: a coin-chosen gap inside or adjacent to x's run."""
    lo, hi = bisect_left(xs, x), bisect_right(xs, x)
    gap = rng.randint(lo, hi) if hi > lo else lo
    y_left = sorted_pairs[gap - 1][1] if gap > 0 else 0
    y_right = sorted_pairs[gap][1] if gap < len(xs) else m
    return assign_order(y_left, y_right)


def init_state(dataset, m: int, pk: paillier.PaillierPublicKey, l: int,
               mode: str = MODE_DET, rng=None, tagger=None):
    """Build owner state and table from a plaintext dataset.

    Orders are assigned in the dataset's given order.  The server's
    search needs no further structure: its midpoint walk over the sorted
    table is the balanced tree over these orders, whatever order they
    were inserted in.  tagger, when given, is called with each plaintext
    to produce the serialized integrity tag stored next to the entry.

    Every encryption's short exponent alpha (paillier.fresh_alpha) is
    drawn on the calling thread, entry by entry and interleaved with the
    tagger's draws, and the key's h^N is computed there once, before any
    worker runs; the exponentiations then spread over the cores
    (_encrypt_all).  So a seeded table is the same on any number of
    cores, and no worker recomputes h^N.
    """
    dataset = list(dataset)
    n = len(dataset)
    if m <= max(2, n):
        raise ConfigurationError(f"order space M={m} too small for {n} entries")
    if m & (m - 1) == 0:
        warnings.warn("M is a power of two; orders may leak tree positions")
    rng = rng or make_rng()
    owner = OwnerState()
    sorted_pairs = []  # (plaintext, order), sorted by (plaintext, order)
    xs = []  # the plaintexts of sorted_pairs, so an insert costs a memmove

    def place(x):
        if mode == MODE_DET:
            return _local_insert_det(sorted_pairs, xs, x, m)
        return _local_insert_fh(sorted_pairs, xs, x, m, rng), True

    def respread():
        # local respread during initialization; ciphertexts are only
        # computed afterwards, so this is safe in either mode
        if len(sorted_pairs) >= m - 1:
            raise CapacityError("order space exhausted at init")
        new = _uniform_orders(len(sorted_pairs), m)
        owner.apply_remap({py: ny for (_, py), ny in zip(sorted_pairs, new)})
        sorted_pairs[:] = [(px, ny) for (px, _), ny in zip(sorted_pairs, new)]

    for x in dataset:
        if not 0 <= x < (1 << l):
            raise DomainError(f"plaintext {x} outside [0, 2^{l})")
        try:
            y, is_new = place(x)
        except GapExhausted:
            respread()
            try:
                y, is_new = place(x)
            except GapExhausted:
                # a uniform respread left no room here: M is too dense
                raise CapacityError("order space too dense for another "
                                    "entry at this position") from None
        if is_new:
            i = bisect_right(sorted_pairs, (x, y))
            sorted_pairs.insert(i, (x, y))
            xs.insert(i, x)
        owner.pairs.append((x, y))

    table = OpeTable(m, pk.key_bits, pk.key_id)
    jobs, node_tags = [], []
    for x, _ in sorted_pairs:
        jobs.append((x, paillier.fresh_alpha(rng)))
        node_tags.append(tagger(x) if tagger is not None else None)
    pk.h_n  # cached here, so the workers share it
    for (_, y), node_tag, cipher in zip(sorted_pairs, node_tags,
                                        _encrypt_all(pk, jobs)):
        table.insert(OpeEntry(cipher, y, node_tag=node_tag))
    return owner, table


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
# Both files are sealed (wire.seal): magic | version u16 | body | SHA-256.
# Table body:
#   key_bits u16 | M 16B | count u64 | key_id 32B
#   per entry: order 16B | flags u8 | cipher record |
#              [tag 16B] | [node tag: len u32 | blob]
# A cipher record is len u32 | residue of exactly
# paillier.cipher_width(key_bits) bytes; every entry has one.
# Flags: FLAG_TAGGED, FLAG_NODETAG; bits 1 and 8 are retired.
# Owner body:
#   count u64 | per pair: plaintext 16B | order 16B

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


def serialize_owner(owner: OwnerState) -> bytes:
    body = len(owner.pairs).to_bytes(8, "big") + b"".join(
        fixed_bytes(x, 16) + fixed_bytes(y, ORDER_BYTES)
        for x, y in owner.pairs)
    return seal(OWNER_MAGIC, OWNER_VERSION, body)


def parse_owner(blob: bytes) -> OwnerState:
    body = unseal(blob, OWNER_MAGIC, OWNER_VERSION)
    count, off = read_int(body, 0, 8)
    owner = OwnerState()
    for _ in range(count):
        x, off = read_int(body, off, 16)
        y, off = read_int(body, off, ORDER_BYTES)
        owner.pairs.append((x, y))
    return owner
