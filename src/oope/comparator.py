"""Boolean comparator circuits.

One circuit computes both the inequality bit [xbar != x] and the
greater-than bit [xbar > x] over w-bit inputs, and outputs them as they
are: garbled, an output is a label that only the holder of its decode
hashes, the server, can map to its bit (garbling).  The
frequency-hiding variant folds a coin into the same circuit and emits a
single traversal bit.

Circuits have two gate kinds, XOR and AND, and one constant wire, ONE
(wire 0), which holds 1: NOT a is XOR(a, ONE), and the comparators
carry equality, not inequality, through their ANDs, so they need no OR.

Both compute the two bits the same way (_compare_stages): blocks of
BLOCK_BITS = 8 bits ripple side by side, and a balanced tree merges
the blocks' results.  At the paper width of 65 bits that is 137
AND gates 12 levels deep, where one ripple over all 65 bits takes 129
gates 65 levels deep.  The garbling hashes one AND level per pair of
AES calls, so the levels, more than the gates, set an evaluation's
cost.  The frequency-hiding circuit adds two AND gates and one level:
139 AND gates at w = 65.

Bit order is LSB first.  Input wire layout (generator = key owner
holding x, evaluator = analyst holding xbar):

  comparator:      gen = x bits           eval = xbar bits
  fh comparator:   gen = x bits, r_x      eval = xbar bits, r_xbar, stick
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError

XOR, AND = "XOR", "AND"
ONE = 0  # the constant-1 wire of every circuit
BLOCK_BITS = 8  # bits per ripple block of _compare_stages


Gate = namedtuple("Gate", "op a b out")  # out = a op b


@dataclass
class BooleanCircuit:
    gen_inputs: list = field(default_factory=list)
    eval_inputs: list = field(default_factory=list)
    gates: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    n_wires: int = ONE + 1
    _tweaks: dict = field(default_factory=dict, repr=False, compare=False)

    def new_wire(self) -> int:
        w = self.n_wires
        self.n_wires += 1
        return w

    def emit(self, op: str, a: int, b: int) -> int:
        if op not in (XOR, AND):
            raise DomainError(f"gate op {op!r} is neither XOR nor AND")
        out = self.new_wire()
        self.gates.append(Gate(op, a, b, out))
        return out

    def nonfree_gates(self):
        return [g for g in self.gates if g.op == AND]

    @cached_property
    def schedule(self):
        """The gates by AND-depth, for the garbling loops: one
        (free, nonfree) step per depth d, where free holds the XOR gates
        at depth d as (a, b, out) tuples, in gate order, and nonfree the
        AND gates at depth d + 1 as (a, b, out, j), j being the gate's
        index among the AND gates.  Run in order, every input is ready
        before its gate: an XOR gate's come from earlier in its step or
        from earlier steps, an AND gate's from its step's XOR gates or
        earlier steps, so a step's AND gates can be hashed together.
        Computed on first use, so build the circuit completely first."""
        depth = [0] * self.n_wires
        free, nonfree = [[]], [[]]
        j = 0
        for g in self.gates:
            d = max(depth[g.a], depth[g.b])
            depth[g.out] = d + (g.op == AND)
            if g.op == AND:
                if d + 1 == len(free):
                    free.append([])
                    nonfree.append([])
                nonfree[d].append((g.a, g.b, g.out, j))
                j += 1
            else:
                free[d].append((g.a, g.b, g.out))
        return tuple((tuple(f), tuple(n)) for f, n in zip(free, nonfree))

    def hash_tweaks(self, lanes: int) -> tuple:
        """The tweaks of each schedule step's hashes, bytes per step
        (empty for a step without AND gates), for aes.tccr: 2j and
        2j + 1, the tweaks of AND gate j's two halves (garbling), as
        16-byte big-endian blocks in step order, each repeated over
        `lanes` lanes.  Computed once per lane count, so build the
        circuit completely first."""
        tweaks = self._tweaks.get(lanes)
        if tweaks is None:
            tweaks = self._tweaks[lanes] = tuple(
                b"".join(t.to_bytes(16, "big") * lanes
                         for *_, j in nonfree for t in (2 * j, 2 * j + 1))
                for _, nonfree in self.schedule)
        return tweaks


def int_to_bits(v: int, width: int):
    return [(v >> i) & 1 for i in range(width)]


def _inputs(circuit: BooleanCircuit, count_gen: int, count_eval: int):
    circuit.gen_inputs = [circuit.new_wire() for _ in range(count_gen)]
    circuit.eval_inputs = [circuit.new_wire() for _ in range(count_eval)]


def _ripple(c: BooleanCircuit, x: list, xbar: list):
    """[xbar == x] and [xbar > x] of one block, rippled from its low bit
    with two ANDs per bit but the lowest, which takes one.  Bit j's
    difference d = xbar_j XOR x_j feeds both chains: eq &= NOT d, and
    gt ^= (xbar_j XOR gt) AND d, which sets gt to xbar_j where the bits
    differ and keeps it where they agree."""
    d = c.emit(XOR, xbar[0], x[0])
    eq = c.emit(XOR, d, ONE)
    gt = c.emit(AND, xbar[0], d)
    for xb, xj in zip(xbar[1:], x[1:]):
        d = c.emit(XOR, xb, xj)
        eq = c.emit(AND, c.emit(XOR, d, ONE), eq)
        gt = c.emit(XOR, gt, c.emit(AND, c.emit(XOR, xb, gt), d))
    return eq, gt


def _compare_stages(c: BooleanCircuit, x: list, xbar: list):
    """Wires for [xbar != x] and [xbar > x].

    The bits are cut into blocks of BLOCK_BITS from the low end, and
    each block ripples on its own (_ripple), after Kolesnikov, Sadeghi
    and Schneider (CANS 2009).  A balanced tree then merges adjacent
    blocks' (eq, gt) pairs, the high one deciding unless it is equal:
    eq = eq_hi AND eq_lo and gt = gt_hi XOR (eq_hi AND gt_lo), two ANDs
    per merge.  Over w bits in B = ceil(w / BLOCK_BITS) blocks that is
    2w + B - 2 AND gates, min(w, BLOCK_BITS) + ceil(log2 B) levels
    deep: 137 gates and 12 levels at w = 65, against 129 gates and 65
    levels for one ripple over all w bits.
    """
    pairs = [_ripple(c, x[i:i + BLOCK_BITS], xbar[i:i + BLOCK_BITS])
             for i in range(0, len(x), BLOCK_BITS)]
    while len(pairs) > 1:
        merged = []
        for (eq_lo, gt_lo), (eq_hi, gt_hi) in zip(pairs[::2], pairs[1::2]):
            merged.append((
                c.emit(AND, eq_hi, eq_lo),
                c.emit(XOR, gt_hi, c.emit(AND, eq_hi, gt_lo))))
        pairs = merged + pairs[len(merged) * 2:]
    eq, gt = pairs[0]
    return c.emit(XOR, eq, ONE), gt


def build_comparator(width: int) -> BooleanCircuit:
    """Equality/greater-than circuit over width-bit inputs, with
    outputs ([xbar != x], [xbar > x])."""
    if width < 1:
        raise DomainError("comparator width must be >= 1")
    c = BooleanCircuit()
    _inputs(c, width, width)
    c.outputs = list(_compare_stages(c, c.gen_inputs, c.eval_inputs))
    return c


def _mux(c: BooleanCircuit, sel: int, on_true: int, on_false: int) -> int:
    # on_false ^ (sel & (on_true ^ on_false)): one AND, rest free
    return c.emit(XOR, on_false,
                  c.emit(AND, sel, c.emit(XOR, on_true, on_false)))


def build_fh_comparator(width: int) -> BooleanCircuit:
    """Frequency-hiding variant: one traversal bit.

    Output b, [xbar > x] when the inputs differ and, when they are
    equal, the coin r_xbar ^ (r_x AND NOT stick).  An encrypt sets
    stick = 0 and a fresh r_xbar, so both parties' coins count; a bound
    sets stick = 1 and r_xbar to its side, so ties go its way whatever
    r_x is.
    """
    if width < 1:
        raise DomainError("comparator width must be >= 1")
    c = BooleanCircuit()
    _inputs(c, width + 1, width + 2)
    x, r_x = c.gen_inputs[:width], c.gen_inputs[width]
    xbar, (r_xbar, stick) = c.eval_inputs[:width], c.eval_inputs[width:]

    b_e, b_g = _compare_stages(c, x, xbar)
    coin = c.emit(XOR, r_xbar, c.emit(AND, r_x, c.emit(XOR, stick, ONE)))
    c.outputs = [_mux(c, b_e, b_g, coin)]
    return c
