"""Boolean comparator circuits.

One circuit computes both the inequality bit [xbar != x] and the
greater-than bit [xbar > x] over w-bit inputs, then XORs each output
with one masking bit from every party, so only a party holding both
masks can unmask a result.  The frequency-hiding variant folds a shared
random coin and the sticky previous-round state into the same circuit
and emits a single masked traversal bit.

Bit order is LSB first.  Input wire layout (generator = key owner
holding x, evaluator = analyst holding xbar):

  comparator:      gen = x bits, b_x, b'_x       eval = xbar bits, b_xbar, b'_xbar
  fh comparator:   gen = x bits, b_x, r_x, prev-equal share, prev-random share,
                         fresh equal-share mask, fresh random-share mask
                   eval = xbar bits, b_xbar, r_xbar, prev-equal share,
                          prev-random share
"""

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError

XOR, AND, OR, NOT = "XOR", "AND", "OR", "NOT"
NONFREE_OPS = (AND, OR)


@dataclass
class Gate:
    op: str
    a: int
    b: int  # -1 for NOT
    out: int


@dataclass
class BooleanCircuit:
    gen_inputs: list = field(default_factory=list)
    eval_inputs: list = field(default_factory=list)
    gates: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    n_wires: int = 0
    width: int = 0
    circuit_id: int = 0

    def new_wire(self) -> int:
        w = self.n_wires
        self.n_wires += 1
        return w

    def emit(self, op: str, a: int, b: int = -1) -> int:
        out = self.new_wire()
        self.gates.append(Gate(op, a, b, out))
        return out

    def nonfree_gates(self):
        return [g for g in self.gates if g.op in NONFREE_OPS]

    @cached_property
    def schedule(self):
        """The gates by AND-depth, for the garbling loops: one
        (free, nonfree) step per depth d, where free holds the free
        gates at depth d as (op, a, b, out) tuples, in gate order, and
        nonfree the non-free gates at depth d + 1 as (op, a, b, out, j),
        j being the gate's index among the non-free gates.  Run in
        order, every input is ready before its gate: a free gate's come
        from earlier in its step or from earlier steps, a non-free
        gate's from its step's free gates or earlier steps, so a step's
        non-free gates can be hashed together.  Computed on first use,
        so build the circuit completely first."""
        depth = [0] * self.n_wires
        free, nonfree = [[]], [[]]
        j = 0
        for g in self.gates:
            d = max(depth[g.a], depth[g.b]) if g.b >= 0 else depth[g.a]
            if g.op in NONFREE_OPS:
                depth[g.out] = d + 1
                if d + 1 == len(free):
                    free.append([])
                    nonfree.append([])
                nonfree[d].append((g.op, g.a, g.b, g.out, j))
                j += 1
            else:
                depth[g.out] = d
                free[d].append((g.op, g.a, g.b, g.out))
        return tuple((tuple(f), tuple(n)) for f, n in zip(free, nonfree))


def int_to_bits(v: int, width: int):
    return [(v >> i) & 1 for i in range(width)]


def _inputs(circuit: BooleanCircuit, count_gen: int, count_eval: int):
    circuit.gen_inputs = [circuit.new_wire() for _ in range(count_gen)]
    circuit.eval_inputs = [circuit.new_wire() for _ in range(count_eval)]


def _compare_stages(c: BooleanCircuit, x: list, xbar: list):
    """Ripple stages: returns wires for [xbar != x] and [xbar > x]."""
    width = len(x)
    # stage 0 unrolled: both carries start at 0
    ce = c.emit(XOR, xbar[0], x[0])
    cg = c.emit(AND, xbar[0], c.emit(NOT, x[0]))
    for j in range(1, width):
        ce = c.emit(OR, c.emit(XOR, xbar[j], x[j]), ce)
        u = c.emit(AND, c.emit(XOR, xbar[j], cg), c.emit(XOR, x[j], cg))
        cg = c.emit(XOR, u, xbar[j])
    return ce, cg


def build_comparator(width: int) -> BooleanCircuit:
    """Masked equality/greater-than circuit over width-bit inputs.

    Outputs ([xbar != x] ^ b_x ^ b_xbar, [xbar > x] ^ b'_x ^ b'_xbar).
    """
    if width < 1:
        raise DomainError("comparator width must be >= 1")
    c = BooleanCircuit(width=width, circuit_id=width)
    _inputs(c, width + 2, width + 2)
    x, (bx, bpx) = c.gen_inputs[:width], c.gen_inputs[width:]
    xbar, (bxb, bpxb) = c.eval_inputs[:width], c.eval_inputs[width:]
    ce, cg = _compare_stages(c, x, xbar)
    c.outputs = [c.emit(XOR, c.emit(XOR, ce, bx), bxb),
                 c.emit(XOR, c.emit(XOR, cg, bpx), bpxb)]
    return c


def _mux(c: BooleanCircuit, sel: int, on_true: int, on_false: int) -> int:
    # on_false ^ (sel & (on_true ^ on_false)): one AND, rest free
    return c.emit(XOR, on_false,
                  c.emit(AND, sel, c.emit(XOR, on_true, on_false)))


def build_fh_comparator(width: int) -> BooleanCircuit:
    """Frequency-hiding variant: one masked traversal bit plus re-shared state.

    Traversal bit: the greater-than result when the inputs differ, a
    shared coin on first equality, and the previous coin on repeated
    equality.  The updated (prev-equal, prev-coin) state leaves the
    circuit XORed with the generator's fresh mask bits, which become the
    generator's next-round shares.
    """
    if width < 1:
        raise DomainError("comparator width must be >= 1")
    c = BooleanCircuit(width=width, circuit_id=(1 << 16) | width)
    _inputs(c, width + 6, width + 4)
    x = c.gen_inputs[:width]
    b_o, r_x, sh_e_o, sh_r_o, s_e, s_r = c.gen_inputs[width:]
    xbar = c.eval_inputs[:width]
    b_a, r_xbar, sh_e_a, sh_r_a = c.eval_inputs[width:]

    b_e, b_g = _compare_stages(c, x, xbar)
    coin = c.emit(XOR, r_xbar, r_x)
    prev_e = c.emit(XOR, sh_e_a, sh_e_o)
    prev_r = c.emit(XOR, sh_r_a, sh_r_o)
    # prev_e = 1 means no equality seen yet: use the fresh coin
    chosen = _mux(c, prev_e, coin, prev_r)
    b = _mux(c, b_e, b_g, chosen)
    c.outputs = [c.emit(XOR, c.emit(XOR, b, b_a), b_o),
                 c.emit(XOR, c.emit(AND, prev_e, b_e), s_e),
                 c.emit(XOR, chosen, s_r)]
    return c

