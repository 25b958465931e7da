"""Garbling scheme for boolean circuits: half-gates over integer labels.

Labels are 128-bit Python ints, so XORing two labels is one native
operation; they become bytes only in the wire format.  The generator
draws a global offset Δ with its low bit set, so every wire's one-label
is its zero-label XOR Δ and a label's low bit is its permute bit.  XOR
gates are free (the output zero-label is the XOR of the input
zero-labels), and so is NOT (the generator XORs Δ into the zero-label,
the evaluator copies its label).

AND gates are half-gates (Zahur, Rosulek and Evans, "Two Halves Make a
Whole", EUROCRYPT 2015).  Non-free gate j carries two 16-byte
ciphertexts, the generator half T_G and the evaluator half T_E; the
generator makes four hashes per gate and the evaluator two.  The hash
is H(X, t) = SHA-256(X as 16 big-endian bytes || u32 t)[:16], with the
tweaks t = 2j for the generator half and 2j + 1 for the evaluator half.
An OR gate is an AND gate under De Morgan with free NOTs: the generator
XORs Δ into both input zero-labels and into the output zero-label, and
the evaluator treats OR exactly like AND.

Decoding maps an output label to a bit through a hash of each of the
wire's two labels and rejects labels produced by anything but an honest
evaluation.

Wire format (the GC_PAYLOAD frame), big-endian:

  circuit id u32 | width u16 | table count u32
  T_G || T_E per non-free gate, 32 bytes each
  SHA-256("out" || zero-label)[:16] || the same of the one-label,
      32 bytes per output
  generator label count u16 | one 16-byte label per generator input

so a payload is exactly 10 + 32·tables + 32·outputs + 2 + 16·labels
bytes long, whatever the input bits.

Correctness contract: decode(d, evaluate(F, T, encode(gen wires, x),
labels of y)) equals eval_plain(circuit, x, y) for every input, checked
exhaustively in the tests for small widths.
"""

import hashlib

from .comparator import NOT, OR, XOR, BooleanCircuit
from .errors import IntegrityError, ProtocolError
from .wire import read_int, u16, u32

LABEL_BYTES = 16
_LABEL_BITS = 8 * LABEL_BYTES
_HEADER_BYTES = 10
_sha256 = hashlib.sha256


# The gate loops inline H(X, t) as
#   int.from_bytes(_sha256((X << 32 | t).to_bytes(20, "big")).digest(),
#                  "big") >> 128
# which is SHA-256(X as 16 bytes || u32 t)[:16] read as an integer.

def _decode_hash(label: int) -> bytes:
    return _sha256(b"out" + label.to_bytes(LABEL_BYTES, "big")).digest()[
        :LABEL_BYTES]


class GarbledCircuit:
    """Generator-side garbling of one circuit instance.

    `tables` is a flat list of ints: T_G of non-free gate j at index 2j
    and T_E at 2j + 1, the indices that are also the gate's hash tweaks.
    """

    def __init__(self, circuit: BooleanCircuit, rng):
        self.circuit = circuit
        delta = rng.getrandbits(_LABEL_BITS) | 1
        label0 = [0] * circuit.n_wires
        for w in circuit.gen_inputs + circuit.eval_inputs:
            label0[w] = rng.getrandbits(_LABEL_BITS)
        tables = []
        sha = _sha256
        for op, a, b, out in circuit.compiled:
            if op == XOR:
                label0[out] = label0[a] ^ label0[b]
            elif op == NOT:
                label0[out] = label0[a] ^ delta
            else:
                a0, b0 = label0[a], label0[b]
                if op == OR:
                    a0 ^= delta
                    b0 ^= delta
                t = len(tables)
                ha0 = int.from_bytes(sha((a0 << 32 | t).to_bytes(
                    20, "big")).digest(), "big") >> 128
                ha1 = int.from_bytes(sha(((a0 ^ delta) << 32 | t).to_bytes(
                    20, "big")).digest(), "big") >> 128
                t += 1
                hb0 = int.from_bytes(sha((b0 << 32 | t).to_bytes(
                    20, "big")).digest(), "big") >> 128
                hb1 = int.from_bytes(sha(((b0 ^ delta) << 32 | t).to_bytes(
                    20, "big")).digest(), "big") >> 128
                t_g = ha0 ^ ha1
                t_e = hb0 ^ hb1
                # generator half: a AND (permute bit of b)
                if b0 & 1:
                    t_g ^= delta
                w = ha0 ^ t_g if a0 & 1 else ha0
                # evaluator half: a AND (b XOR its permute bit)
                w ^= hb0 ^ t_e if b0 & 1 else hb0
                tables.append(t_g)
                tables.append(t_e ^ a0)
                label0[out] = w ^ delta if op == OR else w
        self._delta = delta
        self._label0 = label0
        self.tables = tables
        self.decode_info = [(_decode_hash(label0[w]),
                             _decode_hash(label0[w] ^ delta))
                            for w in circuit.outputs]

    def encode(self, wires, bits):
        """Map the generator's own input bits to labels."""
        return [self._label0[w] ^ self._delta if b & 1 else self._label0[w]
                for w, b in zip(wires, bits)]

    def eval_label_pairs(self):
        """(zero-label, one-label) per evaluator input wire, for the OT."""
        return [(self._label0[w], self._label0[w] ^ self._delta)
                for w in self.circuit.eval_inputs]


def evaluate(circuit: BooleanCircuit, tables, gen_labels, eval_labels):
    """Evaluate garbled tables; returns the output labels.

    gen_labels and eval_labels hold one label per wire of
    circuit.gen_inputs and circuit.eval_inputs, in that order.
    """
    labels = [0] * circuit.n_wires
    for w, label in zip(circuit.gen_inputs, gen_labels):
        labels[w] = label
    for w, label in zip(circuit.eval_inputs, eval_labels):
        labels[w] = label
    sha = _sha256
    t = 0
    for op, a, b, out in circuit.compiled:
        if op == XOR:
            labels[out] = labels[a] ^ labels[b]
        elif op == NOT:
            labels[out] = labels[a]
        else:
            la, lb = labels[a], labels[b]
            w = int.from_bytes(sha((la << 32 | t).to_bytes(
                20, "big")).digest(), "big") >> 128
            if la & 1:
                w ^= tables[t]
            t += 1
            w ^= int.from_bytes(sha((lb << 32 | t).to_bytes(
                20, "big")).digest(), "big") >> 128
            if lb & 1:
                w ^= tables[t] ^ la
            t += 1
            labels[out] = w
    return [labels[w] for w in circuit.outputs]


def decode(decode_info, output_labels):
    """Turn output labels into bits; rejects labels that match neither."""
    bits = []
    for (h0, h1), label in zip(decode_info, output_labels):
        h = _decode_hash(label)
        if h == h0:
            bits.append(0)
        elif h == h1:
            bits.append(1)
        else:
            raise IntegrityError("garbled output label failed to decode")
    return tuple(bits)


# --- wire format (module docstring) -----------------------------------------

def payload(gc: GarbledCircuit, gen_bits) -> bytes:
    c = gc.circuit
    gen_labels = gc.encode(c.gen_inputs, gen_bits)
    parts = [u32(c.circuit_id) + u16(c.width) + u32(len(gc.tables) // 2)]
    parts.extend([v.to_bytes(LABEL_BYTES, "big") for v in gc.tables])
    for h0, h1 in gc.decode_info:
        parts.append(h0)
        parts.append(h1)
    parts.append(u16(len(gen_labels)))
    parts.extend([v.to_bytes(LABEL_BYTES, "big") for v in gen_labels])
    return b"".join(parts)


def parse_payload(circuit: BooleanCircuit, buf: bytes):
    """Returns (tables, decode_info, generator labels in gen_inputs order)."""
    n_tables = len(circuit.nonfree_gates())
    expected = (_HEADER_BYTES + 2 * LABEL_BYTES * n_tables +
                2 * LABEL_BYTES * len(circuit.outputs) + 2 +
                LABEL_BYTES * len(circuit.gen_inputs))
    if len(buf) != expected:
        raise ProtocolError(f"garbled payload of {len(buf)} bytes, "
                            f"expected {expected}")
    cid, off = read_int(buf, 0, 4)
    width, off = read_int(buf, off, 2)
    if cid != circuit.circuit_id or width != circuit.width:
        raise ProtocolError("garbled payload does not match expected circuit")
    count, off = read_int(buf, off, 4)
    if count != n_tables:
        raise ProtocolError("garbled table count mismatch")
    end = off + 2 * LABEL_BYTES * count
    tables = [int.from_bytes(buf[i:i + LABEL_BYTES], "big")
              for i in range(off, end, LABEL_BYTES)]
    off = end
    decode_info = []
    for _ in circuit.outputs:
        decode_info.append((buf[off:off + LABEL_BYTES],
                            buf[off + LABEL_BYTES:off + 2 * LABEL_BYTES]))
        off += 2 * LABEL_BYTES
    n, off = read_int(buf, off, 2)
    if n != len(circuit.gen_inputs):
        raise ProtocolError("generator label count mismatch")
    labels = [int.from_bytes(buf[i:i + LABEL_BYTES], "big")
              for i in range(off, len(buf), LABEL_BYTES)]
    return tables, decode_info, labels
