"""Garbling scheme for boolean circuits.

Point-and-permute tables with free XOR (and free NOT as XOR with the
global offset).  Labels are 128-bit; the pointer bit is the label's low
bit and the global offset has its low bit set.  Non-XOR gates carry a
four-row table of H(A, B, gate-index) one-time pads.  Decoding maps an
output label to a bit through a hash table and rejects labels produced
by anything but an honest evaluation.

Correctness contract: decode(d, evaluate(F, encode(e, x), encode(e, y)))
equals eval_plain(circuit, x, y) for every input, checked exhaustively
in the tests for small widths.
"""

import hashlib

from .comparator import AND, NOT, OR, XOR, BooleanCircuit
from .errors import IntegrityError, ProtocolError
from .wire import read_bytes, read_int, u16, u32, xor_bytes

LABEL_BYTES = 16


def _gate_hash(a: bytes, b: bytes, gate_index: int) -> bytes:
    return hashlib.sha256(a + b + u32(gate_index)).digest()[:LABEL_BYTES]


def _decode_hash(label: bytes) -> bytes:
    return hashlib.sha256(b"out" + label).digest()[:LABEL_BYTES]


def _apply(op, a, b):
    if op == AND:
        return a & b
    if op == OR:
        return a | b
    raise ProtocolError(f"gate {op} has no table")


class GarbledCircuit:
    """Generator-side garbling of one circuit instance."""

    def __init__(self, circuit: BooleanCircuit, rng):
        self.circuit = circuit
        self._delta = (rng.getrandbits(8 * LABEL_BYTES) | 1).to_bytes(
            LABEL_BYTES, "big")
        self._label0 = {}
        for w in circuit.gen_inputs + circuit.eval_inputs:
            self._label0[w] = rng.getrandbits(8 * LABEL_BYTES).to_bytes(
                LABEL_BYTES, "big")
        self.tables = []
        for idx, g in enumerate(circuit.gates):
            if g.op == XOR:
                self._label0[g.out] = xor_bytes(self._label0[g.a],
                                                self._label0[g.b])
            elif g.op == NOT:
                self._label0[g.out] = xor_bytes(self._label0[g.a], self._delta)
            else:
                out0 = rng.getrandbits(8 * LABEL_BYTES).to_bytes(
                    LABEL_BYTES, "big")
                self._label0[g.out] = out0
                rows = [None] * 4
                for va in (0, 1):
                    for vb in (0, 1):
                        a = self._label(g.a, va)
                        b = self._label(g.b, vb)
                        out = self._label(g.out, _apply(g.op, va, vb))
                        rows[(a[-1] & 1) << 1 | (b[-1] & 1)] = xor_bytes(
                            _gate_hash(a, b, idx), out)
                self.tables.append(rows)
        self.decode_info = [(_decode_hash(self._label(w, 0)),
                             _decode_hash(self._label(w, 1)))
                            for w in circuit.outputs]

    def _label(self, wire: int, bit: int) -> bytes:
        l0 = self._label0[wire]
        return xor_bytes(l0, self._delta) if bit else l0

    def encode(self, wires, bits):
        """Map the generator's own input bits to labels."""
        return [self._label(w, b & 1) for w, b in zip(wires, bits)]

    def eval_label_pairs(self):
        """(zero-label, one-label) per evaluator input wire, for the OT."""
        return [(self._label(w, 0), self._label(w, 1))
                for w in self.circuit.eval_inputs]


def evaluate(circuit: BooleanCircuit, tables, input_labels: dict):
    """Evaluate garbled tables over labels; returns output labels."""
    labels = dict(input_labels)
    t = 0
    for idx, g in enumerate(circuit.gates):
        if g.op == XOR:
            labels[g.out] = xor_bytes(labels[g.a], labels[g.b])
        elif g.op == NOT:
            labels[g.out] = labels[g.a]
        else:
            a, b = labels[g.a], labels[g.b]
            row = tables[t][(a[-1] & 1) << 1 | (b[-1] & 1)]
            labels[g.out] = xor_bytes(_gate_hash(a, b, idx), row)
            t += 1
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


# --- wire format ------------------------------------------------------------
# header: circuit id u32 | width u16 | table count u32
# body:   tables as 4 x 16-byte records, then decode pairs (2 x 16 bytes per
#         output), then generator labels (count u16, 16 bytes each)

def payload(gc: GarbledCircuit, gen_bits) -> bytes:
    c = gc.circuit
    parts = [u32(c.circuit_id), u16(c.width), u32(len(gc.tables))]
    for rows in gc.tables:
        parts.extend(rows)
    for h0, h1 in gc.decode_info:
        parts.append(h0)
        parts.append(h1)
    gen_labels = gc.encode(c.gen_inputs, gen_bits)
    parts.append(u16(len(gen_labels)))
    parts.extend(gen_labels)
    return b"".join(parts)


def parse_payload(circuit: BooleanCircuit, buf: bytes):
    """Returns (tables, decode_info, generator labels by wire)."""
    cid, off = read_int(buf, 0, 4)
    width, off = read_int(buf, off, 2)
    if cid != circuit.circuit_id or width != circuit.width:
        raise ProtocolError("garbled payload does not match expected circuit")
    count, off = read_int(buf, off, 4)
    if count != len(circuit.nonfree_gates()):
        raise ProtocolError("garbled table count mismatch")
    tables = []
    for _ in range(count):
        rows = []
        for _ in range(4):
            row, off = read_bytes(buf, off, LABEL_BYTES)
            rows.append(row)
        tables.append(rows)
    decode_info = []
    for _ in range(len(circuit.outputs)):
        h0, off = read_bytes(buf, off, LABEL_BYTES)
        h1, off = read_bytes(buf, off, LABEL_BYTES)
        decode_info.append((h0, h1))
    n, off = read_int(buf, off, 2)
    if n != len(circuit.gen_inputs):
        raise ProtocolError("generator label count mismatch")
    labels = {}
    for w in circuit.gen_inputs:
        lab, off = read_bytes(buf, off, LABEL_BYTES)
        labels[w] = lab
    return tables, decode_info, labels
