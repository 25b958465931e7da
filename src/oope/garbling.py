"""Garbling scheme for boolean circuits: half-gates over integer labels,
garbled BATCH instances at a time under a fixed-key AES hash.

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
generator makes four hashes per gate and the evaluator two.  An OR gate
is an AND gate under De Morgan with free NOTs: the generator XORs Δ
into both input zero-labels and into the output zero-label, and the
evaluator treats OR exactly like AND.

The hash is H(X, t) = π(π(X) ⊕ t) ⊕ π(X) (aes.tccr), with π AES-128
under a fixed public key and the tweaks t = 2j for the generator half
and 2j + 1 for the evaluator half.  Half-gates needs H to be tweakable
circular correlation robust (TCCR): the values H(X ⊕ Δ, t) ⊕ b·Δ, for
inputs X, tweaks t and bits b of the adversary's choosing and one tweak
per gate half, must look random to anyone who does not know Δ.  Guo,
Katz, Wang and Yu ("Efficient and secure multiparty computation from
fixed-key block ciphers", S&P 2020) prove this H TCCR when π is an
ideal (random) permutation, which is the assumption on AES here: a
distinguisher that sees q hash outputs and makes p queries of its own
to π, which it can compute under the public key, wins with probability
about q·p/2^128.  Naive fixed-key hashing such as π(X) ⊕ X, which
Bellare, Hoang, Keelveedhi and Rogaway (S&P 2013) used, falls short of
TCCR, which is why H calls π twice.  The bound counts every hash of
every instance ever garbled, so it covers all batches together: with
Δ uniform per instance, the distinguisher's only way in is a π query
that hits a point X ⊕ Δ of some instance, and each of its p queries
hits one of the q hashed points with probability about q/2^128.

Batches.  GarbledCircuit garbles BATCH instances in one pass.  Lane i
of every batch-wide int is instance i's 128-bit value (bits
128·(BATCH−1−i) up, so lane i is block i of the int's big-endian
bytes), and XOR on batch-wide ints is XOR in every lane at once.  Each
lane has its own Δ and its own fresh input labels, so the lanes are
independent garblings: the evaluator of one instance sees exactly what
it would see of a circuit garbled alone.  Every lane hashes gate j
under the same tweaks 2j and 2j + 1.  That is harmless: TCCR forbids
reusing a tweak under one Δ, and the lanes' Δs are independent and
uniform, so one lane's queries tell nothing about another's hashes
beyond the q·p/2^128 above (q counting every lane).  The gates run in
the AND-depth order of circuit.schedule, and all hashes of one level,
in every lane, go through one aes.tccr call: one pair of AES calls per
level, 65 levels for the det comparator at the paper width instead of
four SHA-256 calls per gate.  The evaluator walks the same schedule
for its one instance, one pair of AES calls per level.  pop() hands
each instance out once; the owner keeps the batch as its pool
(engine).

Decoding maps an output label to a bit through SHA-256("out" ||
label)[:16] of each of the wire's two labels and rejects labels
produced by anything but an honest evaluation.

The AES calls go through the libcrypto that hashlib loads (aes); a
Python without OpenSSL cannot garble or evaluate.

Wire format (the GC_PAYLOAD frame), big-endian:

  circuit id u32 | width u16 | table count u32
  T_G || T_E per non-free gate, 32 bytes each
  SHA-256("out" || zero-label)[:16] || the same of the one-label,
      32 bytes per output
  generator label count u16 | one 16-byte label per generator input

so a payload is exactly 10 + 32·tables + 32·outputs + 2 + 16·labels
bytes long, whatever the input bits.

Correctness contract: decode(d, evaluate(F, T, encode(gen wires, x),
labels of y)) equals the gate-by-gate evaluation of the circuit on
(x, y) for every input (eval_plain in tests/oracles.py), in every lane
of a batch, checked exhaustively in the tests for small widths.
"""

import hashlib

import numpy as np

from . import aes
from .comparator import OR, XOR, BooleanCircuit
from .errors import IntegrityError, ProtocolError
from .wire import read_int, u16, u32

LABEL_BYTES = 16
BATCH = 32  # instances garbled per pass
_LABEL_BITS = 8 * LABEL_BYTES
_LABEL_MASK = (1 << _LABEL_BITS) - 1
_BATCH_BITS = BATCH * _LABEL_BITS
_BATCH_BYTES = BATCH * LABEL_BYTES
_LOW_BITS = sum(1 << (_LABEL_BITS * i) for i in range(BATCH))
_HEADER_BYTES = 10
_sha256 = hashlib.sha256


def _decode_hash(label: int) -> bytes:
    return _sha256(b"out" + label.to_bytes(LABEL_BYTES, "big")).digest()[
        :LABEL_BYTES]


def _lane_masks(v: int) -> int:
    """All ones in every lane whose low (permute) bit is set in v."""
    low = v & _LOW_BITS
    return (low << _LABEL_BITS) - low


def _split(v: int, count: int, width: int) -> list:
    """The count ints of width bytes each packed big-endian in v."""
    blob = v.to_bytes(count * width, "big")
    return [int.from_bytes(blob[i:i + width], "big")
            for i in range(0, len(blob), width)]


class GarbledCircuit:
    """BATCH garbled instances of one circuit, garbled in one pass (module
    docstring); pop() hands each out once, as a GarbledInstance."""

    def __init__(self, circuit: BooleanCircuit, rng):
        delta = rng.getrandbits(_BATCH_BITS) | _LOW_BITS
        label0 = [0] * circuit.n_wires
        for w in circuit.gen_inputs + circuit.eval_inputs:
            label0[w] = rng.getrandbits(_BATCH_BITS)
        # T_G and T_E of gate j, all lanes, at blocks 2j and 2j + 1
        tables = bytearray(2 * _BATCH_BYTES * len(circuit.nonfree_gates()))
        for free, nonfree in circuit.schedule:
            for op, a, b, out in free:
                label0[out] = label0[a] ^ (label0[b] if op == XOR else delta)
            if not nonfree:
                continue
            inputs, tweaks = [], 0
            for op, a, b, _, j in nonfree:
                a0, b0 = label0[a], label0[b]
                if op == OR:
                    a0 ^= delta
                    b0 ^= delta
                inputs += (a0, a0 ^ delta, b0, b0 ^ delta)
                t_a, t_b = 2 * j * _LOW_BITS, (2 * j + 1) * _LOW_BITS
                tweaks = ((((tweaks << _BATCH_BITS | t_a) << _BATCH_BITS |
                           t_a) << _BATCH_BITS | t_b) << _BATCH_BITS | t_b)
            hashes = _split(aes.tccr(b"".join(
                [v.to_bytes(_BATCH_BYTES, "big") for v in inputs]), tweaks),
                len(inputs), _BATCH_BYTES)
            for k, (op, a, b, out, j) in enumerate(nonfree):
                a0, b0 = inputs[4 * k], inputs[4 * k + 2]
                ha0, ha1, hb0, hb1 = hashes[4 * k:4 * k + 4]
                permute_b = _lane_masks(b0)
                # generator half: a AND (permute bit of b)
                t_g = ha0 ^ ha1 ^ (delta & permute_b)
                t_e = hb0 ^ hb1
                w = ha0 ^ (t_g & _lane_masks(a0))
                # evaluator half: a AND (b XOR its permute bit)
                w ^= hb0 ^ (t_e & permute_b)
                at = 2 * _BATCH_BYTES * j
                tables[at:at + 2 * _BATCH_BYTES] = (
                    t_g << _BATCH_BITS | (t_e ^ a0)).to_bytes(
                        2 * _BATCH_BYTES, "big")
                label0[out] = w ^ delta if op == OR else w
        # the instances keep only the labels they hand out
        kept = {w: label0[w] for w in circuit.gen_inputs +
                circuit.eval_inputs + circuit.outputs}
        del label0
        # (table, lane, 16 bytes) -> one T_G || T_E byte string per lane
        grid = np.frombuffer(tables, dtype=np.uint8).reshape(
            -1, BATCH, LABEL_BYTES)
        self._instances = [
            GarbledInstance(circuit, grid[:, i].tobytes(), kept, delta,
                            _LABEL_BITS * (BATCH - 1 - i))
            for i in reversed(range(BATCH))]

    def __len__(self):
        return len(self._instances)

    def pop(self) -> "GarbledInstance":
        """The next instance, which leaves the batch; IndexError once
        all BATCH are taken."""
        return self._instances.pop()


class GarbledInstance:
    """One lane of a GarbledCircuit: `table_bytes` is T_G || T_E of each
    non-free gate as GC_PAYLOAD carries them, `decode_info` the decode
    hashes of each output."""

    def __init__(self, circuit, table_bytes, label0, delta, shift):
        self.circuit = circuit
        self.table_bytes = table_bytes
        # batch-wide zero-labels of the input and output wires; this
        # lane is read by shift
        self._label0 = label0
        self._shift = shift
        self._delta = delta >> shift & _LABEL_MASK
        self.decode_info = [(_decode_hash(z), _decode_hash(z ^ self._delta))
                            for z in self._zero_labels(circuit.outputs)]

    def _zero_labels(self, wires):
        s, label0 = self._shift, self._label0
        return [label0[w] >> s & _LABEL_MASK for w in wires]

    def encode(self, wires, bits):
        """Map the generator's own input bits to labels."""
        return [z ^ self._delta if b & 1 else z
                for z, b in zip(self._zero_labels(wires), bits)]

    def eval_label_pairs(self):
        """(zero-label, one-label) per evaluator input wire, for the OT."""
        return [(z, z ^ self._delta)
                for z in self._zero_labels(self.circuit.eval_inputs)]


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
    for free, nonfree in circuit.schedule:
        for op, a, b, out in free:
            labels[out] = labels[a] ^ labels[b] if op == XOR else labels[a]
        if not nonfree:
            continue
        inputs = tweaks = 0
        for _, a, b, _, j in nonfree:
            inputs = (inputs << _LABEL_BITS | labels[a]) << _LABEL_BITS | \
                labels[b]
            tweaks = (tweaks << _LABEL_BITS | 2 * j) << _LABEL_BITS | \
                2 * j + 1
        hashes = aes.tccr(inputs.to_bytes(2 * LABEL_BYTES * len(nonfree),
                                          "big"), tweaks)
        # H(la, 2j) ^ H(lb, 2j + 1) in the low half of each gate's 256 bits
        hashes ^= hashes >> _LABEL_BITS
        for _, a, b, out, j in reversed(nonfree):
            w = hashes & _LABEL_MASK
            hashes >>= 2 * _LABEL_BITS
            la = labels[a]
            if la & 1:
                w ^= tables[2 * j]
            if labels[b] & 1:
                w ^= tables[2 * j + 1] ^ la
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

def payload(gc: GarbledInstance, gen_bits) -> bytes:
    c = gc.circuit
    gen_labels = gc.encode(c.gen_inputs, gen_bits)
    parts = [u32(c.circuit_id) + u16(c.width) +
             u32(len(gc.table_bytes) // (2 * LABEL_BYTES)), gc.table_bytes]
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
