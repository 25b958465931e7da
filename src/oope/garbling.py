"""Garbling scheme for boolean circuits: half-gates over integer labels,
any number of instances garbled at once under a fixed-key AES hash.

Inside the gate loops of GarbledCircuit and evaluate, labels are
128-bit Python ints, so XORing two labels is one native operation.
Everywhere else they are numpy uint8 rows of 16 bytes, each row the
label's big-endian bytes as GC_PAYLOAD and the OT reply carry it: a
lane's generator labels (encode), every lane's evaluator label pairs
(eval_pairs, an (lanes·n, 2, 16) array for the OT) and the evaluator
labels the OT delivers; evaluate reads the generator labels as payload
bytes and returns the output labels as the bytes the analyst sends.  A
GarbledCircuit cuts the lanes' rows, garbled tables and decode hashes
out of the batch-wide ints once per batch.

The generator draws a global offset Δ with its low bit set, so every
wire's one-label is its zero-label XOR Δ and a label's low bit is its
permute bit.  XOR gates are free: the output zero-label is the XOR of
the input zero-labels.  The constant wire ONE (comparator) has
zero-label Δ, so the label the evaluator holds for it, its one-label,
is 0 and never travels.  NOT a = XOR(a, ONE) is free too, and an AND
of negations hashes the labels an OR garbled under De Morgan would, so
its tables are that OR's.

AND gates are half-gates (Zahur, Rosulek and Evans, "Two Halves Make a
Whole", EUROCRYPT 2015).  AND gate j carries two 16-byte ciphertexts,
the generator half T_G and the evaluator half T_E; the generator makes
four hashes per gate and the evaluator two.

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

Batches.  GarbledCircuit(circuit, rng, lanes) garbles `lanes` instances
in one pass.  Lane i of every batch-wide int is instance i's 128-bit
value (bits 128·(lanes−1−i) up, so lane i is block i of the int's
big-endian bytes), and XOR on batch-wide ints is XOR in every lane at
once.  Each lane has its own Δ and its own fresh input labels, so the
lanes are independent garblings: the evaluator of one instance sees
exactly what it would see of a circuit garbled alone.  Every lane
hashes gate j under the same tweaks 2j and 2j + 1.  That is harmless:
TCCR forbids reusing a tweak under one Δ, and the lanes' Δs are
independent and uniform, so one lane's queries tell nothing about
another's hashes beyond the q·p/2^128 above (q counting every lane).  The gates run in
the AND-depth order of circuit.schedule, and all hashes of one level,
in every lane, go through one aes.tccr call: one pair of AES calls per
level, 11 levels for the det comparator at the paper width (comparator)
instead of four SHA-256 calls per gate.  The evaluator walks the same
schedule for its one instance, one pair of AES calls per level.  Each
level's tweaks are packed into bytes once per circuit and lane count
(circuit.hash_tweaks), one lane wide for the evaluator and a batch's
lanes wide for the generator, which hashes a level's zero-labels and
then its one-labels under the tweaks twice over.  The owner garbles
one batch per session, a lane per round, and sends every lane's tables
in round 1 (engine).

The evaluator reads the tables as the payload's bytes and converts a
ciphertext to an int only where a permute bit selects it: T_G of gate j
when its first input label has the low bit set, T_E when its second
does, so about half of them.

Decoding maps an output label to a bit through its decode hashes,
SHA-256("out" || label)[:16] of each of the wire's two labels, and
rejects a label that matches neither.  Decoding runs at the server: the
owner sends it a session's decode hashes (engine, SHARES) and the
analyst the output labels it computed, never the hashes, so the analyst
learns no output.  By the authenticity of garbled circuits
(Bellare, Hoang and Rogaway, CCS 2012) the analyst cannot make the
label of the output it did not compute, so a label that decodes is the
honest evaluation's.

The AES calls go through the libcrypto that hashlib loads (aes); a
Python without OpenSSL cannot garble or evaluate.

Wire format (in GC_PAYLOAD), big-endian:

  a lane's labels (payload): one 16-byte label per generator input
  every lane's tables (tables): T_G || T_E per AND gate, 32 bytes each

so a lane's labels are exactly 16·labels bytes long, whatever the input
bits, and its tables 32·gates.  The decode hashes travel apart, as
SHA-256("out" || zero-label)[:16] || the same of the one-label, 32
bytes per output of each lane, lane by lane (decode_hashes), and the
output labels as 16 bytes each.  Nothing names the circuit: every end
builds it from the parameters whose digest HELLO checked.

Correctness contract: decode(d, evaluate(F, T, payload of x, labels of
y)) equals the gate-by-gate evaluation of the circuit on (x, y) for
every input (eval_plain in tests/oracles.py), in every lane of a
batch, checked exhaustively in the tests for small widths.
"""

import hashlib

import numpy as np

from . import aes
from .comparator import ONE, BooleanCircuit
from .errors import IntegrityError

LABEL_BYTES = 16
_LABEL_BITS = 8 * LABEL_BYTES
_LABEL_MASK = (1 << _LABEL_BITS) - 1
_sha256 = hashlib.sha256


def _decode_hash(label: bytes) -> bytes:
    return _sha256(b"out" + label).digest()[:LABEL_BYTES]


def _lane_masks(v: int, low: int) -> int:
    """All ones in every lane whose low (permute) bit is set in v, low
    being the low bit of every lane."""
    v &= low
    return (v << _LABEL_BITS) - v


def _lanes(values, lanes: int):
    """Each lane's rows of the batch-wide ints values: a (lanes,
    len(values), 16) uint8 array."""
    blob = b"".join([v.to_bytes(lanes * LABEL_BYTES, "big") for v in values])
    return np.frombuffer(blob, dtype=np.uint8).reshape(
        len(values), lanes, LABEL_BYTES).swapaxes(0, 1).copy()


def _split(blob: bytes, width: int) -> list:
    """The big-endian ints of blob's successive width-byte fields."""
    return [int.from_bytes(blob[i:i + width], "big")
            for i in range(0, len(blob), width)]


class GarbledCircuit:
    """`lanes` garbled instances of one circuit, garbled in one pass
    (module docstring).  tables holds every lane's T_G || T_E of each
    AND gate, eval_pairs every lane's (zero-label, one-label) rows per
    evaluator input wire, an (lanes·n, 2, 16) array for the OT, and
    decode_hashes every lane's decode hashes of each output, all lane by
    lane; encode(lane, bits) gives a lane's generator labels."""

    def __init__(self, circuit: BooleanCircuit, rng, lanes: int):
        width = lanes * LABEL_BYTES  # the bytes of a batch-wide int
        low = int.from_bytes((bytes(LABEL_BYTES - 1) + b"\1") * lanes, "big")
        delta = rng.getrandbits(8 * width) | low
        label0 = [0] * circuit.n_wires
        label0[ONE] = delta
        for w in circuit.gen_inputs + circuit.eval_inputs:
            label0[w] = rng.getrandbits(8 * width)
        # T_G and T_E of gate j, all lanes, at blocks 2j and 2j + 1
        tables = bytearray(2 * width * len(circuit.nonfree_gates()))
        for (free, nonfree), tweaks in zip(circuit.schedule,
                                           circuit.hash_tweaks(lanes)):
            for a, b, out in free:
                label0[out] = label0[a] ^ label0[b]
            if not nonfree:
                continue
            # the gates' input zero-labels, then their one-labels, each
            # a and b of gate j hashed under 2j and 2j + 1
            zeros = [label0[w] for a, b, _, _ in nonfree for w in (a, b)]
            n = len(zeros)
            hashes = _split(aes.tccr(b"".join(
                [v.to_bytes(width, "big") for v in zeros] +
                [(v ^ delta).to_bytes(width, "big") for v in zeros]),
                tweaks + tweaks), width)
            for k, (a, b, out, j) in enumerate(nonfree):
                a0, b0 = zeros[2 * k], zeros[2 * k + 1]
                ha0, hb0 = hashes[2 * k], hashes[2 * k + 1]
                ha1, hb1 = hashes[n + 2 * k], hashes[n + 2 * k + 1]
                permute_b = _lane_masks(b0, low)
                # generator half: a AND (permute bit of b)
                t_g = ha0 ^ ha1 ^ (delta & permute_b)
                t_e = hb0 ^ hb1
                w = ha0 ^ (t_g & _lane_masks(a0, low))
                # evaluator half: a AND (b XOR its permute bit)
                label0[out] = w ^ hb0 ^ (t_e & permute_b)
                at = 2 * width * j
                tables[at:at + 2 * width] = (
                    t_g << 8 * width | (t_e ^ a0)).to_bytes(2 * width, "big")
        deltas = _lanes([delta], lanes)[:, 0]
        gen0, eval0, out0 = (_lanes([label0[w] for w in ws], lanes)
                             for ws in (circuit.gen_inputs,
                                        circuit.eval_inputs, circuit.outputs))
        self.tables = np.frombuffer(tables, dtype=np.uint8).reshape(
            -1, lanes, LABEL_BYTES).swapaxes(0, 1).tobytes()
        self.eval_pairs = np.stack((eval0, eval0 ^ deltas[:, None]),
                                   axis=2).reshape(-1, 2, LABEL_BYTES)
        outs = np.stack((out0, out0 ^ deltas[:, None]), axis=2).tobytes()
        self.decode_hashes = b"".join([_decode_hash(outs[i:i + LABEL_BYTES])
                                       for i in range(0, len(outs),
                                                      LABEL_BYTES)])
        self._gen0 = gen0  # (lanes, len(gen_inputs), 16)
        self._deltas = deltas  # (lanes, 16)

    def encode(self, lane, bits):
        """The label rows of lane's generator input bits, one per wire of
        circuit.gen_inputs."""
        return self._gen0[lane] ^ (np.asarray(bits, dtype=np.uint8)[:, None] *
                                   self._deltas[lane])


def evaluate(circuit: BooleanCircuit, tables: bytes, gen_labels,
             eval_labels):
    """Evaluate garbled tables, T_G || T_E of each AND gate as
    GC_PAYLOAD carries them; returns the output labels, 16 bytes per
    wire of circuit.outputs.

    gen_labels are the bytes of a lane's payload, a 16-byte label per
    wire of circuit.gen_inputs, and eval_labels a uint8 array of one
    16-byte row per wire of circuit.eval_inputs.  A ciphertext is read
    only where a permute bit selects it.
    """
    labels = [0] * circuit.n_wires  # ONE's included (module docstring)
    # each label's two 64-bit halves, high then low
    halves = iter(np.frombuffer(gen_labels + eval_labels.tobytes(),
                                dtype=">u8").tolist())
    for w, hi, lo in zip(circuit.gen_inputs + circuit.eval_inputs, halves,
                         halves):
        labels[w] = hi << 64 | lo
    for (free, nonfree), tweaks in zip(circuit.schedule,
                                       circuit.hash_tweaks(1)):
        for a, b, out in free:
            labels[out] = labels[a] ^ labels[b]
        if not nonfree:
            continue
        inputs = 0
        for a, b, _, _ in nonfree:
            inputs = (inputs << _LABEL_BITS | labels[a]) << _LABEL_BITS | \
                labels[b]
        hashes = int.from_bytes(aes.tccr(inputs.to_bytes(
            2 * LABEL_BYTES * len(nonfree), "big"), tweaks), "big")
        # H(la, 2j) ^ H(lb, 2j + 1) in the low half of each gate's 256 bits
        hashes ^= hashes >> _LABEL_BITS
        for a, b, out, j in reversed(nonfree):
            w = hashes & _LABEL_MASK
            hashes >>= 2 * _LABEL_BITS
            la = labels[a]
            at = 2 * LABEL_BYTES * j
            if la & 1:
                w ^= int.from_bytes(tables[at:at + LABEL_BYTES], "big")
            if labels[b] & 1:
                w ^= int.from_bytes(
                    tables[at + LABEL_BYTES:at + 2 * LABEL_BYTES], "big") ^ la
            labels[out] = w
    return b"".join([labels[w].to_bytes(LABEL_BYTES, "big")
                     for w in circuit.outputs])


def decode(hashes: bytes, labels: bytes) -> tuple:
    """The bits of output labels, LABEL_BYTES each, by each output's
    decode hashes, the zero-label's then the one-label's; a label that
    matches neither is an IntegrityError."""
    bits = []
    for i in range(0, len(labels), LABEL_BYTES):
        h = _decode_hash(labels[i:i + LABEL_BYTES])
        if h == hashes[2 * i:2 * i + LABEL_BYTES]:
            bits.append(0)
        elif h == hashes[2 * i + LABEL_BYTES:2 * i + 2 * LABEL_BYTES]:
            bits.append(1)
        else:
            raise IntegrityError("garbled output label failed to decode")
    return tuple(bits)


# --- wire format (module docstring) -----------------------------------------

def payload(garbled: GarbledCircuit, lane: int, gen_bits) -> bytes:
    """The generator labels of gen_bits in lane, as GC_PAYLOAD carries
    them."""
    return garbled.encode(lane, gen_bits).tobytes()
