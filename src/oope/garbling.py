"""Garbling scheme for boolean circuits: half-gates over integer labels,
garbled BATCH instances at a time under a fixed-key AES hash.

Inside the gate loops of GarbledCircuit and evaluate, labels are
128-bit Python ints, so XORing two labels is one native operation.
Everywhere else they are numpy uint8 rows of 16 bytes, each row the
label's big-endian bytes as GC_PAYLOAD and the OT reply carry it: an
instance's generator labels (encode), its evaluator label pairs
(eval_label_pairs, an (n, 2, 16) array for the OT), the generator
labels parse_payload reads and the evaluator labels the OT delivers.
evaluate returns the output labels as the bytes the analyst sends.  A
GarbledCircuit cuts each lane's rows, its garbled tables and its decode
hashes out of the batch-wide ints once per batch.

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
level, 12 levels for the det comparator at the paper width (comparator)
instead of four SHA-256 calls per gate.  The evaluator walks the same
schedule for its one instance, one pair of AES calls per level.  Each
level's tweaks are packed into bytes once per circuit
(circuit.hash_tweaks), one lane wide for the evaluator and BATCH lanes
wide for the generator, which hashes a level's zero-labels and then its
one-labels under the tweaks twice over.  pop() hands each instance out
once; the owner keeps the batch as its pool (engine).

The evaluator reads the tables as the payload's bytes and converts a
ciphertext to an int only where a permute bit selects it: T_G of gate j
when its first input label has the low bit set, T_E when its second
does, so about half of them.

Decoding maps an output label to a bit through its decode hashes,
SHA-256("out" || label)[:16] of each of the wire's two labels, and
rejects a label that matches neither.  Decoding runs at the server: the
owner sends it an instance's decode hashes (engine, SHARES) and the
analyst the output labels it computed, never the hashes, so the
analyst learns no output.  By the authenticity of garbled circuits
(Bellare, Hoang and Rogaway, CCS 2012) the analyst cannot make the
label of the output it did not compute, so a label that decodes is the
honest evaluation's.

The AES calls go through the libcrypto that hashlib loads (aes); a
Python without OpenSSL cannot garble or evaluate.

Wire format (the GC_PAYLOAD frame), big-endian:

  T_G || T_E per AND gate, 32 bytes each
  one 16-byte label per generator input

so a payload is exactly 32·tables + 16·labels bytes long, whatever the
input bits.  An instance's decode hashes travel apart from it, as
SHA-256("out" || zero-label)[:16] || the same of the one-label, 32
bytes per output (GarbledInstance.decode_hashes), and the output labels
as 16 bytes each.  Nothing names the circuit: every end builds it from
the parameters whose digest HELLO checked.

Correctness contract: decode(d, evaluate(F, T, encode(x), labels of
y)) equals the gate-by-gate evaluation of the circuit on (x, y) for
every input (eval_plain in tests/oracles.py), in every lane of a
batch, checked exhaustively in the tests for small widths.
"""

import hashlib

import numpy as np

from . import aes
from .comparator import ONE, BooleanCircuit
from .errors import IntegrityError, ProtocolError

LABEL_BYTES = 16
BATCH = 32  # instances garbled per pass
_LABEL_BITS = 8 * LABEL_BYTES
_LABEL_MASK = (1 << _LABEL_BITS) - 1
_BATCH_BITS = BATCH * _LABEL_BITS
_BATCH_BYTES = BATCH * LABEL_BYTES
_LOW_BITS = sum(1 << (_LABEL_BITS * i) for i in range(BATCH))
_sha256 = hashlib.sha256


def _decode_hash(label: bytes) -> bytes:
    return _sha256(b"out" + label).digest()[:LABEL_BYTES]


def _lane_masks(v: int) -> int:
    """All ones in every lane whose low (permute) bit is set in v."""
    low = v & _LOW_BITS
    return (low << _LABEL_BITS) - low


def _lanes(values):
    """Each lane's rows of the batch-wide ints values: a (BATCH,
    len(values), 16) uint8 array."""
    blob = b"".join([v.to_bytes(_BATCH_BYTES, "big") for v in values])
    return np.frombuffer(blob, dtype=np.uint8).reshape(
        len(values), BATCH, LABEL_BYTES).swapaxes(0, 1).copy()


def _split(blob: bytes, width: int) -> list:
    """The big-endian ints of blob's successive width-byte fields."""
    return [int.from_bytes(blob[i:i + width], "big")
            for i in range(0, len(blob), width)]


class GarbledCircuit:
    """BATCH garbled instances of one circuit, garbled in one pass (module
    docstring); pop() hands each out once, as a GarbledInstance."""

    def __init__(self, circuit: BooleanCircuit, rng):
        delta = rng.getrandbits(_BATCH_BITS) | _LOW_BITS
        label0 = [0] * circuit.n_wires
        label0[ONE] = delta
        for w in circuit.gen_inputs + circuit.eval_inputs:
            label0[w] = rng.getrandbits(_BATCH_BITS)
        # T_G and T_E of gate j, all lanes, at blocks 2j and 2j + 1
        tables = bytearray(2 * _BATCH_BYTES * len(circuit.nonfree_gates()))
        for (free, nonfree), tweaks in zip(circuit.schedule,
                                           circuit.hash_tweaks(BATCH)):
            for a, b, out in free:
                label0[out] = label0[a] ^ label0[b]
            if not nonfree:
                continue
            # the gates' input zero-labels, then their one-labels, each
            # a and b of gate j hashed under 2j and 2j + 1
            zeros = [label0[w] for a, b, _, _ in nonfree for w in (a, b)]
            n = len(zeros)
            hashes = _split(aes.tccr(b"".join(
                [v.to_bytes(_BATCH_BYTES, "big") for v in zeros] +
                [(v ^ delta).to_bytes(_BATCH_BYTES, "big") for v in zeros]),
                tweaks + tweaks), _BATCH_BYTES)
            for k, (a, b, out, j) in enumerate(nonfree):
                a0, b0 = zeros[2 * k], zeros[2 * k + 1]
                ha0, hb0 = hashes[2 * k], hashes[2 * k + 1]
                ha1, hb1 = hashes[n + 2 * k], hashes[n + 2 * k + 1]
                permute_b = _lane_masks(b0)
                # generator half: a AND (permute bit of b)
                t_g = ha0 ^ ha1 ^ (delta & permute_b)
                t_e = hb0 ^ hb1
                w = ha0 ^ (t_g & _lane_masks(a0))
                # evaluator half: a AND (b XOR its permute bit)
                label0[out] = w ^ hb0 ^ (t_e & permute_b)
                at = 2 * _BATCH_BYTES * j
                tables[at:at + 2 * _BATCH_BYTES] = (
                    t_g << _BATCH_BITS | (t_e ^ a0)).to_bytes(
                        2 * _BATCH_BYTES, "big")
        deltas = _lanes([delta])[:, 0]
        gen0, eval0, out0 = (_lanes([label0[w] for w in wires]) for wires in (
            circuit.gen_inputs, circuit.eval_inputs, circuit.outputs))
        eval_pairs = np.stack((eval0, eval0 ^ deltas[:, None]), axis=2)
        # per lane: T_G || T_E of each gate, and apart from them the
        # decode hashes of each output's zero-label and one-label
        outs = np.stack((out0, out0 ^ deltas[:, None]), axis=2).tobytes()
        hashes = b"".join([_decode_hash(outs[i:i + LABEL_BYTES])
                           for i in range(0, len(outs), LABEL_BYTES)])
        lane_hashes = len(hashes) // BATCH
        grid = np.frombuffer(tables, dtype=np.uint8).reshape(
            -1, BATCH, LABEL_BYTES).swapaxes(0, 1)
        self._instances = [
            GarbledInstance(grid[i].tobytes(),
                            hashes[i * lane_hashes:(i + 1) * lane_hashes],
                            gen0[i], eval_pairs[i], deltas[i])
            for i in reversed(range(BATCH))]

    def __len__(self):
        return len(self._instances)

    def pop(self) -> "GarbledInstance":
        """The next instance, which leaves the batch; IndexError once
        all BATCH are taken."""
        return self._instances.pop()


class GarbledInstance:
    """One lane of a GarbledCircuit: `prefix` is its GC_PAYLOAD up to the
    generator labels, T_G || T_E of each AND gate, and `decode_hashes`
    the decode hashes of each output, which go to the server alone; its
    generator zero-labels, evaluator label pairs and Δ are 16-byte
    rows."""

    def __init__(self, prefix, decode_hashes, gen0, eval_pairs, delta):
        self.prefix = prefix
        self.decode_hashes = decode_hashes
        self._gen0 = gen0  # (len(gen_inputs), 16)
        self._eval_pairs = eval_pairs  # (len(eval_inputs), 2, 16)
        self._delta = delta  # (16,)

    def encode(self, bits):
        """The label rows of the generator's own input bits, one per wire
        of circuit.gen_inputs."""
        return self._gen0 ^ (np.asarray(bits, dtype=np.uint8)[:, None] *
                             self._delta)

    def eval_label_pairs(self):
        """(zero-label, one-label) rows per evaluator input wire, an
        (n, 2, 16) array for the OT."""
        return self._eval_pairs


def evaluate(circuit: BooleanCircuit, tables: bytes, gen_labels,
             eval_labels):
    """Evaluate garbled tables, T_G || T_E of each AND gate as
    GC_PAYLOAD carries them; returns the output labels, 16 bytes per
    wire of circuit.outputs.

    gen_labels and eval_labels are uint8 arrays of one 16-byte row per
    wire of circuit.gen_inputs and circuit.eval_inputs, in that order.
    A ciphertext is read only where a permute bit selects it.
    """
    labels = [0] * circuit.n_wires  # ONE's included (module docstring)
    # each row's two 64-bit halves, high then low
    halves = iter(np.concatenate((gen_labels, eval_labels)).view(
        ">u8").ravel().tolist())
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

def payload(gc: GarbledInstance, gen_bits) -> bytes:
    return gc.prefix + gc.encode(gen_bits).tobytes()


def parse_payload(circuit: BooleanCircuit, buf: bytes):
    """Returns (tables, generator label rows in gen_inputs order), tables
    being the payload's T_G || T_E bytes, for evaluate; a payload of any
    length but the circuit's is a ProtocolError."""
    # the AND gates, counted from the cached schedule
    labels_at = 2 * LABEL_BYTES * sum(len(nonfree)
                                      for _, nonfree in circuit.schedule)
    expected = labels_at + LABEL_BYTES * len(circuit.gen_inputs)
    if len(buf) != expected:
        raise ProtocolError(f"garbled payload of {len(buf)} bytes, "
                            f"expected {expected}")
    labels = np.frombuffer(buf, dtype=np.uint8, offset=labels_at).reshape(
        -1, LABEL_BYTES)
    return buf[:labels_at], labels
