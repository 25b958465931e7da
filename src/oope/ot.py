"""1-out-of-2 oblivious transfer for the comparison circuits.

Two layers:

* A semi-honest base OT over a multiplicative prime group.  The
  receiver publishes one real public key and one element sampled by
  hashing into the quadratic-residue subgroup, so it provably does not
  know the second discrete log even given its full internal state.
  Each side's exponentiations run over the cores (modexp.fan_out) and
  its random draws on the calling thread, in one order, so a seeded
  base OT's seeds and bytes do not depend on the number of cores.
* The IKNP extension (Ishai, Kilian, Nissim and Petrank, CRYPTO 2003,
  Fig. 1), which turns 128 base OTs into a batch of chosen-input OTs of
  any size using only hashing.  Base seeds are reused across batches
  under a per-batch index, which is fine against passive adversaries.

The extension stretches each 256-bit base-OT seed k into one row of
the batch's bit matrix with G(k, b) = SHAKE-128(k || "prg" || u32(b)),
read to the row's m/8 bytes in one call (_prg); b is the batch index.
IKNP needs G(k, b) to look random to a party that does not know k, for
every batch b.  SHAKE-128 has a 256-bit capacity, so it is
indifferentiable from a random oracle up to about q²/2^256 for q
queries, and its outputs are 128-bit secure against generic attack.
Under a random oracle a distinguisher has two ways in: guess a 256-bit
seed, each query hitting with probability 2^-256, or find two inputs
that collide.  The inputs are of one fixed length and differ in the
seed or in b, so no two calls share one, and rows of different batches
are independent.  Up to q = 2^64 queries both terms stay at or below
2^-128, so G is a PRG at κ = 128.

The extension's pads for row j are H(q_j, i_j) and H(q_j ⊕ s, i_j) at
the sender, where s is its secret base-OT choice vector, and the
receiver knows one of them as H(t_j, i_j), t_j being its own row j.
H is the fixed-key AES hash of garbling, H(x, i) = π(π(x) ⊕ i) ⊕ π(x)
(aes.tccr), which Guo, Katz, Wang and Yu (S&P 2020) prove tweakable
circular correlation robust when π is an ideal permutation.  IKNP needs
less: H(x ⊕ s, i) must look random to whoever chose x but does not know
s, as long as no tweak repeats under one s.  Row j of batch b hashes
under the tweak i_j = 2^127 | b·2^32 | j, which is distinct for every
row of every batch, and whose top bit keeps it apart from the gate
tweaks 2j and 2j + 1 of garbling.  A receiver that sees q pads and
makes p AES calls of its own tells them from random with probability
about q·p/2^128.  Each side hashes all rows of an extension batch in
one aes.tccr call, one pair of AES calls.

Labels and the extension's one-time pads are numpy uint8 rows of 16
bytes, each row the big-endian bytes it has on the wire, so nothing
here turns a label into an int.  Each extension batch runs the column
step t XOR (u AND s), the row step q XOR s and the hashing as single
numpy operations over the whole matrix, and each transfer is one XOR
or one gather over its rows.

A batch is a value that serves one session of the caller's; neither end
keeps anything of it but its index.  The receiver knows every choice of
a batch when it makes it: its `extend(choice_bits)` puts them into the
u matrix, u_i = G(k0_i) XOR G(k1_i) XOR c, c being the choice bits
padded with zeros to m, a multiple of 8.  It returns the blob of the
u32 index and u matrix, and its side of the batch, the choices and an
(m, 16) array of pads.  The sender's `extend(blob, most)` returns its
side, an (m, 2, 16) array of pad pairs, of which the receiver holds the
chosen one of each.  The index sets the PRG input and the row tweaks,
and the sender refuses one not above the last it took, so no tweak
repeats under s.  Only base OT (`setup`) runs over send/recv callables;
the caller carries every other message.

A transfer spends the batch's next n OTs at both ends.  The sender's
`send_pairs(batch, pairs)` returns the reply, the (n, 2, 16) rows of
(zero-label, one-label) pairs XOR their pad pairs, as bytes; a batch
with too few OTs left, as when the receiver sent one too small, is a
ProtocolError.  The receiver's `receive_pairs(batch, reply, n)` returns
the chosen labels as an (n, 16) array.

The choices and s are bit vectors in the order of wire.pack_bits,
least significant bit first, and the bit matrices are transposed in
that order too, so bit j of a column belongs to OT j.
"""

import hashlib

import numpy as np

from . import aes
from .errors import ProtocolError, UsageError
from .garbling import LABEL_BYTES
from .modexp import fan_out, powmod
from .rng import make_rng
from .wire import be_bytes, pack_bits, u32, xor_bytes

KAPPA = 128  # extension security parameter = base OT count
EXPONENT_BITS = 256
SEED_BYTES = 32

# RFC 3526 group 15 (3072-bit MODP); >= 128-bit strength.
_P_3072 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33"
    "A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7"
    "ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864"
    "D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2"
    "08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF",
    16)

# RFC 2409 First Oakley Group (768-bit).  Test profile only: far below
# the 128-bit requirement, kept to make unit tests fast.
_P_768 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF",
    16)


class OtGroup:
    """Safe-prime group; generator 4 spans the quadratic residues."""

    def __init__(self, p: int):
        self.p = p
        self.g = 4
        self.width = (p.bit_length() + 7) // 8

    def exp(self, base, e):
        return powmod(base, e, self.p)

    def hash_to_member(self, seed: bytes) -> int:
        # Squaring lands in the QR subgroup; the discrete log of the
        # result is unknown even to whoever sampled the seed.
        digest = b"".join(hashlib.sha256(seed + u32(i)).digest()
                          for i in range(self.width // 32 + 1))
        t = int.from_bytes(digest, "big") % self.p
        return t * t % self.p

    def check_member(self, v: int):
        if not 2 <= v < self.p:
            raise ProtocolError("malformed group element")


GROUP_DEFAULT = OtGroup(_P_3072)
GROUP_TEST = OtGroup(_P_768)


def _kdf(key: int, index: int, branch: int) -> bytes:
    return hashlib.sha256(be_bytes(key) + u32(index) + bytes([branch])).digest()


def base_ot_send(send, recv, messages, group=GROUP_DEFAULT, rng=None):
    """Transfer one 32-byte message of each (m0, m1) pair obliviously.
    Every public key is checked before the first exponentiation."""
    rng = rng or make_rng()
    count = len(messages)
    blob = recv()
    if len(blob) != 2 * count * group.width:
        raise ProtocolError("base OT public key blob has wrong size")
    pks = [int.from_bytes(blob[i * group.width:(i + 1) * group.width], "big")
           for i in range(2 * count)]
    for pk in pks:
        group.check_member(pk)
    r = rng.getrandbits(EXPONENT_BITS)
    gr, *keys = fan_out(lambda base: group.exp(base, r), [group.g, *pks])
    out = [gr.to_bytes(group.width, "big")] + [
        xor_bytes(m, _kdf(keys[2 * i + b], i, b))
        for i, pair in enumerate(messages) for b, m in enumerate(pair)]
    send(b"".join(out))


def base_ot_recv(send, recv, choice_bits, group=GROUP_DEFAULT, rng=None):
    """Receive the chosen message per bit; learns nothing of the others."""
    rng = rng or make_rng()
    draws = [(rng.getrandbits(EXPONENT_BITS), rng.getrandbits(256))
             for _ in choice_bits]  # k, then the dummy's seed
    secrets = [k for k, _ in draws]
    reals = fan_out(lambda k: group.exp(group.g, k), secrets)
    pks = []
    for c, real, (_, seed) in zip(choice_bits, reals, draws):
        dummy = group.hash_to_member(seed.to_bytes(32, "big"))
        pks.extend([real, dummy] if c == 0 else [dummy, real])
    send(b"".join(pk.to_bytes(group.width, "big") for pk in pks))
    blob = recv()
    if len(blob) != group.width + 2 * len(choice_bits) * SEED_BYTES:
        raise ProtocolError("base OT ciphertext blob has wrong size")
    gr = int.from_bytes(blob[:group.width], "big")
    group.check_member(gr)
    keys = fan_out(lambda k: group.exp(gr, k), secrets)
    out = []
    for i, (c, key) in enumerate(zip(choice_bits, keys)):
        start = group.width + (2 * i + c) * SEED_BYTES
        out.append(xor_bytes(blob[start:start + SEED_BYTES], _kdf(key, i, c)))
    return out


def _prg(seed: bytes, nbytes: int, batch: int) -> bytes:
    """nbytes of SHAKE-128 output on seed, separated by batch (module
    docstring)."""
    return hashlib.shake_128(seed + b"prg" + u32(batch)).digest(nbytes)


def _prg_matrix(seeds, nbytes: int, batch: int):
    """One row of nbytes PRG output per seed, as a uint8 matrix."""
    blob = b"".join(_prg(seed, nbytes, batch) for seed in seeds)
    return np.frombuffer(blob, dtype=np.uint8).reshape(len(seeds), nbytes)


def _row_hashes(batch: int, rows):
    """H(x, 2^127 | batch·2^32 | j) (aes.tccr) of every 16-byte row x
    of rows[j], rows being an (m, 16) or (m, k, 16) uint8 array, in one
    call; the hashes come back in an array of rows' shape."""
    m, per_row = len(rows), rows[0].size // LABEL_BYTES
    tweaks = np.empty((m, per_row, LABEL_BYTES), dtype=np.uint8)
    tweaks[..., :-4] = np.frombuffer((1 << 95 | batch).to_bytes(
        LABEL_BYTES - 4, "big"), dtype=np.uint8)
    tweaks[..., -4:] = np.arange(m, dtype=">u4").view(np.uint8).reshape(
        m, 1, 4)
    hashes = aes.tccr(rows.tobytes(), tweaks.tobytes())
    return np.frombuffer(hashes, dtype=np.uint8).reshape(rows.shape)


def _transpose_bits(cols):
    """KAPPA x m/8 bit matrix -> m rows of KAPPA bits (16 bytes each),
    bits least significant first as wire.pack_bits orders them, so bit j
    of a column is row j.  The transposed bits are copied out before
    packing, which packs a contiguous array in half the time of the
    strided view."""
    bits = np.unpackbits(cols, axis=1, bitorder="little")
    return np.packbits(np.ascontiguousarray(bits.T), axis=1,
                       bitorder="little")


class _Batch:
    """One session's extension batch at one end: arrays whose row j
    belongs to OT j, spent in order by take."""

    def __init__(self, *arrays):
        self._arrays = arrays
        self._spent = 0

    def take(self, n) -> list:
        """Spends the next n OTs, or all left if fewer: their rows."""
        self._spent += n
        return [a[self._spent - n:self._spent] for a in self._arrays]


class OtExtSender:
    """Holds label pairs; the peer picks one of each without revealing
    which.  Per session: extend, then per transfer send_pairs (module
    docstring)."""

    def __init__(self, rng=None, group=GROUP_DEFAULT):
        self._rng = rng or make_rng()
        self._group = group
        self._batch = 0  # the index of the last batch taken in
        self._s_mask = None  # column i: 0xff where s_i = 1, else 0
        self._s_row = None   # s packed into one 16-byte row
        self._seeds = None

    def setup(self, send, recv):
        """Base OT over send/recv, receiving one seed of each pair."""
        s_bits = [self._rng.getrandbits(1) for _ in range(KAPPA)]
        self._s_mask = np.array(s_bits, dtype=np.uint8).reshape(KAPPA, 1) * 0xff
        self._s_row = np.frombuffer(pack_bits(s_bits), dtype=np.uint8)
        self._seeds = base_ot_recv(send, recv, s_bits, self._group, self._rng)

    def extend(self, blob, most) -> _Batch:
        """The batch of the receiver's blob, its u32 index then KAPPA
        columns of m/8 bytes.  An index not above the last one taken, or m
        above most rounded up to whole bytes, is a ProtocolError; the
        index rule keeps row tweaks unique under s."""
        row_bytes, rest = divmod(len(blob) - 4, KAPPA)
        if not 0 < row_bytes <= (most + 7) // 8 or rest:
            raise ProtocolError("OT extension matrix has wrong size")
        index = int.from_bytes(blob[:4], "big")
        if index <= self._batch:
            raise ProtocolError(f"OT extension batch {index} is not new")
        u = np.frombuffer(blob[4:], dtype=np.uint8).reshape(KAPPA, row_bytes)
        # column i is t_i, or t_i XOR u_i where s_i = 1
        q = _prg_matrix(self._seeds, row_bytes, index) ^ (u & self._s_mask)
        rows = _transpose_bits(q)
        self._batch = index
        return _Batch(_row_hashes(index, np.stack((rows, rows ^ self._s_row),
                                                  axis=1)))

    def send_pairs(self, batch, pairs) -> bytes:
        """The reply that obliviously transfers one label of each of pairs,
        (n, 2, 16) rows of (zero-label, one-label), under batch's next n
        pad pairs; too few left is a ProtocolError (module docstring)."""
        pads, = batch.take(len(pairs))
        if len(pads) < len(pairs):
            raise ProtocolError("OT extension batch used up")
        return (pairs ^ pads).tobytes()


class OtExtReceiver:
    """Chooses one label per pair by choice bit; sender stays oblivious.
    Per session: extend, then per transfer receive_pairs (module
    docstring)."""

    def __init__(self, rng=None, group=GROUP_DEFAULT):
        self._rng = rng or make_rng()
        self._group = group
        self._batch = 0  # the index of the last batch made
        self._seed_pairs = None

    def setup(self, send, recv):
        """Base OT over send/recv, sending KAPPA seed pairs."""
        self._seed_pairs = [
            (self._rng.getrandbits(256).to_bytes(SEED_BYTES, "big"),
             self._rng.getrandbits(256).to_bytes(SEED_BYTES, "big"))
            for _ in range(KAPPA)]
        base_ot_send(send, recv, self._seed_pairs, self._group, self._rng)

    def extend(self, choice_bits) -> tuple:
        """(blob, batch): a batch of one OT per choice bit, rounded up to a
        multiple of 8 with zeros, under the next batch index, and blob,
        the index as a u32 then the u matrix, for the sender."""
        m = (len(choice_bits) + 7) // 8 * 8
        self._batch += 1
        bits = np.zeros(m, dtype=np.uint8)
        bits[:len(choice_bits)] = choice_bits
        t = _prg_matrix([k0 for k0, _ in self._seed_pairs], m // 8,
                        self._batch)
        u = t ^ _prg_matrix([k1 for _, k1 in self._seed_pairs], m // 8,
                            self._batch) ^ np.packbits(bits, bitorder="little")
        batch = _Batch(bits, _row_hashes(self._batch, _transpose_bits(t)))
        return u32(self._batch) + u.tobytes(), batch

    def receive_pairs(self, batch, reply, n):
        """The labels of batch's next n choices, from the sender's reply,
        as an (n, 16) array of rows; a batch with too few OTs left is a
        UsageError."""
        if len(reply) != 2 * n * LABEL_BYTES:
            raise ProtocolError("OT response length mismatch")
        bits, pads = batch.take(n)
        if len(pads) < n:
            raise UsageError("OT extension batch used up")
        pairs = np.frombuffer(reply, dtype=np.uint8).reshape(n, 2, LABEL_BYTES)
        return pairs[np.arange(n), bits] ^ pads
