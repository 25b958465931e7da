"""1-out-of-2 oblivious transfer for the comparison circuits.

Two layers:

* A semi-honest base OT over a multiplicative prime group.  The
  receiver publishes one real public key and one element sampled by
  hashing into the quadratic-residue subgroup, so it provably does not
  know the second discrete log even given its full internal state.
* An IKNP-style extension that turns 128 base OTs into an arbitrarily
  large pool of random OTs using only hashing, consumed per transfer
  through XOR derandomization.  Base seeds are reused across batches
  with a per-batch nonce, which is fine against passive adversaries.

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

Labels and the extension's one-time pads are 128-bit ints, so a
transfer XORs natively; they become 16-byte big-endian fields only on
the wire.  `send_pairs` takes (zero-label, one-label) int pairs and
`receive_pairs` returns the chosen ints.  Each extension batch runs
the column step t XOR (u AND s) and the row step q XOR s as single
numpy operations over the whole bit matrix.

Every protocol message is one bytes blob pushed through caller-supplied
send/recv callables, so the same code runs over in-memory pipes and
framed TCP channels.
"""

import hashlib
from collections import deque

import numpy as np

from . import aes
from .errors import ProtocolError
from .garbling import LABEL_BYTES
from .modexp import powmod
from .rng import make_rng
from .wire import be_bytes, u32, xor_bytes

KAPPA = 128  # extension security parameter = base OT count
EXPONENT_BITS = 256
SEED_BYTES = 32
BATCH = 2048  # OTs per extension, unless one transfer needs more

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
    """Transfer one 32-byte message of each (m0, m1) pair obliviously."""
    rng = rng or make_rng()
    count = len(messages)
    blob = recv()
    if len(blob) != 2 * count * group.width:
        raise ProtocolError("base OT public key blob has wrong size")
    pks = [int.from_bytes(blob[i * group.width:(i + 1) * group.width], "big")
           for i in range(2 * count)]
    r = rng.getrandbits(EXPONENT_BITS)
    out = [group.exp(group.g, r).to_bytes(group.width, "big")]
    for i, (m0, m1) in enumerate(messages):
        for b, m in ((0, m0), (1, m1)):
            pk = pks[2 * i + b]
            group.check_member(pk)
            out.append(xor_bytes(m, _kdf(group.exp(pk, r), i, b)))
    send(b"".join(out))


def base_ot_recv(send, recv, choice_bits, group=GROUP_DEFAULT, rng=None):
    """Receive the chosen message per bit; learns nothing of the others."""
    rng = rng or make_rng()
    secrets = []
    pks = []
    for c in choice_bits:
        k = rng.getrandbits(EXPONENT_BITS)
        real = group.exp(group.g, k)
        dummy = group.hash_to_member(rng.getrandbits(256).to_bytes(32, "big"))
        secrets.append(k)
        pks.extend([real, dummy] if c == 0 else [dummy, real])
    send(b"".join(pk.to_bytes(group.width, "big") for pk in pks))
    blob = recv()
    if len(blob) != group.width + 2 * len(choice_bits) * SEED_BYTES:
        raise ProtocolError("base OT ciphertext blob has wrong size")
    gr = int.from_bytes(blob[:group.width], "big")
    group.check_member(gr)
    out = []
    for i, (c, k) in enumerate(zip(choice_bits, secrets)):
        start = group.width + (2 * i + c) * SEED_BYTES
        out.append(xor_bytes(blob[start:start + SEED_BYTES],
                             _kdf(group.exp(gr, k), i, c)))
    return out


def _prg(seed: bytes, nbytes: int, batch: int) -> bytes:
    blocks = [hashlib.sha256(seed + b"prg" + u32(batch) + u32(i)).digest()
              for i in range((nbytes + 31) // 32)]
    return b"".join(blocks)[:nbytes]


def _prg_matrix(seeds, nbytes: int, batch: int):
    """One row of nbytes PRG output per seed, as a uint8 matrix."""
    blob = b"".join(_prg(seed, nbytes, batch) for seed in seeds)
    return np.frombuffer(blob, dtype=np.uint8).reshape(len(seeds), nbytes)


def _row_hashes(batch: int, *matrices) -> list:
    """H(row j, 2^127 | batch·2^32 | j) (aes.tccr) as a 128-bit int per
    row j of each m x 16 matrix, one list per matrix, in one call."""
    m = len(matrices[0])
    tweaks = np.tile(np.frombuffer((1 << 127 | batch << 32).to_bytes(
        LABEL_BYTES, "big"), dtype=np.uint8), (m, 1))
    tweaks[:, -4:] = np.arange(m, dtype=">u4").view(np.uint8).reshape(m, 4)
    blob = b"".join([rows.tobytes() for rows in matrices])
    hashes = aes.tccr(blob, int.from_bytes(
        tweaks.tobytes() * len(matrices), "big")).to_bytes(len(blob), "big")
    values = [int.from_bytes(hashes[o:o + LABEL_BYTES], "big")
              for o in range(0, len(blob), LABEL_BYTES)]
    return [values[i:i + m] for i in range(0, len(values), m)]


def _transpose_bits(cols):
    """KAPPA x m/8 bit matrix -> m rows of KAPPA bits (16 bytes each)."""
    return np.packbits(np.unpackbits(cols, axis=1).T, axis=1)


def _pack_bits(bits):
    return np.packbits(np.array(bits, dtype=np.uint8)).tobytes()


def _unpack_bits(blob, n):
    if len(blob) != (n + 7) // 8:
        raise ProtocolError("OT choice vector has wrong size")
    return np.unpackbits(np.frombuffer(blob, dtype=np.uint8),
                         count=n).tolist()


class OtExtSender:
    """Holds label pairs; the peer picks one of each without revealing which."""

    def __init__(self, send, recv, rng=None, group=GROUP_DEFAULT):
        self._send = send
        self._recv = recv
        self._rng = rng or make_rng()
        self._group = group
        self._batch = 0
        self._s_mask = None  # column i: 0xff where s_i = 1, else 0
        self._s_row = None   # s packed into one 16-byte row
        self._seeds = None
        self._a0 = deque()
        self._a1 = deque()

    def setup(self):
        s_bits = [self._rng.getrandbits(1) for _ in range(KAPPA)]
        self._s_mask = np.array(s_bits, dtype=np.uint8).reshape(KAPPA, 1) * 0xff
        self._s_row = np.packbits(np.array(s_bits, dtype=np.uint8))
        self._seeds = base_ot_recv(self._send, self._recv, s_bits,
                                   self._group, self._rng)

    def _extend(self, m):
        blob = self._recv()
        if len(blob) != KAPPA * m // 8:
            raise ProtocolError("OT extension matrix has wrong size")
        u = np.frombuffer(blob, dtype=np.uint8).reshape(KAPPA, m // 8)
        # column i is t_i, or t_i XOR u_i where s_i = 1
        q = _prg_matrix(self._seeds, m // 8, self._batch) ^ (u & self._s_mask)
        rows = _transpose_bits(q)
        a0, a1 = _row_hashes(self._batch, rows, rows ^ self._s_row)
        self._a0.extend(a0)
        self._a1.extend(a1)
        self._batch += 1

    def _ensure(self, n):
        while len(self._a0) < n:
            self._extend(max(BATCH, (n + 7) // 8 * 8))

    def send_pairs(self, pairs):
        """Obliviously transfer one 128-bit int label of each pair."""
        n = len(pairs)
        self._ensure(n)
        blob = self._recv()
        # the receiver spent n pads to send blob: spend them here too
        # before checking it, or a malformed vector leaves the two
        # queues out of step for every later transfer
        a0, a1 = self._a0.popleft, self._a1.popleft
        pads = [(a0(), a1()) for _ in range(n)]
        out = []
        for (x0, x1), (p0, p1), e in zip(pairs, pads, _unpack_bits(blob, n)):
            if e:
                p0, p1 = p1, p0
            out.append(((x0 ^ p0) << 128 | x1 ^ p1).to_bytes(
                2 * LABEL_BYTES, "big"))
        self._send(b"".join(out))


class OtExtReceiver:
    """Chooses one label per pair by choice bit; sender stays oblivious."""

    def __init__(self, send, recv, rng=None, group=GROUP_DEFAULT):
        self._send = send
        self._recv = recv
        self._rng = rng or make_rng()
        self._group = group
        self._batch = 0
        self._seed_pairs = None
        self._rho = deque()
        self._pads = deque()

    def setup(self):
        self._seed_pairs = [
            (self._rng.getrandbits(256).to_bytes(SEED_BYTES, "big"),
             self._rng.getrandbits(256).to_bytes(SEED_BYTES, "big"))
            for _ in range(KAPPA)]
        base_ot_send(self._send, self._recv, self._seed_pairs,
                     self._group, self._rng)

    def _extend(self, m):
        rho = self._rng.getrandbits(m).to_bytes(m // 8, "big")
        t = _prg_matrix([k0 for k0, _ in self._seed_pairs], m // 8,
                        self._batch)
        u = t ^ _prg_matrix([k1 for _, k1 in self._seed_pairs], m // 8,
                            self._batch) ^ np.frombuffer(rho, dtype=np.uint8)
        self._send(u.tobytes())
        self._rho.extend(_unpack_bits(rho, m))
        self._pads.extend(_row_hashes(self._batch, _transpose_bits(t))[0])
        self._batch += 1

    def _ensure(self, n):
        while len(self._rho) < n:
            self._extend(max(BATCH, (n + 7) // 8 * 8))

    def receive_pairs(self, choice_bits):
        """Receive the 128-bit int label selected by each choice bit."""
        n = len(choice_bits)
        self._ensure(n)
        rho = [self._rho.popleft() for _ in range(n)]
        pads = [self._pads.popleft() for _ in range(n)]
        self._send(_pack_bits([c ^ r for c, r in zip(choice_bits, rho)]))
        blob = self._recv()
        if len(blob) != 2 * n * LABEL_BYTES:
            raise ProtocolError("OT response length mismatch")
        out = []
        for j, (c, pad) in enumerate(zip(choice_bits, pads)):
            start = (2 * j + c) * LABEL_BYTES
            out.append(int.from_bytes(blob[start:start + LABEL_BYTES], "big")
                       ^ pad)
        return out
