"""Paillier additively homomorphic encryption.

The generator is pinned to g = 1+N, which turns the usual g^m
exponentiation into one modular multiplication, since
(1+N)^m = 1+mN (mod N^2).  Decryption runs over the CRT factors P^2
and Q^2.  The textbook single-exponentiation path, m = L(c^lam) * mu,
is no part of the protocol; it lives with the test oracles
(tests/oracles.py, decrypt_direct) as the cross-check for decrypt.

A caller that knows its plaintext lies below a bound no larger than P
passes that bound to decrypt, which then runs the mod-P^2 half of the
CRT alone and returns m mod P, half the work of a full decryption.
The owner decrypts every blinded node this way: those plaintexts are
below 2^(l+k+1), far below P.  A range check against the bound stays as
strong as on the full CRT, because a plaintext m in [bound, N) whose
residue s = m mod P falls below the bound makes m - s a nonzero
multiple of P below N, so whoever chose m knew gcd(m - s, N) = P, a
factor of N.

Randomness uses short exponents, after Damgard, Jurik and Nielsen ("A
generalization of Paillier's public-key system with applications to
electronic voting", IJIS 2010): encrypt computes (1+mN) * (h^N)^alpha
mod N^2 with alpha uniform in [1, 2^256), 2*kappa bits for kappa = 128,
in place of a full-range r^N with r uniform in Z_N*.  That is about a
seventh of the work on a 2048-bit key.  h depends on N alone: x is
expanded from SHA-512 of N's bytes, redrawn while gcd(x, N) != 1, and
h = -x^2 mod N.  So every holder of the public key derives the same
h^N (PaillierPublicKey.h_n, computed once per key object) and no key
file or frame carries it.  alpha = 0 is excluded because it gives the
ciphertext 1+mN, which shows m.  Semantic security now rests on the
decisional composite residuosity assumption together with DJN's
short-exponent assumption: that (h^N)^alpha for a 2*kappa-bit alpha is
indistinguishable from a uniform N-th residue.  Decryption and the
homomorphisms are unchanged, and a textbook ciphertext with a
full-range r decrypts alike (the textbook oracle checks both).

encrypt draws alpha itself, or takes one the caller drew with
fresh_alpha; the set-up draws every alpha on one thread in a fixed
order and hands them to encrypt from several threads, so a seeded
table is the same whatever the thread count.

Every modular exponentiation here (encryption, h^N, both CRT halves,
hom_scale, Miller-Rabin) goes through modexp.powmod:
GMP's mpz_powm_sec when libgmp loads, the built-in pow otherwise.  Both
return identical results, and the GMP path runs in constant time with
respect to the exponent, so the secret decryption exponents p-1, q-1
and lam and the encryption exponent alpha do not leak through timing.
It also releases the interpreter lock, so an exponentiation on one
thread overlaps work on another.
"""

import hashlib
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (DomainError, KeyMismatchError, PrimeGenerationError,
                     ProtocolError)
from .modexp import powmod
from .rng import make_rng
from .wire import be_bytes, fixed_bytes, lp, read_int, read_lp

STANDARD_KEY_BITS = (1024, 2048, 3072, 4096)
MIN_TEST_KEY_BITS = 64
MR_ROUNDS = 40  # per-round error <= 1/4, total <= 2^-80
ALPHA_BITS = 256  # 2*kappa bits of encryption exponent, kappa = 128


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(2000)


def is_probable_prime(n: int, rng=None) -> bool:
    """Miller-Rabin with error probability at most 2^-80."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng or make_rng()
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gen_prime(bits: int, rng) -> int:
    # Top two bits forced so the product of two such primes has exactly
    # 2*bits bits.
    for _ in range(80 * bits):
        cand = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        if is_probable_prime(cand, rng):
            return cand
    raise PrimeGenerationError(f"no {bits}-bit prime found within retry budget")


class PaillierPublicKey:
    """Public key (N, g=1+N); key_id is the SHA-256 of N."""

    def __init__(self, n: int, key_bits: int):
        self.n = n
        self.key_bits = key_bits
        self.n_sq = n * n
        self.key_id = hashlib.sha256(be_bytes(n)).digest()

    @cached_property
    def h_n(self) -> int:
        """h^N mod N^2, the base of every encryption's randomness factor."""
        return powmod(_derive_h(self.n), self.n, self.n_sq)

    def __eq__(self, other):
        return isinstance(other, PaillierPublicKey) and self.n == other.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"PaillierPublicKey({self.key_bits} bits, id={self.key_id.hex()[:8]})"


class PaillierPrivateKey:
    """Private key with precomputed CRT decryption constants."""

    def __init__(self, p: int, q: int, public: PaillierPublicKey):
        self.p = p
        self.q = q
        self.public = public
        n = public.n
        self.lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
        self.mu = pow(self.lam % n, -1, n)  # L((1+N)^lam mod N^2) = lam mod N
        self.p_sq = p * p
        self.q_sq = q * q
        self.p_inv_q = pow(p, -1, q)
        self.hp = pow(self._crt_l(1 + (p - 1) * n % self.p_sq, p), -1, p)
        self.hq = pow(self._crt_l(1 + (q - 1) * n % self.q_sq, q), -1, q)

    @staticmethod
    def _crt_l(u, r):
        return ((u - 1) % (r * r)) // r


@dataclass(frozen=True)
class HomCiphertext:
    """A Paillier ciphertext: residue mod N^2 plus the owning key's id."""

    value: int
    key_id: bytes


def _derive_h(n: int) -> int:
    """h = -x^2 mod N, with x in Z_N* expanded from SHA-512 of N.

    x takes 128 bits more than N so that x mod N is close to uniform.
    Every hashed block carries its own counter value, so a redraw after
    gcd(x, N) != 1 hashes fresh blocks.
    """
    width = (n.bit_length() + 128 + 7) // 8
    blocks = -(-width // 64)
    counter = itertools.count()
    while True:
        stream = b"".join(
            hashlib.sha512(b"oope h" + fixed_bytes(next(counter), 4)
                           + be_bytes(n)).digest()
            for _ in range(blocks))
        x = int.from_bytes(stream[:width], "big") % n
        if math.gcd(x, n) == 1:
            return -x * x % n


def fresh_alpha(rng) -> int:
    """Uniform alpha in [1, 2^ALPHA_BITS), the randomness of one
    encryption; 0 is excluded since it leaves 1+mN unblinded."""
    return rng.randrange(1, 1 << ALPHA_BITS)


def keygen(key_bits: int, rng=None, allow_small: bool = False):
    """Generate a key pair; decrypt(encrypt(m)) == m for m in [0, N).

    key_bits outside the standard set is refused unless allow_small is
    given (test builds only).
    """
    if key_bits not in STANDARD_KEY_BITS:
        if not allow_small or key_bits < MIN_TEST_KEY_BITS or key_bits % 2:
            raise DomainError(f"unsupported key size {key_bits}")
    rng = rng or make_rng()
    half = key_bits // 2
    while True:
        p = _gen_prime(half, rng)
        q = _gen_prime(half, rng)
        if p != q:
            break
    pk = PaillierPublicKey(p * q, key_bits)
    return pk, PaillierPrivateKey(p, q, pk)


def encrypt(pk: PaillierPublicKey, m: int, rng=None, alpha: int = None
            ) -> HomCiphertext:
    """Encrypt m in [0, N) as (1+mN) * (h^N)^alpha mod N^2.

    alpha is drawn with fresh_alpha from rng unless the caller passes
    one it drew that way.
    """
    if not 0 <= m < pk.n:
        raise DomainError(f"plaintext out of range [0, N)")
    if alpha is None:
        alpha = fresh_alpha(rng or make_rng())
    rn = powmod(pk.h_n, alpha, pk.n_sq)
    value = (1 + m * pk.n) % pk.n_sq * rn % pk.n_sq
    return HomCiphertext(value, pk.key_id)


def decrypt(sk: PaillierPrivateKey, c: HomCiphertext, below: int = None
            ) -> int:
    """CRT decryption; agrees with the textbook path on every ciphertext.

    With below <= P only the mod-P^2 half runs and the result is
    s = m mod P, which is m whenever m < below.  A plaintext m in
    [below, N) gives s < below only when m >= P, and then m - s is a
    nonzero multiple of P below N, so gcd(m - s, N) = P.  A caller's
    range check against below therefore rejects every ciphertext the
    full CRT would, unless the ciphertext's author can factor N.
    Without that check, whether s equals m tells whether m < P, so pass
    below only for results the caller range-checks.
    """
    _check_key(sk.public, c)
    mp = sk._crt_l(powmod(c.value % sk.p_sq, sk.p - 1, sk.p_sq), sk.p) \
        * sk.hp % sk.p
    if below is not None and below <= sk.p:
        return mp
    mq = sk._crt_l(powmod(c.value % sk.q_sq, sk.q - 1, sk.q_sq), sk.q) \
        * sk.hq % sk.q
    return mp + sk.p * ((mq - mp) * sk.p_inv_q % sk.q)


def hom_add(pk: PaillierPublicKey, c1: HomCiphertext,
            c2: HomCiphertext) -> HomCiphertext:
    """Ciphertext of (m1 + m2) mod N."""
    _check_key(pk, c1)
    _check_key(pk, c2)
    return HomCiphertext(c1.value * c2.value % pk.n_sq, pk.key_id)


def hom_scale(pk: PaillierPublicKey, c: HomCiphertext, s: int) -> HomCiphertext:
    """Ciphertext of (m * s) mod N for 0 < s < N."""
    _check_key(pk, c)
    if not 0 < s < pk.n:
        raise DomainError("scalar must lie in (0, N)")
    return HomCiphertext(powmod(c.value, s, pk.n_sq), pk.key_id)


def _check_key(pk, c):
    if c.key_id != pk.key_id:
        raise KeyMismatchError("ciphertext belongs to a different key")


# --- serialization ---------------------------------------------------------

def cipher_width(key_bits: int) -> int:
    """Fixed record width of a residue mod N^2, in bytes."""
    return 2 * key_bits // 8


def cipher_record(c: HomCiphertext, key_bits: int) -> bytes:
    """Fixed-width residue record used inside frames and table files."""
    return lp(fixed_bytes(c.value, cipher_width(key_bits)))


def parse_cipher_record(buf: bytes, off: int, key_id: bytes, key_bits: int):
    """(ciphertext, offset after its record); a record of any width but
    cipher_width(key_bits) is a ProtocolError."""
    blob, off = read_lp(buf, off)
    width = cipher_width(key_bits)
    if len(blob) != width:
        raise ProtocolError(
            f"cipher record of {len(blob)} bytes, expected {width}")
    return HomCiphertext(int.from_bytes(blob, "big"), key_id), off


def serialize_public_key(pk: PaillierPublicKey) -> bytes:
    return fixed_bytes(pk.key_bits, 2) + lp(be_bytes(pk.n))


def parse_public_key(buf: bytes, off: int = 0):
    key_bits, off = read_int(buf, off, 2)
    blob, off = read_lp(buf, off)
    return PaillierPublicKey(int.from_bytes(blob, "big"), key_bits), off


def serialize_private_key(sk: PaillierPrivateKey) -> bytes:
    return (fixed_bytes(sk.public.key_bits, 2)
            + lp(be_bytes(sk.p)) + lp(be_bytes(sk.q)))


def parse_private_key(buf: bytes, off: int = 0):
    key_bits, off = read_int(buf, off, 2)
    pb, off = read_lp(buf, off)
    qb, off = read_lp(buf, off)
    p = int.from_bytes(pb, "big")
    q = int.from_bytes(qb, "big")
    pk = PaillierPublicKey(p * q, key_bits)
    return PaillierPrivateKey(p, q, pk), off
