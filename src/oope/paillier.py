"""Paillier additively homomorphic encryption.

The generator is pinned to g = 1+N, which turns the usual g^m
exponentiation into one modular multiplication, since
(1+N)^m = 1+mN (mod N^2).  Decryption runs over the CRT factors P^2
and Q^2.  The textbook single-exponentiation path, m = L(c^lam) * mu,
is no part of the protocol; it lives with the test oracles
(tests/oracles.py, decrypt_direct) as the cross-check for decrypt.

A ciphertext is a plain int, its residue mod N^2, and names no key.
Key identity is checked where keys meet outside input: the server
checks the owner's key at HELLO, and each table names its key
(ope_state.check_key).  A ciphertext decrypted under another key is an
IntegrityError (see below); hom_add over two keys goes undetected.

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
seventh of the work on a 2048-bit key, before the fixed-base table
below.  alpha = 0 is excluded because it gives the ciphertext 1+mN,
which shows m; encrypt refuses it, and any alpha of 2^256 or more.

h generates a small subgroup of Z_N*, in the RSA-subgroup setting of
Groth ("Cryptography in subgroups of Z_n*", TCC 2005), the idea behind
Paillier's scheme 3 (EUROCRYPT 1999).  keygen draws primes t_p and t_q
of min(256, key_bits/4) bits (256 from 1024-bit keys up), then
P = 2*t_p*u_p + 1 and Q = 2*t_q*u_q + 1, and publishes
h = CRT(x_p^((P-1)/t_p), x_q^((Q-1)/t_q)), of order t_p*t_q mod N.  The
public key is (N, h) and key_id hashes both; h^N is computed once per
key in the process (PaillierPublicKey.h_n).  t_p and t_q stay in the
private key, since either one factors N: h^t_p is 1 mod P and not mod Q, so
gcd(h^t_p - 1, N) = P.  The best known attack on this setting, by
Coron, Joux, Mandal, Naccache and Tibouchi ("Cryptanalysis of the RSA
subgroup assumption from TCC 2005", PKC 2011), factors N in about
2^(b/2) steps for b-bit t_p and t_q: 2^128 at 256 bits, the same as
the 2*kappa-bit alpha.  alpha keeps its 256 bits inside a subgroup
<h^N> of order t_p*t_q, about 2^512.  Semantic security rests on the
decisional composite residuosity assumption in that subgroup (an
element of <h^N> cannot be told from one of <1+N>*<h^N>) together with
the short-exponent assumption that (h^N)^alpha for a 2*kappa-bit alpha
cannot be told from a uniform element of <h^N>.

The owner gains from the subgroup: (h^N)^alpha vanishes under the
exponent t_p mod P^2, so decrypt raises each CRT half to t_p (t_q), a
256-bit exponent in place of the 1023-bit p-1 (q-1) that an h of
unknown order needs on a 2048-bit key.  Only ciphertexts whose
randomness lies in <h^N> decrypt, which is every ciphertext that
encrypt and hom_add make: their t_p-th power is 1 mod P and their
t_q-th power 1 mod Q.  Any other ciphertext, such as a textbook one with
a full-range r, is an IntegrityError, so decrypt never returns a value
that no plaintext stands behind.

encrypt draws alpha itself, or takes one the caller drew with
fresh_alpha; the set-up draws every alpha on one thread in a fixed
order and hands them to encrypt from several threads, so a seeded
table is the same whatever the thread count.

Encryption raises the fixed base h^N to alpha through a comb table,
modexp.FixedBase (Brickell, Gordon, McCurley and Wilson, EUROCRYPT
1992), from 1024-bit keys up where libgmp exports its mpn_sec
functions.  The table holds (h^N)^(j*2^(6i)) for the 43 six-bit windows
i of a 256-bit alpha and the 64 digits j: 1.34 MB on a 2048-bit key,
built in 46-67 ms, after which an encryption takes 0.9-1.3 ms
instead of 2.2-2.7 ms.  One table serves every key object with the
same key_id in the process (h_n), so the analyst's and the server's
parsed copies of the owner's key build none of their own.  Encryption
stays constant-time in alpha: every window reads its whole row
(mpn_sec_tabselect), and multiplies and reduces with GMP's
side-channel-silent mpn_sec_mul and mpn_sec_div_r, so the sequence of
calls, their sizes and the rows they touch are fixed by (N, 256, 6)
whatever alpha is.  The windows' digits are cut from alpha with Python
shifts of a number of fixed length.  Below 1024 bits, and where libgmp
lacks those functions, encryption falls back to powmod.

Every other modular exponentiation here (h^N, both CRT halves,
hom_scale, Miller-Rabin, keygen) goes through modexp.powmod: one
mpn_sec_powm call where libgmp exports it, the built-in pow otherwise.
The GMP path runs in constant time with respect to the exponent, so
the secret decryption exponents t_p and t_q do not leak through
timing.  The table does not cover the owner's decrypt, whose base is
the ciphertext and varies.  Each path returns the same values as the
built-in pow, so a ciphertext is the same for a given alpha whichever
path made it.  Every GMP call releases the interpreter lock, so an
exponentiation on one thread overlaps work on another.
"""

import hashlib
import math
import threading
import weakref
from functools import cached_property

from .errors import (DomainError, IntegrityError, PrimeGenerationError,
                     ProtocolError)
from .modexp import FixedBase, powmod
from .rng import make_rng
from .wire import fixed_bytes, ints, read_ints

MIN_KEY_BITS = 64
MR_ROUNDS = 40  # per-round error <= 1/4, total <= 2^-80
ALPHA_BITS = 256  # 2*kappa bits of encryption exponent, kappa = 128
MAX_SUBGROUP_BITS = 256  # t_p and t_q, from 1024-bit keys up


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


def _gen_prime(bits: int, rng, t: int = 1) -> int:
    """A bits-bit prime 2*t*u + 1 (any odd prime for t = 1) with its top
    two bits set, so the product of two such primes has exactly 2*bits
    bits."""
    # u in [ceil((3*2^(bits-2) - 1) / 2t), floor((2^bits - 2) / 2t)]
    lo = ((3 << (bits - 2)) + 2 * t - 2) // (2 * t)
    hi = ((1 << bits) - 2) // (2 * t)
    for _ in range(80 * bits):
        cand = 2 * t * rng.randrange(lo, hi + 1) + 1
        if is_probable_prime(cand, rng):
            return cand
    raise PrimeGenerationError(f"no {bits}-bit prime found within retry budget")


def _subgroup_element(r: int, t: int, rng) -> int:
    """An element of order t mod the prime r, for a prime t dividing r-1."""
    while True:
        g = powmod(rng.randrange(2, r - 1), (r - 1) // t, r)
        if g != 1:
            return g


# key_id -> the h_n of every live key object with that id, so that the
# owner's key and the peers' parsed copies of it build one table
_H_N = weakref.WeakValueDictionary()
_H_N_LOCK = threading.Lock()


class PaillierPublicKey:
    """Public key (N, g=1+N, h); key_id is the SHA-256 of N and h."""

    def __init__(self, n: int, key_bits: int, h: int):
        self.n = n
        self.key_bits = key_bits
        self.h = h
        self.n_sq = n * n
        self.key_id = hashlib.sha256(ints(n, h)).digest()

    @cached_property
    def h_n(self) -> FixedBase:
        """h^N mod N^2 (h_n.base), the fixed base of every encryption's
        randomness factor, raised to alpha by h_n.pow; one per key_id in
        the process."""
        with _H_N_LOCK:
            h_n = _H_N.get(self.key_id)
            if h_n is None:
                h_n = _H_N[self.key_id] = FixedBase(
                    powmod(self.h, self.n, self.n_sq), self.n_sq, ALPHA_BITS)
            return h_n

    def __repr__(self):
        return f"PaillierPublicKey({self.key_bits} bits, id={self.key_id.hex()[:8]})"


class PaillierPrivateKey:
    """Private key: P, Q, the orders t_p and t_q of h mod P and mod Q,
    and the CRT decryption constants."""

    def __init__(self, p: int, q: int, t_p: int, t_q: int,
                 public: PaillierPublicKey):
        self.p = p
        self.q = q
        self.t_p = t_p
        self.t_q = t_q
        self.public = public
        self.p_sq = p * p
        self.q_sq = q * q
        self.p_inv_q = pow(p, -1, q)
        # (1+mN)^t_p = 1 + m*t_p*Q*P mod P^2
        self.hp = pow(t_p * q, -1, p)
        self.hq = pow(t_q * p, -1, q)


def fresh_alpha(rng) -> int:
    """Uniform alpha in [1, 2^ALPHA_BITS), the randomness of one
    encryption; 0 is excluded since it leaves 1+mN unblinded."""
    return rng.randrange(1, 1 << ALPHA_BITS)


def keygen(key_bits: int, rng=None):
    """Generate a key pair; decrypt(encrypt(m)) == m for m in [0, N).

    key_bits must be even and at least MIN_KEY_BITS.
    """
    if key_bits < MIN_KEY_BITS or key_bits % 2:
        raise DomainError(f"unsupported key size {key_bits}")
    rng = rng or make_rng()
    half = key_bits // 2
    t_bits = min(MAX_SUBGROUP_BITS, key_bits // 4)
    while True:
        t_p = _gen_prime(t_bits, rng)
        t_q = _gen_prime(t_bits, rng)
        if t_p == t_q:
            continue
        p = _gen_prime(half, rng, t_p)
        q = _gen_prime(half, rng, t_q)
        if p != q:
            break
    h_p = _subgroup_element(p, t_p, rng)
    h_q = _subgroup_element(q, t_q, rng)
    h = h_p + p * ((h_q - h_p) * pow(p, -1, q) % q)
    pk = PaillierPublicKey(p * q, key_bits, h)
    return pk, PaillierPrivateKey(p, q, t_p, t_q, pk)


def encrypt(pk: PaillierPublicKey, m: int, rng=None, alpha: int = None) -> int:
    """Encrypt m in [0, N) as (1+mN) * (h^N)^alpha mod N^2.

    alpha is drawn with fresh_alpha from rng unless the caller passes
    one it drew that way; a caller's alpha outside [1, 2^ALPHA_BITS) is
    a DomainError (from h_n.pow).
    """
    if not 0 <= m < pk.n:
        raise DomainError(f"plaintext out of range [0, N)")
    if alpha is None:
        alpha = fresh_alpha(rng or make_rng())
    rn = pk.h_n.pow(alpha)
    return (1 + m * pk.n) % pk.n_sq * rn % pk.n_sq


def _decrypt_half(c: int, r: int, r_sq: int, t: int, inv: int) -> int:
    """m mod r from c^t mod r^2 = 1 + m*t*N mod r^2; a result that is
    not 1 mod r shows randomness outside <h^N>: an IntegrityError."""
    u = powmod(c % r_sq, t, r_sq)
    if u % r != 1:
        raise IntegrityError("ciphertext randomness outside the key's "
                             "subgroup")
    return u // r * inv % r


def decrypt(sk: PaillierPrivateKey, c: int, below: int = None) -> int:
    """CRT decryption with the exponents t_p and t_q.

    Agrees with the textbook path on every ciphertext whose randomness
    lies in <h^N>, which includes all that encrypt and hom_add make;
    any other ciphertext is an IntegrityError.

    With below <= P only the mod-P^2 half runs, and only its half of the
    membership check, and the result is s = m mod P, which is m whenever
    m < below.  A plaintext m in [below, N) gives s < below only when
    m >= P, and then m - s is a nonzero multiple of P below N, so
    gcd(m - s, N) = P.  A caller's range check against below therefore
    rejects every ciphertext the full CRT would, unless the ciphertext's
    author can factor N.  Without that check, whether s equals m tells
    whether m < P, so pass below only for results the caller
    range-checks.
    """
    mp = _decrypt_half(c, sk.p, sk.p_sq, sk.t_p, sk.hp)
    if below is not None and below <= sk.p:
        return mp
    mq = _decrypt_half(c, sk.q, sk.q_sq, sk.t_q, sk.hq)
    return mp + sk.p * ((mq - mp) * sk.p_inv_q % sk.q)


def hom_add(pk: PaillierPublicKey, c1: int, c2: int) -> int:
    """Ciphertext of (m1 + m2) mod N."""
    return c1 * c2 % pk.n_sq


def hom_scale(pk: PaillierPublicKey, c: int, s: int) -> int:
    """Ciphertext of (m * s) mod N for 0 < s < N."""
    if not 0 < s < pk.n:
        raise DomainError("scalar must lie in (0, N)")
    return powmod(c, s, pk.n_sq)


# --- serialization ---------------------------------------------------------

def cipher_width(key_bits: int) -> int:
    """Width of a residue mod N^2 in bytes, 2·key_bits rounded up to a
    whole byte: frames carry each ciphertext in exactly that many."""
    return (2 * key_bits + 7) // 8


def serialize_public_key(pk: PaillierPublicKey) -> bytes:
    """key_bits u16 | N | h."""
    return fixed_bytes(pk.key_bits, 2) + ints(pk.n, pk.h)


def parse_public_key(blob: bytes) -> PaillierPublicKey:
    """The public key that is all of blob; an h outside (1, N) or
    sharing a factor with N, a key_bits other than N's width, or bytes
    after h, is a ProtocolError."""
    key_bits = int.from_bytes(blob[:2], "big")
    n, h = read_ints(blob[2:], 2)
    if n.bit_length() != key_bits:
        raise ProtocolError(f"N labelled as {key_bits} bits")
    if not 1 < h < n or math.gcd(h, n) != 1:
        raise ProtocolError("public key's h lies outside Z_N*")
    return PaillierPublicKey(n, key_bits, h)
