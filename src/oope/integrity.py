"""Node authentication against a substituting server.

The key owner tags every tree node with a Pedersen commitment
g^x * h^a mod p (Pedersen, CRYPTO 1991) under a fresh a, and stores
Enc(a) next to it.  The group parameters are shared with the analyst
but withheld from the server, so the server cannot forge a tag for a
self-made ciphertext.  During a comparison round the analyst checks the
blinded opening supplied by the owner against the stored tag before any
circuit evaluation happens.  The commitment is perfectly hiding, so
the tag alone tells the analyst nothing about x.

This is the only scheme.  A bare discrete-log MAC g^x used to be the
other, and it showed the analyst, who holds g and p, every plaintext it
tagged: with x < 2^l, l = 32, a baby-step giant-step search inverts a
tag in at most 2^17 group operations.  Such a search over the six
INTEGRITY_TAG frames of one session on a 40-entry table (2048-bit p)
recovered all six node plaintexts in 8.5 s of pure Python on one core
of a 2-core Xeon.
"""

import hashlib
from dataclasses import dataclass

from .errors import DomainError, ProtocolError
from .modexp import powmod
from .paillier import is_probable_prime
from .rng import make_rng
from .wire import be_bytes, lp, read_lp, u32

SCHEME_OFF, SCHEME_PEDERSEN = "off", "pedersen"
SCHEMES = (SCHEME_OFF, SCHEME_PEDERSEN)
DEFAULT_MODULUS_BITS = 2048
DEFAULT_SUBGROUP_BITS = 256


@dataclass(frozen=True)
class MacParams:
    """Prime-field subgroup parameters known to owner and analyst only."""

    p: int       # modulus
    q: int       # subgroup order
    g: int       # subgroup generator
    h_ped: int   # second generator, for Pedersen commitments


def _hash_to_subgroup(p: int, q: int, label: bytes) -> int:
    cofactor = (p - 1) // q
    ctr = 0
    while True:
        digest = b"".join(hashlib.sha256(label + u32(ctr) + u32(i)).digest()
                          for i in range(p.bit_length() // 256 + 1))
        u = int.from_bytes(digest, "big") % p
        v = powmod(u, cofactor, p)
        if v != 1:
            return v
        ctr += 1


def gen_mac_params(modulus_bits: int = DEFAULT_MODULUS_BITS,
                   subgroup_bits: int = DEFAULT_SUBGROUP_BITS,
                   rng=None) -> MacParams:
    """DSA-style group: p = q*t + 1 with q prime of subgroup_bits bits.

    h_ped is derived by hashing into the subgroup, so its discrete log
    with respect to g is unknown to every party.
    """
    if subgroup_bits >= modulus_bits - 16:
        raise DomainError("subgroup must be meaningfully smaller than modulus")
    rng = rng or make_rng()
    while True:
        q = rng.getrandbits(subgroup_bits) | (1 << (subgroup_bits - 1)) | 1
        if is_probable_prime(q, rng):
            break
    tbits = modulus_bits - subgroup_bits
    while True:
        t = rng.getrandbits(tbits) | (1 << (tbits - 1))
        t &= ~1
        p = q * t + 1
        if p.bit_length() == modulus_bits and is_probable_prime(p, rng):
            break
    cofactor = (p - 1) // q
    while True:
        g = powmod(rng.randrange(2, p - 1), cofactor, p)
        if g != 1:
            break
    h_ped = _hash_to_subgroup(p, q, b"pedersen-h" + be_bytes(p))
    return MacParams(p=p, q=q, g=g, h_ped=h_ped)


def ped_commit_make(x: int, a: int, params: MacParams) -> int:
    return powmod(params.g, x, params.p) * \
        powmod(params.h_ped, a, params.p) % params.p


def ped_open(x_plus_r: int, a_plus_rp: int, params: MacParams) -> int:
    """Owner-side opening g^(x+r) * h^(a+r')."""
    return powmod(params.g, x_plus_r, params.p) * \
        powmod(params.h_ped, a_plus_rp, params.p) % params.p


def ped_verify(commitment: int, r: int, rp: int, m: int,
               params: MacParams) -> bool:
    """Check commitment * g^r * h^r' == m (mod p)."""
    return commitment * powmod(params.g, r, params.p) % params.p * \
        powmod(params.h_ped, rp, params.p) % params.p == m


def serialize_params(params: MacParams) -> bytes:
    return b"".join(lp(be_bytes(v)) for v in
                    (params.p, params.q, params.g, params.h_ped))


def parse_params(buf: bytes, off: int = 0):
    """(MacParams, offset after them); the owner's handshake blob, so an
    empty field is a ProtocolError."""
    fields = []
    for _ in range(4):
        blob, off = read_lp(buf, off)
        if not blob:
            raise ProtocolError("MAC parameters with an empty field")
        fields.append(int.from_bytes(blob, "big"))
    return MacParams(*fields), off
