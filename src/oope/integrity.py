"""Node authentication against a substituting server.

The key owner tags every tree node, either with a bare discrete-log MAC
g^x mod p or with a Pedersen commitment g^x * h^a mod p.  The group
parameters are shared with the analyst but withheld from the server, so
the server can neither forge a tag for a self-made ciphertext nor (in
the Pedersen case) learn anything about x from the tag.  During a
comparison round the analyst checks the blinded opening supplied by the
owner against the stored tag before any circuit evaluation happens.

The discrete-log variant hides x from the server only; anyone holding
the parameters can test candidate values by brute force.  The Pedersen
variant is semantically hiding.
"""

import hashlib
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, UsageError
from .modexp import powmod
from .paillier import is_probable_prime
from .rng import make_rng
from .wire import be_bytes, lp, read_lp, u32

SCHEME_OFF, SCHEME_DLMAC, SCHEME_PEDERSEN = "off", "dlmac", "pedersen"
DEFAULT_MODULUS_BITS = 2048
DEFAULT_SUBGROUP_BITS = 256


@dataclass(frozen=True)
class MacParams:
    """Prime-field subgroup parameters known to owner and analyst only."""

    p: int       # modulus
    q: int       # subgroup order
    g: int       # subgroup generator
    h_ped: Optional[int] = None  # second generator, Pedersen only


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


def dl_mac_make(x: int, params: MacParams) -> int:
    return powmod(params.g, x, params.p)


def dl_mac_verify(mac: int, r: int, m: int, params: MacParams) -> bool:
    """Check mac * g^r == m (mod p), i.e. m opens g^(x+r)."""
    return mac * powmod(params.g, r, params.p) % params.p == m


def dl_open(x_plus_r: int, params: MacParams) -> int:
    """Owner-side opening g^(x+r) from the decrypted blinded plaintext."""
    return powmod(params.g, x_plus_r, params.p)


def ped_commit_make(x: int, a: int, params: MacParams) -> int:
    if params.h_ped is None:
        raise UsageError("parameters lack the Pedersen generator")
    return powmod(params.g, x, params.p) * \
        powmod(params.h_ped, a, params.p) % params.p


def ped_open(x_plus_r: int, a_plus_rp: int, params: MacParams) -> int:
    """Owner-side opening g^(x+r) * h^(a+r')."""
    if params.h_ped is None:
        raise UsageError("parameters lack the Pedersen generator")
    return powmod(params.g, x_plus_r, params.p) * \
        powmod(params.h_ped, a_plus_rp, params.p) % params.p


def ped_verify(commitment: int, r: int, rp: int, m: int,
               params: MacParams) -> bool:
    """Check commitment * g^r * h^r' == m (mod p)."""
    if params.h_ped is None:
        raise UsageError("parameters lack the Pedersen generator")
    return commitment * powmod(params.g, r, params.p) % params.p * \
        powmod(params.h_ped, rp, params.p) % params.p == m


def serialize_params(params: MacParams) -> bytes:
    return lp(be_bytes(params.p)) + lp(be_bytes(params.q)) + \
        lp(be_bytes(params.g)) + \
        lp(be_bytes(params.h_ped) if params.h_ped is not None else b"")


def parse_params(buf: bytes, off: int = 0):
    pb, off = read_lp(buf, off)
    qb, off = read_lp(buf, off)
    gb, off = read_lp(buf, off)
    hb, off = read_lp(buf, off)
    return MacParams(p=int.from_bytes(pb, "big"),
                     q=int.from_bytes(qb, "big"),
                     g=int.from_bytes(gb, "big"),
                     h_ped=int.from_bytes(hb, "big") if hb else None), off
