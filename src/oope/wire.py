"""Byte-level encoding helpers (big-endian throughout)."""

from .errors import ProtocolError


def u16(v: int) -> bytes:
    return v.to_bytes(2, "big")


def u32(v: int) -> bytes:
    return v.to_bytes(4, "big")


def be_bytes(v: int) -> bytes:
    """Minimal-length big-endian encoding; zero encodes to one byte."""
    return v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")


def fixed_bytes(v: int, width: int) -> bytes:
    return v.to_bytes(width, "big")


def lp(blob: bytes) -> bytes:
    return u32(len(blob)) + blob


def ints(*values: int) -> bytes:
    """Each value as a length-prefixed minimal big-endian blob."""
    return b"".join(lp(be_bytes(v)) for v in values)


def read_ints(blob: bytes, count: int) -> list:
    """The count ints that ints wrote into blob, which holds nothing
    else; a blob cut short or with bytes left over, or an empty field,
    which ints never writes, is a ProtocolError."""
    values, off = [], 0
    for _ in range(count):
        n = int.from_bytes(blob[off:off + 4], "big")
        field, off = blob[off + 4:off + 4 + n], off + 4 + n
        if off > len(blob):
            raise ProtocolError("truncated integer list")
        if not field:
            raise ProtocolError("integer list with an empty field")
        values.append(int.from_bytes(field, "big"))
    if off != len(blob):
        raise ProtocolError("integer list with trailing bytes")
    return values


def pack_bits(bits) -> bytes:
    """Bits least significant first, eight to a byte, the padding bits
    of the last byte zero: the one bit-vector codec of every frame."""
    v = 0
    for i, b in enumerate(bits):
        v |= b << i
    return v.to_bytes((len(bits) + 7) // 8, "little")


def unpack_bits(blob: bytes, n: int, what: str = "bit vector") -> list:
    """The n bits pack_bits packed into blob; a blob of another length,
    or with a padding bit set, is a ProtocolError naming what."""
    v = int.from_bytes(blob, "little")
    if len(blob) != (n + 7) // 8 or v >> n:
        raise ProtocolError(f"malformed {what}")
    return [v >> i & 1 for i in range(n)]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR of two byte strings of equal length."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big")
