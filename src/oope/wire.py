"""Byte-level encoding helpers (big-endian throughout)."""

from .errors import FramingError, ProtocolError


def u16(v: int) -> bytes:
    return v.to_bytes(2, "big")


def u32(v: int) -> bytes:
    return v.to_bytes(4, "big")


def be_bytes(v: int) -> bytes:
    """Minimal-length big-endian encoding; zero encodes to one byte."""
    return v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")


def fixed_bytes(v: int, width: int) -> bytes:
    return v.to_bytes(width, "big")


def read_int(buf: bytes, off: int, width: int) -> tuple[int, int]:
    if off + width > len(buf):
        raise FramingError("truncated integer field")
    return int.from_bytes(buf[off:off + width], "big"), off + width


def read_bytes(buf: bytes, off: int, width: int) -> tuple[bytes, int]:
    if off + width > len(buf):
        raise FramingError("truncated byte field")
    return buf[off:off + width], off + width


def read_lp(buf: bytes, off: int) -> tuple[bytes, int]:
    """Read a 4-byte length-prefixed blob."""
    n, off = read_int(buf, off, 4)
    return read_bytes(buf, off, n)


def lp(blob: bytes) -> bytes:
    return u32(len(blob)) + blob


def ints(*values: int) -> bytes:
    """Each value as a length-prefixed minimal big-endian blob."""
    return b"".join(lp(be_bytes(v)) for v in values)


def read_ints(buf: bytes, off: int, count: int) -> tuple[list, int]:
    """count ints written by ints, then the offset after them; an empty
    field, which ints never writes, is a FramingError."""
    values = []
    for _ in range(count):
        blob, off = read_lp(buf, off)
        if not blob:
            raise FramingError("integer list with an empty field")
        values.append(int.from_bytes(blob, "big"))
    return values, off


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
