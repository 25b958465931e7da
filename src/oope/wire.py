"""Byte-level encoding helpers (big-endian throughout)."""

from .errors import FramingError

ORDER_BYTES = 16  # orders travel as 16-byte big-endian integers


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


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR of two byte strings of equal length."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big")
