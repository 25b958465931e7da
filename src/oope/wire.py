"""Byte-level encoding helpers (big-endian throughout)."""

import hashlib

from .errors import FramingError, IntegrityError

ORDER_BYTES = 16  # orders travel as 16-byte big-endian integers
SEAL_DIGEST_BYTES = 32


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


def seal(magic: bytes, version: int, body: bytes) -> bytes:
    """A state file: magic 4 B | version u16 | body | SHA-256 over all
    of it.  Files use it; frames on the wire do not."""
    head = magic + u16(version) + body
    return head + hashlib.sha256(head).digest()


def unseal(blob: bytes, magic: bytes, version: int) -> bytes:
    """The body of a sealed file; a bad checksum, magic or version is an
    IntegrityError."""
    head = blob[:-SEAL_DIGEST_BYTES]
    if len(head) < 6 or hashlib.sha256(head).digest() != \
            blob[-SEAL_DIGEST_BYTES:]:
        raise IntegrityError(f"{magic.decode()} file checksum mismatch")
    if head[:4] != magic:
        raise IntegrityError(f"not a {magic.decode()} file")
    got = int.from_bytes(head[4:6], "big")
    if got != version:
        raise IntegrityError(
            f"unsupported {magic.decode()} file version {got}")
    return head[6:]
