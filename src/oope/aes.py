"""Fixed-key AES-128 and the tweakable hash built on it.

permute(blocks) applies π, AES-128 under the fixed public key KEY, to
every 16-byte block of blocks in one call: ECB mode with padding off,
through the EVP interface of the libcrypto that hashlib has already
mapped into the process.  ctypes.PyDLL keeps the interpreter lock held
for the call, so calls from the owner's and the analyst's threads never
overlap on the shared cipher context, and each call writes into an
output buffer of its own.  Input that is not a whole number of blocks
is refused before it reaches the context, where a partial block would
stay buffered and shift every later call.

tccr(blocks, tweaks) is H(x, i) = π(π(x) ⊕ i) ⊕ π(x), the tweakable
circular correlation-robust hash of Guo, Katz, Wang and Yu ("Efficient
and secure multiparty computation from fixed-key block ciphers", S&P
2020), over every block x with its own 128-bit tweak i, in two calls
of π however many blocks there are.  The security argument, and what
each caller must keep distinct, is in garbling and ot.

A host whose Python has no OpenSSL-backed hashlib, or whose libcrypto
lacks EVP_aes_128_ecb, fails at import with a ConfigurationError; the
package has no second implementation of π.
"""

import ctypes
import hashlib

from .errors import ConfigurationError, UsageError

BLOCK_BYTES = 16
# nothing-up-my-sleeve public key: π must be a fixed, public permutation
KEY = hashlib.sha256(b"oope fixed-key AES-128").digest()[:BLOCK_BYTES]

_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1", "libcrypto.3.dylib",
            "libcrypto.1.1.dylib", "libcrypto.so")


def _load():
    for name in _SONAMES:
        try:
            lib = ctypes.PyDLL(name)
            new, ecb, init, padding, update = (
                lib.EVP_CIPHER_CTX_new, lib.EVP_aes_128_ecb,
                lib.EVP_EncryptInit_ex, lib.EVP_CIPHER_CTX_set_padding,
                lib.EVP_EncryptUpdate)
        except (OSError, AttributeError):
            continue
        new.restype = ecb.restype = ctypes.c_void_p
        new.argtypes = ecb.argtypes = []
        init.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                         ctypes.c_char_p, ctypes.c_char_p]
        padding.argtypes = [ctypes.c_void_p, ctypes.c_int]
        init.restype = padding.restype = update.restype = ctypes.c_int
        ctx = new()
        if not ctx or init(ctx, ecb(), None, KEY, None) != 1 or \
                padding(ctx, 0) != 1:
            raise ConfigurationError(f"{name}: AES-128-ECB set-up failed")
        # update carries no argtypes: converting its arguments by hand
        # halves the cost of a call, which the gate loops make per level
        return update, ctypes.c_void_p(ctx)
    raise ConfigurationError("no libcrypto with EVP_aes_128_ecb found")


_update, _ctx = _load()
# every call writes the out-length here and none reads it; the ctypes
# object and its reference live as long as the module does
_out_len = ctypes.c_int(0)
_out_len_ref = ctypes.byref(_out_len)
_char = ctypes.c_char


def permute(blocks: bytes) -> bytes:
    """π applied to every 16-byte block of blocks."""
    n = len(blocks)
    if n % BLOCK_BYTES:
        raise UsageError("AES input is not a whole number of blocks")
    out = (_char * n)()
    if _update(_ctx, out, _out_len_ref, blocks, n) != 1:
        raise ConfigurationError("AES-128-ECB encryption failed")
    return out.raw


def tccr(blocks: bytes, tweaks: int) -> int:
    """π(π(x) ⊕ i) ⊕ π(x) for every block x of blocks, with tweaks the
    blocks' tweaks i packed big-endian into one int of the same width;
    returns the hashes packed the same way."""
    y = int.from_bytes(permute(blocks), "big")
    z = permute((y ^ tweaks).to_bytes(len(blocks), "big"))
    return int.from_bytes(z, "big") ^ y
