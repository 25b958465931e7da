"""Modular exponentiation through GMP's constant-time mpz_powm_sec.

powmod(base, exp, mod) returns exactly pow(base, exp, mod).  When
libgmp loads, a call with exp > 0, an odd mod >= 3 and a base that is
not a multiple of mod runs in mpz_powm_sec: its running time and memory
access pattern depend on the bit lengths of the operands, not on the
exponent's value, and ctypes releases the interpreter lock for the
duration of the call.  Every other call, and every call on a host
without libgmp, goes through the built-in pow.  The two paths return
identical results, so no ciphertext, randomness distribution or
hardness assumption depends on which one ran.
"""

import ctypes

_SONAMES = ("libgmp.so.10", "libgmp.10.dylib", "libgmp.so")


class _Mpz(ctypes.Structure):
    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int),
                ("d", ctypes.c_void_p)]


def _load():
    for name in _SONAMES:
        try:
            lib = ctypes.CDLL(name)
            fns = (lib.__gmpz_init, lib.__gmpz_clear, lib.__gmpz_import,
                   lib.__gmpz_export, lib.__gmpz_powm_sec)
        except (OSError, AttributeError):
            continue
        z = ctypes.POINTER(_Mpz)
        size = ctypes.c_size_t
        init, clear, imp, exp, powm = fns
        init.argtypes = clear.argtypes = [z]
        imp.argtypes = [z, size, ctypes.c_int, size, ctypes.c_int, size,
                        ctypes.c_char_p]
        exp.argtypes = [ctypes.c_char_p, ctypes.POINTER(size), ctypes.c_int,
                        size, ctypes.c_int, size, z]
        powm.argtypes = [z, z, z, z]
        init.restype = clear.restype = imp.restype = powm.restype = None
        exp.restype = ctypes.c_void_p
        return lib
    return None


_gmp = _load()


def powmod(base: int, exp: int, mod: int) -> int:
    """pow(base, exp, mod), constant-time in exp where GMP allows it."""
    lib = _gmp
    if lib is None or exp <= 0 or mod < 3 or not mod & 1:
        return pow(base, exp, mod)
    base %= mod
    if base == 0:
        return 0
    zs = (_Mpz(), _Mpz(), _Mpz(), _Mpz())
    for z in zs:
        lib.__gmpz_init(z)
    r, b, e, m = zs
    try:
        for z, v in ((b, base), (e, exp), (m, mod)):
            blob = v.to_bytes((v.bit_length() + 7) // 8, "big")
            lib.__gmpz_import(z, len(blob), 1, 1, 1, 0, blob)
        lib.__gmpz_powm_sec(r, b, e, m)
        out = ctypes.create_string_buffer((mod.bit_length() + 7) // 8)
        count = ctypes.c_size_t(0)
        lib.__gmpz_export(out, ctypes.byref(count), 1, 1, 1, 0, r)
        return int.from_bytes(out.raw[:count.value], "big")
    finally:
        for z in zs:
            lib.__gmpz_clear(z)
