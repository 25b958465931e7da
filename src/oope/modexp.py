"""Modular exponentiation through GMP's side-channel-silent functions.

Two entry points, both reaching libgmp's mpn_sec functions through
ctypes, whose calls release the interpreter lock.

powmod(base, exp, mod) returns exactly pow(base, exp, mod).  A call
with exp > 0, an odd mod >= 3 and a base that is not a multiple of mod
is one mpn_sec_powm call on limb buffers: base mod mod padded to mod's
limb count, exp's limbs, and 64 times exp's limb count (on 64-bit
limbs) as the exponent's bit count, which is what mpz_powm_sec passes
to the same function.  Its running time and memory access pattern
depend on the operands' lengths, not on the exponent's value.  Every
other call, and every call where libgmp or its mpn_sec functions are
missing, goes through the built-in pow.

FixedBase(base, mod, bits) raises one base, fixed for the object's
life, to exponents e in [1, 2^bits): pow(e) returns pow(base, e, mod).
Where the mpn_sec functions load and mod has at least _COMB_MIN_BITS
bits, it is a comb after Brickell, Gordon, McCurley and Wilson ("Fast
exponentiation with precomputation", EUROCRYPT 1992):
the object holds base^(j*2^(W*i)) for each of the ceil(bits/W) windows
i and each W-bit digit j, with W = _WINDOW, and pow(e) multiplies one
entry per window.  Each window makes three calls: mpn_sec_tabselect,
which reads the window's whole row and keeps the digit's entry, then
mpn_sec_mul and mpn_sec_div_r, which multiply and reduce in time and
memory accesses that depend only on the operands' limb counts.  So the
sequence of calls, their sizes and the rows they read are fixed by
(mod, bits, W); only the digit each tabselect keeps depends on e.  The
digits are cut from e with Python shifts of e + 2^(W*windows), whose
length is the same for every e, so no shift's size depends on e
either; CPython's integer arithmetic itself promises nothing about
timing.  Below _COMB_MIN_BITS, and without the mpn_sec functions, pow
is powmod.

The two paths of each function return identical results, so no
ciphertext, randomness distribution or hardness assumption depends on
which one ran.

fan_out(fn, items) is [fn(x) for x in items] over os.cpu_count()
contiguous slices of items, the first on the calling thread and the
rest on a thread pool.  GMP calls release the interpreter lock, so the
slices' exponentiations run in parallel; the results come back in item
order, the same on any number of cores.
"""

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

from .errors import DomainError

_SONAMES = ("libgmp.so.10", "libgmp.10.dylib", "libgmp.so")

# Comb window bits.  On a 4096-bit modulus (the N^2 of a 2048-bit
# Paillier key), one sitting on a 2-core VM: a 256-bit exponent took
# 1.06 ms at W = 6, 1.20 ms at 5, 1.08 ms at 7 and 1.17 ms at 8, with
# tables of 0.81, 1.34, 2.31 and 4.00 MB built in 34, 57, 102 and
# 164 ms.  The W = 6 table holds 43 rows of 64 entries.
_WINDOW = 6
# Smallest modulus that gets a table: the N^2 of a 1024-bit Paillier
# key has 2047 or 2048 bits.  Per 256-bit exponent (thread_time, median
# of 5 x 200, 2-core VM), powmod against the comb: 0.063 against 0.297
# ms on a 256-bit key, where the comb's 129 ctypes calls dominate; 0.415
# against 0.333 ms on a 1024-bit key; 1.70 against 0.73 ms on 2048 bits.
_COMB_MIN_BITS = 2047


def _load():
    for name in _SONAMES:
        try:
            return ctypes.CDLL(name)
        except OSError:
            continue
    return None


def _load_sec(lib):
    """The mpn_sec functions powmod and the comb call and the limb
    type, or None where libgmp is missing or lacks them."""
    if lib is None:
        return None
    try:
        sec = SimpleNamespace(
            powm=lib.__gmpn_sec_powm, powm_itch=lib.__gmpn_sec_powm_itch,
            tabselect=lib.__gmpn_sec_tabselect, mul=lib.__gmpn_sec_mul,
            div_r=lib.__gmpn_sec_div_r, mul_itch=lib.__gmpn_sec_mul_itch,
            div_r_itch=lib.__gmpn_sec_div_r_itch)
        limb_bits = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value
    except (AttributeError, ValueError):
        return None
    sec.limb = {32: ctypes.c_uint32, 64: ctypes.c_uint64}.get(limb_bits)
    if sec.limb is None:
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t  # mp_limb_t *, mp_size_t
    bits = ctypes.c_ulong  # mp_bitcnt_t
    sec.powm.argtypes = [ptr, ptr, size, ptr, bits, ptr, size, ptr]
    sec.powm_itch.argtypes = [size, bits, size]
    sec.tabselect.argtypes = [ptr, ptr, size, size, size]
    sec.mul.argtypes = [ptr, ptr, size, ptr, size, ptr]
    sec.div_r.argtypes = [ptr, size, ptr, size, ptr]
    sec.mul_itch.argtypes = sec.div_r_itch.argtypes = [size, size]
    sec.powm.restype = sec.tabselect.restype = sec.mul.restype = \
        sec.div_r.restype = None
    sec.powm_itch.restype = sec.mul_itch.restype = \
        sec.div_r_itch.restype = size
    return sec


_gmp = _load()
_sec = _load_sec(_gmp)
_powm_scratch = {}  # (limbs of mod, limbs of exp) -> mpn_sec_powm_itch


def powmod(base: int, exp: int, mod: int) -> int:
    """pow(base, exp, mod), constant-time in exp where GMP allows it:
    one mpn_sec_powm call (module docstring)."""
    sec = _sec
    if sec is None or exp <= 0 or mod < 3 or not mod & 1:
        return pow(base, exp, mod)
    base %= mod
    if base == 0:
        return 0
    limb_bits = 8 * ctypes.sizeof(sec.limb)
    n = -(-mod.bit_length() // limb_bits)
    en = -(-exp.bit_length() // limb_bits)
    scratch = _powm_scratch.get((n, en))
    if scratch is None:
        scratch = _powm_scratch[n, en] = sec.powm_itch(n, limb_bits * en, n)
    b, e, m = ((sec.limb * k).from_buffer_copy(v.to_bytes(k * limb_bits // 8,
                                                          "little"))
               for v, k in ((base, n), (exp, en), (mod, n)))
    out = (sec.limb * n)()
    sec.powm(out, b, n, e, limb_bits * en, m, n, (sec.limb * scratch)())
    return int.from_bytes(bytes(out), "little")


def fan_out(fn, items) -> list:
    """[fn(x) for x in items], spread over the cores (module docstring).

    The calling thread runs the first slice itself because a pool
    reuses a worker that went idle, so short slices could all queue on
    one thread.
    """
    items = list(items)
    workers = min(os.cpu_count() or 1, len(items))

    def run(chunk):
        return [fn(x) for x in chunk]

    if workers <= 1:
        return run(items)
    size = -(-len(items) // workers)
    first, *rest = [items[i:i + size] for i in range(0, len(items), size)]
    with ThreadPoolExecutor(len(rest)) as pool:
        futures = [pool.submit(run, chunk) for chunk in rest]
        out = run(first)
        for f in futures:
            out.extend(f.result())
        return out


class FixedBase:
    """pow(base, e, mod) for e in [1, 2^bits), base and mod fixed.

    The comb's table, where there is one, is built here, once; pow only
    reads it, so threads may share one object.
    """

    def __init__(self, base: int, mod: int, bits: int):
        self.base = base % mod
        self.mod = mod
        self.bits = bits
        self._table = None
        sec = _sec
        if sec is not None and mod.bit_length() >= _COMB_MIN_BITS:
            self._build(sec)

    def _build(self, sec):
        limb_bytes = ctypes.sizeof(sec.limb)
        n = self._limbs = -(-self.mod.bit_length() // (8 * limb_bytes))
        self._rows = -(-self.bits // _WINDOW)
        size, step = 1 << _WINDOW, n * limb_bytes
        self._mod = (sec.limb * n).from_buffer_copy(
            self.mod.to_bytes(step, "little"))
        table = (sec.limb * (self._rows * size * n))()
        g = (sec.limb * n).from_buffer_copy(self.base.to_bytes(step, "little"))
        prod = (sec.limb * (2 * n))()
        self._scratch = max(sec.mul_itch(n, n), sec.div_r_itch(2 * n, n))
        scratch = (sec.limb * self._scratch)()
        for i in range(self._rows):
            # row i: entry j is g^j for g = base^(2^(W*i)); its last
            # product, g^(2^W), is the next row's g
            row = ctypes.addressof(table) + i * size * step
            table[i * size * n] = 1
            ctypes.memmove(row + step, g, step)
            for j in range(2, size + 1):
                sec.mul(prod, row + (j - 1) * step, n, g, n, scratch)
                sec.div_r(prod, 2 * n, self._mod, n, scratch)
                ctypes.memmove(row + j * step if j < size else g, prod, step)
        self._table = table

    def pow(self, e: int) -> int:
        """base^e mod mod; an e outside [1, 2^bits) is a DomainError."""
        if not 0 < e < 1 << self.bits:
            raise DomainError(f"exponent outside [1, 2^{self.bits})")
        if self._table is None:
            return powmod(self.base, e, self.mod)
        sec, n, rows = _sec, self._limbs, self._rows
        size, step = 1 << _WINDOW, n * ctypes.sizeof(sec.limb)
        sel = (sec.limb * n)()
        acc, out = (sec.limb * (2 * n))(1), (sec.limb * (2 * n))()  # acc = 1
        scratch = (sec.limb * self._scratch)()
        digits = e | 1 << (_WINDOW * rows)
        row = ctypes.addressof(self._table)
        for i in range(rows):
            sec.tabselect(sel, row + i * size * step, n, size,
                          digits >> (_WINDOW * i) & (size - 1))
            sec.mul(out, acc, n, sel, n, scratch)
            sec.div_r(out, 2 * n, self._mod, n, scratch)
            acc, out = out, acc
        return int.from_bytes(bytes(acc)[:step], "little")
