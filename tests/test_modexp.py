"""powmod and FixedBase against the built-in pow, on the GMP paths and
the fallbacks."""

import ctypes
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oope import modexp
from oope.errors import DomainError
from oope.modexp import FixedBase, powmod
from oope.rng import make_rng


@st.composite
def sized(draw, low=1, high=4096):
    """An integer of a drawn bit length in [low, high]."""
    bits = draw(st.integers(low, high))
    return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))


odd_moduli = sized(2).map(lambda m: m | 1)


@settings(max_examples=150, deadline=None)
@given(mod=odd_moduli, base=sized() | st.just(0), exp=sized() | st.just(0))
def test_matches_builtin_pow(mod, base, exp):
    assert powmod(base, exp, mod) == pow(base, exp, mod)


@pytest.mark.parametrize("base,exp,mod", [
    (5, 0, 7),            # exp == 0
    (0, 0, 7),
    (5, 3, 1),            # mod == 1
    (5, 0, 1),
    (5, 77, 2),
    (12345, 67, 1 << 64),  # even mod
    (12345, 67, 10 ** 40),
    (10 ** 50 + 3, 65537, 10 ** 30 + 7),  # base >= mod
    (10 ** 30 + 7, 5, 10 ** 30 + 7),      # base == mod
    (0, 9, 10 ** 30 + 7),                 # base == 0
    (-12345, 7, 10 ** 30 + 7),            # negative base
    (12345, -1, 10 ** 30 + 7),            # inverse delegates to pow
    (3, -2, 7),
])
def test_edge_cases(base, exp, mod):
    assert powmod(base, exp, mod) == pow(base, exp, mod)


def _address(fn):
    return ctypes.cast(fn, ctypes.c_void_p).value


def test_gmp_path_is_active_where_libgmp_exists():
    """A signature mistake must not silently drop every call to pow."""
    for name in modexp._SONAMES:
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        assert modexp._gmp is not None
        if not hasattr(lib, "__gmpn_sec_powm"):
            pytest.skip("libgmp lacks the mpn_sec functions")
        assert _address(modexp._sec.powm) == _address(lib.__gmpn_sec_powm)
        return
    pytest.skip("libgmp is not installed")


@settings(max_examples=50, deadline=None)
@given(mod=odd_moduli, base=sized(1, 1024), exp=sized(1, 1024) | st.just(-1))
def test_fallback_without_library(mod, base, exp):
    calls = []

    def recording_pow(*args):
        calls.append(args)
        return pow(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modexp, "_sec", None)
        mp.setattr(modexp, "pow", recording_pow, raising=False)
        try:
            want = pow(base, exp, mod)
        except ValueError:  # base not invertible
            with pytest.raises(ValueError):
                powmod(base, exp, mod)
            assert calls == [(base, exp, mod)]
            return
        assert powmod(base, exp, mod) == want
    assert calls == [(base, exp, mod)]


@pytest.mark.skipif(modexp._sec is None, reason="no mpn_sec functions")
def test_powmod_is_one_mpn_sec_powm_call():
    # one call per powmod, whose exponent bit count (its fifth argument)
    # is the limb bits times exp's limb count, as mpz_powm_sec passes
    # it: the same for every exponent of one limb count
    real, bit_counts = modexp._sec, []

    def powm(*args):
        bit_counts.append(args[4])
        return real.powm(*args)

    limb_bits = 8 * ctypes.sizeof(real.limb)
    mod, rng = _modulus(3072, 9)
    base = rng.randrange(2, mod)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modexp, "_sec", SimpleNamespace(**dict(vars(real),
                                                          powm=powm)))
        for bits in (1, 63, 64, 65, 255, 256):
            limbs = -(-bits // limb_bits)
            for e in (1 << (bits - 1), (1 << bits) - 1,
                      (1 << (limb_bits * limbs)) - 1):
                bit_counts.clear()
                assert powmod(base, e, mod) == pow(base, e, mod)
                assert bit_counts == [limb_bits * limbs]


def test_two_threads_agree_with_pow():
    failures = []

    def worker(seed):
        rng = make_rng(seed)
        for _ in range(50):
            mod = rng.getrandbits(1024) | 1 | (1 << 1023)
            base, exp = rng.getrandbits(1100), rng.getrandbits(1024)
            if powmod(base, exp, mod) != pow(base, exp, mod):
                failures.append((base, exp, mod))

    threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not failures


# FixedBase: a 4096-bit modulus is the N^2 of a 2048-bit key, 2047 bits
# the smallest that gets a table, 512 bits one that does not
COMB_BITS = (4096, modexp._COMB_MIN_BITS, 512)


def _modulus(bits, seed):
    rng = make_rng(seed)
    return rng.getrandbits(bits) | 1 | 1 << (bits - 1), rng


@pytest.fixture(scope="module")
def fixed_bases():
    """One FixedBase over a 256-bit exponent per size of COMB_BITS."""
    out = {}
    for bits in COMB_BITS:
        mod, rng = _modulus(bits, bits)
        out[bits] = FixedBase(rng.randrange(2, mod), mod, 256)
    return out


@settings(max_examples=25, deadline=None)
@given(mod_bits=st.sampled_from((2048, 600)), bits=st.integers(1, 300),
       base=sized(1, 2100), data=st.data())
def test_fixed_base_matches_builtin_pow(mod_bits, bits, base, data):
    # a table per example, above and below the threshold: every row
    # count, and bases at or above mod
    mod = data.draw(sized(mod_bits, mod_bits))
    fb = FixedBase(base, mod, bits)
    for e in data.draw(st.lists(st.integers(1, (1 << bits) - 1),
                                min_size=1, max_size=3)):
        assert fb.pow(e) == pow(base, e, mod)


@pytest.mark.parametrize("size", COMB_BITS)
def test_fixed_base_exponent_edges(fixed_bases, size):
    fb = fixed_bases[size]
    for e in (1, 2, 63, 64, (1 << 256) - 1, 1 << 255):
        assert fb.pow(e) == pow(fb.base, e, fb.mod)
    for e in (0, -1, 1 << 256):
        with pytest.raises(DomainError, match="outside"):
            fb.pow(e)


def test_fixed_base_shared_by_threads(fixed_bases):
    # more threads than cores, switching often, read one table
    fb = fixed_bases[4096]
    failures = []

    def worker(seed):
        rng = make_rng(seed)
        for _ in range(20):
            e = rng.randrange(1, 1 << 256)
            if fb.pow(e) != pow(fb.base, e, fb.mod):
                failures.append(e)

    threads = [threading.Thread(target=worker, args=(s,))
               for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


@settings(max_examples=30, deadline=None)
@given(size=st.sampled_from(COMB_BITS[:2]), e=st.integers(1, (1 << 256) - 1))
def test_fixed_base_fallback_without_mpn_sec(size, e):
    mod, rng = _modulus(size, size + 1)
    base = rng.randrange(2, mod)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modexp, "_sec", None)
        fb = FixedBase(base, mod, 256)
        assert fb._table is None
        assert fb.pow(e) == pow(base, e, mod)


def test_mpn_sec_path_is_active_where_libgmp_exports_it(fixed_bases):
    """A signature mistake must not silently drop every table."""
    for name in modexp._SONAMES:
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        if not hasattr(lib, "__gmpn_sec_tabselect"):
            pytest.skip("libgmp lacks the mpn_sec functions")
        assert modexp._sec is not None
        assert fixed_bases[4096]._table is not None
        assert fixed_bases[modexp._COMB_MIN_BITS]._table is not None
        assert fixed_bases[512]._table is None
        return
    pytest.skip("libgmp is not installed")


def _recorded_calls(fb, e):
    """Each mpn_sec call fb.pow(e) makes: the function, its size
    arguments, the table row a pointer reaches into and, for any other
    buffer, the order in which the call sequence first passed it."""
    real, calls, buffers = modexp._sec, [], {}
    table = ctypes.addressof(fb._table)
    row_bytes = ctypes.sizeof(fb._table) // fb._rows

    def label(arg):
        if isinstance(arg, int) and table <= arg < table + \
                ctypes.sizeof(fb._table):
            return ("row", (arg - table) // row_bytes,
                    (arg - table) % row_bytes)
        if isinstance(arg, int):
            return ("size", arg)
        return ("buffer", buffers.setdefault(ctypes.addressof(arg),
                                             len(buffers)),
                ctypes.sizeof(arg))

    def recording(name):
        fn = getattr(real, name)

        def call(*args):
            calls.append((name, *map(label, args)))
            return fn(*args)
        return call

    recorder = SimpleNamespace(**vars(real))
    for name in ("tabselect", "mul", "div_r", "mul_itch", "div_r_itch"):
        setattr(recorder, name, recording(name))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modexp, "_sec", recorder)
        assert fb.pow(e) == pow(fb.base, e, fb.mod)
    return calls


@pytest.mark.skipif(modexp._sec is None, reason="no mpn_sec functions")
def test_fixed_base_call_sequence_does_not_depend_on_the_exponent(
        fixed_bases):
    # the same calls with the same sizes on the same rows and buffers
    # for every exponent; only tabselect's digit (its last argument)
    # differs, and the digits spell the exponent
    fb = fixed_bases[4096]
    rng = make_rng(17)
    exps = [1, (1 << 256) - 1] + [rng.randrange(1, 1 << 256)
                                  for _ in range(4)]
    shapes = set()
    for e in exps:
        calls = _recorded_calls(fb, e)
        selects = [c for c in calls if c[0] == "tabselect"]
        assert len(selects) == fb._rows == 43
        assert [c[2][:2] for c in selects] == \
            [("row", i) for i in range(fb._rows)]
        assert sum(c[-1][1] << (modexp._WINDOW * i)
                   for i, c in enumerate(selects)) == e
        assert [c[0] for c in calls] == ["tabselect", "mul", "div_r"] * 43
        shapes.add(tuple(c[:-1] if c[0] == "tabselect" else c
                         for c in calls))
    assert len(shapes) == 1
