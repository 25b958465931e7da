"""powmod against the built-in pow, on the GMP path and the fallback."""

import ctypes
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oope import modexp
from oope.modexp import powmod
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


def test_gmp_path_is_active_where_libgmp_exists():
    """A signature mistake must not silently drop every call to pow."""
    for name in modexp._SONAMES:
        try:
            ctypes.CDLL(name)
        except OSError:
            continue
        assert modexp._gmp is not None
        return
    pytest.skip("libgmp is not installed")


@settings(max_examples=50, deadline=None)
@given(mod=odd_moduli, base=sized(1, 1024), exp=sized(1, 1024) | st.just(-1))
def test_fallback_without_library(mod, base, exp):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modexp, "_gmp", None)
        try:
            want = pow(base, exp, mod)
        except ValueError:  # base not invertible
            with pytest.raises(ValueError):
                powmod(base, exp, mod)
            return
        assert powmod(base, exp, mod) == want


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
