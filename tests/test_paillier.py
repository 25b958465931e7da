"""Homomorphic core: roundtrips, homomorphisms, optimizations, wire format."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oope import paillier
from oope.errors import DomainError, KeyMismatchError
from oope.rng import make_rng


@pytest.fixture(scope="module")
def keys():
    return paillier.keygen(256, rng=make_rng(7), allow_small=True)


@pytest.fixture(scope="module")
def key_sizes(keys):
    return {256: keys, 2048: paillier.keygen(2048, rng=make_rng(61))}


def test_keygen_rejects_nonstandard_sizes():
    with pytest.raises(DomainError):
        paillier.keygen(512)
    with pytest.raises(DomainError):
        paillier.keygen(30, allow_small=True)


def test_keygen_modulus_bit_length():
    pk, _ = paillier.keygen(128, rng=make_rng(1), allow_small=True)
    assert pk.n.bit_length() == 128
    assert pk.n % 2 == 1


def test_roundtrip_zero_and_boundary(keys):
    pk, sk = keys
    assert paillier.decrypt(sk, paillier.encrypt(pk, 0, make_rng(2))) == 0
    assert paillier.decrypt(sk, paillier.encrypt(pk, pk.n - 1, make_rng(3))) == pk.n - 1


def test_roundtrip_random(keys):
    pk, sk = keys
    rng = make_rng(11)
    for _ in range(1000):
        m = rng.randrange(pk.n)
        assert paillier.decrypt(sk, paillier.encrypt(pk, m, rng)) == m


def test_encrypt_is_probabilistic(keys):
    pk, sk = keys
    rng = make_rng(5)
    c1 = paillier.encrypt(pk, 77, rng)
    c2 = paillier.encrypt(pk, 77, rng)
    assert c1.value != c2.value
    assert paillier.decrypt(sk, c1) == paillier.decrypt(sk, c2) == 77


def test_encrypt_domain_error(keys):
    pk, _ = keys
    with pytest.raises(DomainError):
        paillier.encrypt(pk, pk.n, make_rng(0))
    with pytest.raises(DomainError):
        paillier.encrypt(pk, -1, make_rng(0))


def test_hom_add(keys):
    pk, sk = keys
    rng = make_rng(13)
    assert paillier.decrypt(sk, paillier.hom_add(
        pk, paillier.encrypt(pk, 0, rng), paillier.encrypt(pk, 9, rng))) == 9
    assert paillier.decrypt(sk, paillier.hom_add(
        pk, paillier.encrypt(pk, 20, rng), paillier.encrypt(pk, 5, rng))) == 25
    for _ in range(50):
        a, b, c = (rng.randrange(pk.n) for _ in range(3))
        ca, cb, cc = (paillier.encrypt(pk, v, rng) for v in (a, b, c))
        left = paillier.hom_add(pk, paillier.hom_add(pk, ca, cb), cc)
        right = paillier.hom_add(pk, ca, paillier.hom_add(pk, cb, cc))
        assert paillier.decrypt(sk, left) == paillier.decrypt(sk, right) \
            == (a + b + c) % pk.n


def test_hom_scale(keys):
    pk, sk = keys
    rng = make_rng(17)
    assert paillier.decrypt(
        sk, paillier.hom_scale(pk, paillier.encrypt(pk, 42, rng), 1)) == 42
    assert paillier.decrypt(
        sk, paillier.hom_scale(pk, paillier.encrypt(pk, 3, rng), 7)) == 21
    with pytest.raises(DomainError):
        paillier.hom_scale(pk, paillier.encrypt(pk, 3, rng), 0)
    for _ in range(50):
        m = rng.randrange(pk.n)
        s = rng.randrange(1, pk.n)
        c = paillier.hom_scale(pk, paillier.encrypt(pk, m, rng), s)
        assert paillier.decrypt(sk, c) == m * s % pk.n


def test_crt_equals_direct(keys):
    pk, sk = keys
    rng = make_rng(23)
    for _ in range(100):
        c = paillier.encrypt(pk, rng.randrange(pk.n), rng)
        assert paillier.decrypt(sk, c) == paillier.decrypt_direct(sk, c)


@pytest.mark.parametrize("bits", [256, 2048])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decrypt_below_equals_full_crt(key_sizes, bits, data):
    pk, sk = key_sizes[bits]
    # bounds up to P take the mod-P path, larger ones the full CRT
    below = data.draw(st.integers(1, sk.p) | st.integers(sk.p + 1, pk.n),
                      label="below")
    for m in (data.draw(st.integers(0, below - 1), label="m"), below - 1):
        c = paillier.encrypt(pk, m, make_rng(m))
        assert paillier.decrypt(sk, c, below=below) == \
            paillier.decrypt(sk, c) == m


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decrypt_mod_p_passes_out_of_range_only_with_a_factor(keys, data):
    # a plaintext at or above the bound decrypts below it only when its
    # author knew the factor P of N
    pk, sk = keys
    below = data.draw(st.integers(1, sk.p), label="below")
    m = data.draw(st.integers(below, pk.n - 1) |
                  st.builds(lambda k, s: k * sk.p + s,
                            st.integers(1, sk.q - 1), st.integers(0, below - 1)),
                  label="m")
    s = paillier.decrypt(sk, paillier.encrypt(pk, m, make_rng(m)), below=below)
    assert s == m % sk.p
    if s < below:
        assert math.gcd(m - s, pk.n) == sk.p


def textbook_encrypt(pk, m, rng):
    """Full-range Paillier, (1+mN) * r^N mod N^2 with r uniform in Z_N*:
    the oracle for the short-exponent encrypt."""
    while True:
        r = rng.randrange(1, pk.n)
        if math.gcd(r, pk.n) == 1:
            break
    value = (1 + m * pk.n) * pow(r, pk.n, pk.n_sq) % pk.n_sq
    return paillier.HomCiphertext(value, pk.key_id)


@pytest.mark.parametrize("bits", [256, 2048])
def test_short_exponent_agrees_with_full_range_oracle(key_sizes, bits):
    pk, sk = key_sizes[bits]
    rng = make_rng(bits)
    below = 1 << 66  # at most P on both key sizes: the mod-P path
    for m in (0, 1, below - 1, rng.randrange(below), rng.randrange(pk.n)):
        short = paillier.encrypt(pk, m, rng)
        full = textbook_encrypt(pk, m, rng)
        for c in (short, full):
            assert paillier.decrypt(sk, c) == \
                paillier.decrypt_direct(sk, c) == m
            if m < below:
                assert paillier.decrypt(sk, c, below=below) == m
        m2 = rng.randrange(pk.n)
        mixed = paillier.hom_add(pk, short, textbook_encrypt(pk, m2, rng))
        assert paillier.decrypt(sk, mixed) == (m + m2) % pk.n
        assert paillier.decrypt(sk, paillier.hom_add(
            pk, full, paillier.encrypt(pk, m2, rng))) == (m + m2) % pk.n


def test_alpha_draws_lie_in_range(keys):
    pk, _ = keys
    asked = []

    class RecordingRng(random.Random):
        def randrange(self, *args):
            asked.append(args)
            return super().randrange(*args)

    rng = RecordingRng(59)
    alphas = [paillier.fresh_alpha(rng) for _ in range(2000)]
    assert set(asked) == {(1, 1 << paillier.ALPHA_BITS)}
    assert all(1 <= a < 1 << 256 for a in alphas)
    assert max(a.bit_length() for a in alphas) == 256
    # encrypt draws the same alpha itself and takes one from its caller
    for a in (1, alphas[0], (1 << 256) - 1):
        c = paillier.encrypt(pk, 5, alpha=a)
        assert c.value == (1 + 5 * pk.n) * pow(pk.h_n, a, pk.n_sq) % pk.n_sq
    assert paillier.encrypt(pk, 5, make_rng(3)) == \
        paillier.encrypt(pk, 5, alpha=paillier.fresh_alpha(make_rng(3)))


def test_h_n_is_a_fixed_nth_residue_of_n(key_sizes):
    # h^N is an N-th residue (order dividing lam) and not 1, the same on
    # every key object over N, and differs between moduli
    for pk, sk in key_sizes.values():
        assert pk.h_n != 1 and math.gcd(pk.h_n, pk.n) == 1
        assert pow(pk.h_n, sk.lam, pk.n_sq) == 1
        assert paillier.PaillierPublicKey(pk.n, pk.key_bits).h_n == pk.h_n
    assert key_sizes[256][0].h_n != key_sizes[2048][0].h_n


def test_fast_g_equals_textbook(keys):
    # (1+mN) * r^N == g^m * r^N with g = 1+N, for identical r
    pk, _ = keys
    rng = make_rng(29)
    for _ in range(20):
        m = rng.randrange(pk.n)
        r = rng.randrange(1, pk.n)
        rn = pow(r, pk.n, pk.n_sq)
        fast = (1 + m * pk.n) % pk.n_sq * rn % pk.n_sq
        textbook = pow(1 + pk.n, m, pk.n_sq) * rn % pk.n_sq
        assert fast == textbook


def test_key_mismatch_detected(keys):
    pk, sk = keys
    pk2, sk2 = paillier.keygen(256, rng=make_rng(31), allow_small=True)
    c = paillier.encrypt(pk, 5, make_rng(1))
    with pytest.raises(KeyMismatchError):
        paillier.decrypt(sk2, c)
    with pytest.raises(KeyMismatchError):
        paillier.hom_add(pk2, c, paillier.encrypt(pk2, 1, make_rng(2)))


def test_ciphertext_serialization_roundtrip(keys):
    pk, _ = keys
    c = paillier.encrypt(pk, 1234, make_rng(43))
    rec = paillier.cipher_record(c, pk.key_bits)
    assert len(rec) == 4 + paillier.cipher_width(pk.key_bits)
    parsed, off = paillier.parse_cipher_record(rec, 0, pk.key_id)
    assert parsed == c and off == len(rec)


def test_key_serialization_roundtrip(keys):
    pk, sk = keys
    pk2, _ = paillier.parse_public_key(paillier.serialize_public_key(pk))
    assert pk2 == pk and pk2.key_id == pk.key_id
    sk2, _ = paillier.parse_private_key(paillier.serialize_private_key(sk))
    c = paillier.encrypt(pk, 99, make_rng(47))
    assert paillier.decrypt(sk2, c) == 99


def test_coprimality_of_ciphertexts(keys):
    pk, _ = keys
    rng = make_rng(53)
    for _ in range(20):
        c = paillier.encrypt(pk, rng.randrange(pk.n), rng)
        assert math.gcd(c.value, pk.n) == 1
