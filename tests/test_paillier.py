"""Homomorphic core: roundtrips, homomorphisms, optimizations, wire format."""

import math
import time

import pytest

from oope import paillier
from oope.errors import (ConfigurationError, DomainError, KeyMismatchError)
from oope.rng import make_rng


@pytest.fixture(scope="module")
def keys():
    return paillier.keygen(256, rng=make_rng(7), allow_small=True)


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


def test_blinded_difference_zero_iff_equal(keys):
    # (x_i - xbar) * s is zero mod N exactly when x_i == xbar
    pk, sk = keys
    rng = make_rng(19)
    for x_i in range(8):
        for xbar in range(8):
            diff = paillier.hom_sub(pk, paillier.encrypt(pk, x_i, rng),
                                    paillier.encrypt(pk, xbar, rng))
            d = paillier.hom_scale(pk, diff, rng.randrange(1, pk.n))
            assert (paillier.decrypt(sk, d) == 0) == (x_i == xbar)


def test_crt_equals_direct(keys):
    pk, sk = keys
    rng = make_rng(23)
    for _ in range(100):
        c = paillier.encrypt(pk, rng.randrange(pk.n), rng)
        assert paillier.decrypt(sk, c) == paillier.decrypt_direct(sk, c)


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


def test_randomness_pool(keys):
    pk, sk = keys
    pool = paillier.RandomnessPool(pk)
    pool.fill(3, make_rng(37))
    assert len(pool) == 3
    seen = set()
    for _ in range(3):
        c = paillier.encrypt(pk, 8, pool=pool)
        assert c.value not in seen  # each pooled value used once
        seen.add(c.value)
        assert paillier.decrypt(sk, c) == 8
    assert len(pool) == 0
    # fallback keeps working when the pool is empty
    assert paillier.decrypt(sk, paillier.encrypt(pk, 8, make_rng(3), pool)) == 8
    strict = paillier.RandomnessPool(pk, allow_fallback=False)
    with pytest.raises(ConfigurationError):
        paillier.encrypt(pk, 8, pool=strict)


def test_pooled_encryption_is_fast(keys):
    # two modular multiplications per call; generous ceiling
    pk, _ = keys
    pool = paillier.RandomnessPool(pk)
    pool.fill(200, make_rng(41))
    t0 = time.perf_counter()
    for _ in range(200):
        paillier.encrypt(pk, 123, pool=pool)
    assert (time.perf_counter() - t0) / 200 < 0.002


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
