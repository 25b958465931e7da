"""Homomorphic core: roundtrips, homomorphisms, optimizations, wire format."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import decrypt_direct, textbook_encrypt

from oope import paillier
from oope.errors import (DomainError, IntegrityError, KeyMismatchError,
                         ProtocolError)
from oope.rng import make_rng
from oope.wire import be_bytes, fixed_bytes, lp


@pytest.fixture(scope="module")
def keys():
    return paillier.keygen(256, rng=make_rng(7))


@pytest.fixture(scope="module")
def key_sizes(keys):
    return {256: keys, 2048: paillier.keygen(2048, rng=make_rng(61))}


def test_keygen_rejects_nonstandard_sizes():
    for bits in (30, 62, 129):
        with pytest.raises(DomainError):
            paillier.keygen(bits)


def test_keygen_modulus_bit_length():
    pk, _ = paillier.keygen(128, rng=make_rng(1))
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
        assert paillier.decrypt(sk, c) == decrypt_direct(sk, c)


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


@pytest.mark.parametrize("bits", [256, 2048])
def test_short_exponent_agrees_with_full_range_oracle(key_sizes, bits):
    # lam-decryption is the oracle for everything encrypt and hom_add
    # make; a textbook ciphertext, whose r^N lies outside <h^N>, is a
    # valid Paillier ciphertext that decrypt refuses on both paths
    pk, sk = key_sizes[bits]
    rng = make_rng(bits)
    below = 1 << 66  # at most P on both key sizes: the mod-P path
    for m in (0, 1, below - 1, rng.randrange(below), rng.randrange(pk.n)):
        short = paillier.encrypt(pk, m, rng)
        assert paillier.decrypt(sk, short) == decrypt_direct(sk, short) == m
        if m < below:
            assert paillier.decrypt(sk, short, below=below) == m
        m2 = rng.randrange(pk.n)
        total = paillier.hom_add(pk, short, paillier.encrypt(pk, m2, rng))
        assert paillier.decrypt(sk, total) == decrypt_direct(sk, total) \
            == (m + m2) % pk.n
        full = textbook_encrypt(pk, m, rng)
        mixed = paillier.hom_add(pk, short, textbook_encrypt(pk, m2, rng))
        for c, want in ((full, m), (mixed, (m + m2) % pk.n)):
            assert decrypt_direct(sk, c) == want
            for kw in ({}, {"below": below}):
                with pytest.raises(IntegrityError, match="subgroup"):
                    paillier.decrypt(sk, c, **kw)


def test_membership_is_checked_per_crt_half(keys):
    # randomness outside <h^N> mod Q alone: the mod-P path returns m mod
    # P, which lam-decryption gives too, and the full path refuses it
    pk, sk = keys
    rng = make_rng(67)
    c = paillier.encrypt(pk, 1234, rng)
    # w = 1 mod P^2, and mod Q^2 an N-th power outside <h^N>
    r_q = textbook_encrypt(pk, 0, rng).value % sk.q_sq
    w = 1 + sk.p_sq * ((r_q - 1) * pow(sk.p_sq, -1, sk.q_sq) % sk.q_sq)
    bad = paillier.HomCiphertext(c.value * w % pk.n_sq, pk.key_id)
    assert decrypt_direct(sk, bad) == 1234
    assert paillier.decrypt(sk, bad, below=1 << 20) == 1234
    with pytest.raises(IntegrityError, match="subgroup"):
        paillier.decrypt(sk, bad)


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


@pytest.mark.parametrize("bits", [64, 256, 2048])
def test_keygen_builds_a_subgroup_key(key_sizes, bits):
    pk, sk = key_sizes[bits] if bits in key_sizes else \
        paillier.keygen(bits, rng=make_rng(bits))
    p, q, t_p, t_q, h, n = sk.p, sk.q, sk.t_p, sk.t_q, pk.h, pk.n
    t_bits = min(256, bits // 4)
    for t in (t_p, t_q):
        assert t.bit_length() == t_bits and paillier.is_probable_prime(t)
    assert t_p != t_q
    assert (p - 1) % (2 * t_p) == 0 and (q - 1) % (2 * t_q) == 0
    assert n == p * q and n.bit_length() == bits
    # h has order t_p*t_q mod N, and t_p alone factors N
    assert pow(h, t_p * t_q, n) == 1
    assert pow(h, t_p, q) != 1 and pow(h, t_q, p) != 1
    assert math.gcd(pow(h, t_p, n) - 1, n) == p
    assert math.gcd(pow(h, t_q, n) - 1, n) == q
    assert pk.h_n == pow(h, n, pk.n_sq)


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
    pk2, sk2 = paillier.keygen(256, rng=make_rng(31))
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
    parsed, off = paillier.parse_cipher_record(rec, 0, pk.key_id,
                                               pk.key_bits)
    assert parsed == c and off == len(rec)
    # a record one byte wider or narrower is refused, whatever its value
    for blob in (b"\0" + rec[4:], rec[5:]):
        with pytest.raises(ProtocolError, match="cipher record"):
            paillier.parse_cipher_record(lp(blob), 0, pk.key_id, pk.key_bits)


def test_key_serialization_roundtrip(keys):
    pk, sk = keys
    pk2, _ = paillier.parse_public_key(paillier.serialize_public_key(pk))
    assert pk2 == pk and pk2.key_id == pk.key_id and pk2.h == pk.h
    sk2, _ = paillier.parse_private_key(paillier.serialize_private_key(sk))
    assert sk2.public == pk and (sk2.t_p, sk2.t_q) == (sk.t_p, sk.t_q)
    c = paillier.encrypt(pk, 99, make_rng(47))
    assert paillier.decrypt(sk2, c) == 99


def test_key_equality_and_id_cover_h(keys):
    pk, _ = keys
    other = paillier.PaillierPublicKey(pk.n, pk.key_bits, pk.h * pk.h % pk.n)
    assert other != pk and other.key_id != pk.key_id
    assert hash(other) != hash(pk)
    assert len({pk, other, paillier.PaillierPublicKey(
        pk.n, pk.key_bits, pk.h)}) == 2


def key_blob(key_bits, *values):
    """A key encoding: key_bits u16, then each value length-prefixed."""
    return fixed_bytes(key_bits, 2) + b"".join(lp(be_bytes(v)) for v in values)


def test_public_key_with_h_outside_z_n_star_refused(keys):
    pk, sk = keys
    for h in (0, 1, pk.n, pk.n + 1, sk.p, 2 * sk.q):
        with pytest.raises(ProtocolError, match="outside"):
            paillier.parse_public_key(key_blob(pk.key_bits, pk.n, h))


def test_private_key_that_is_no_subgroup_key_refused(keys):
    pk, sk = keys
    p, q, t_p, t_q, h = sk.p, sk.q, sk.t_p, sk.t_q, pk.h
    h_1_mod_p = 1 + p * ((h - 1) * pow(p, -1, q) % q)  # order t_q alone
    for values in ((p, q, t_p + 2, t_q, h), (p, q, t_p, 0, h),
                   (p, q, t_q, t_p, h), (p, p, t_p, t_p, h),
                   (p, q, t_p, t_q, h_1_mod_p), (p, q, t_p, t_q, 2)):
        with pytest.raises(ProtocolError, match="subgroup key"):
            paillier.parse_private_key(key_blob(pk.key_bits, *values))
    # another generator of the same subgroup is a subgroup key
    h2 = h * h % pk.n
    sk2, _ = paillier.parse_private_key(key_blob(pk.key_bits, p, q, t_p, t_q,
                                                 h2))
    assert sk2.public.h == h2


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
    pk2, sk2 = paillier.keygen(256, rng=make_rng(31))
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
    parsed, off = paillier.parse_cipher_record(rec, 0, pk.key_id,
                                               pk.key_bits)
    assert parsed == c and off == len(rec)
    # a record one byte wider or narrower is refused, whatever its value
    for blob in (b"\0" + rec[4:], rec[5:]):
        with pytest.raises(ProtocolError, match="cipher record"):
            paillier.parse_cipher_record(lp(blob), 0, pk.key_id, pk.key_bits)


def test_key_serialization_roundtrip(keys):
    pk, sk = keys
    pk2, _ = paillier.parse_public_key(paillier.serialize_public_key(pk))
    assert pk2 == pk and pk2.key_id == pk.key_id and pk2.h == pk.h
    sk2, _ = paillier.parse_private_key(paillier.serialize_private_key(sk))
    assert sk2.public == pk and (sk2.t_p, sk2.t_q) == (sk.t_p, sk.t_q)
    c = paillier.encrypt(pk, 99, make_rng(47))
    assert paillier.decrypt(sk2, c) == 99


def test_key_equality_and_id_cover_h(keys):
    pk, _ = keys
    other = paillier.PaillierPublicKey(pk.n, pk.key_bits, pk.h * pk.h % pk.n)
    assert other != pk and other.key_id != pk.key_id
    assert hash(other) != hash(pk)
    assert len({pk, other, paillier.PaillierPublicKey(
        pk.n, pk.key_bits, pk.h)}) == 2


def public_key_blob(key_bits, n, h):
    return fixed_bytes(key_bits, 2) + lp(be_bytes(n)) + lp(be_bytes(h))


def test_public_key_with_h_outside_z_n_star_refused(keys):
    pk, sk = keys
    for h in (0, 1, pk.n, pk.n + 1, sk.p, 2 * sk.q):
        with pytest.raises(ProtocolError, match="outside"):
            paillier.parse_public_key(public_key_blob(pk.key_bits, pk.n, h))


def test_private_key_that_is_no_subgroup_key_refused(keys):
    pk, sk = keys
    # h squared keeps its order; any other change breaks a check
    cases = {"h^2": (sk.p, sk.q, sk.t_p, sk.t_q, pk.h * pk.h % pk.n)}
    for name, values in {
            "t_p": (sk.p, sk.q, sk.t_p + 2, sk.t_q, pk.h),
            "t_q=0": (sk.p, sk.q, sk.t_p, 0, pk.h),
            "swapped": (sk.p, sk.q, sk.t_q, sk.t_p, pk.h),
            "p=q": (sk.p, sk.p, sk.t_p, sk.t_p, pk.h),
            "h=1 mod P": (sk.p, sk.q, sk.t_p, sk.t_q,
                          1 + sk.p * (pk.h * pow(sk.p, -1, sk.q) % sk.q)),
            "h of full order": (sk.p, sk.q, sk.t_p, sk.t_q, 2)}.items():
        blob = fixed_bytes(pk.key_bits, 2) + b"".join(
            lp(be_bytes(v)) for v in values)
        with pytest.raises(ProtocolError, match="subgroup key"):
            paillier.parse_private_key(blob)
        cases.pop(name, None)
    (p, q, t_p, t_q, h), = cases.values()
    blob = fixed_bytes(pk.key_bits, 2) + b"".join(
        lp(be_bytes(v)) for v in (p, q, t_p, t_q, h))
    assert paillier.parse_private_key(blob)[0].public.h == h


def test_coprimality_of_ciphertexts(keys):
    pk, _ = keys
    rng = make_rng(53)
    for _ in range(20):
        c = paillier.encrypt(pk, rng.randrange(pk.n), rng)
        assert math.gcd(c.value, pk.n) == 1
