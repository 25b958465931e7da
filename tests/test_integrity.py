"""Node commitments: completeness, tamper detection, hiding."""

import hashlib

import pytest

from oope import integrity
from oope.errors import ProtocolError
from oope.rng import make_rng
from oope.wire import be_bytes, lp

# small test group; production defaults are 2048/256
PARAMS = integrity.gen_mac_params(512, 160, rng=make_rng(42))


def test_group_shape():
    p, q, g = PARAMS.p, PARAMS.q, PARAMS.g
    assert p.bit_length() == 512 and q.bit_length() == 160
    assert (p - 1) % q == 0
    assert pow(g, q, p) == 1 and g != 1
    assert pow(PARAMS.h_ped, q, p) == 1 and PARAMS.h_ped != 1
    assert PARAMS.h_ped != g


def test_pedersen_zero_offsets():
    c = integrity.ped_commit_make(77, 12345, PARAMS)
    assert integrity.ped_verify(c, 0, 0, c, PARAMS)


def test_pedersen_honest_rounds():
    rng = make_rng(3)
    for _ in range(50):
        x = rng.randrange(1 << 32)
        a = rng.randrange(PARAMS.q)
        r = rng.randrange(1 << 64)
        rp = rng.randrange(1 << 64)
        c = integrity.ped_commit_make(x, a, PARAMS)
        m = integrity.ped_open(x + r, a + rp, PARAMS)
        assert integrity.ped_verify(c, r, rp, m, PARAMS)


def test_pedersen_detects_tampering():
    rng = make_rng(4)
    for _ in range(50):
        x = rng.randrange(1 << 32)
        a = rng.randrange(PARAMS.q)
        r = rng.randrange(1 << 64)
        rp = rng.randrange(1 << 64)
        c = integrity.ped_commit_make(x, a, PARAMS)
        bad_x = integrity.ped_open(x + 1 + r, a + rp, PARAMS)
        assert not integrity.ped_verify(c, r, rp, bad_x, PARAMS)
        bad_a = integrity.ped_open(x + r, a + 1 + rp, PARAMS)
        assert not integrity.ped_verify(c, r, rp, bad_a, PARAMS)


def test_pedersen_hiding():
    # same x, random a: commitments pairwise distinct
    rng = make_rng(5)
    seen = {integrity.ped_commit_make(42, rng.randrange(PARAMS.q), PARAMS)
            for _ in range(100)}
    assert len(seen) == 100


def test_params_serialization():
    blob = integrity.serialize_params(PARAMS)
    # lp(p) | lp(q) | lp(g) | lp(h_ped), the bytes HELLO has always carried
    assert blob == b"".join(lp(be_bytes(v)) for v in
                            (PARAMS.p, PARAMS.q, PARAMS.g, PARAMS.h_ped))
    assert hashlib.sha256(blob).hexdigest() == \
        "82f0e7ac36c674fbd612a1232f9f1f595832e8555e8137ec4ed3e19a8aa1f4cc"
    assert integrity.parse_params(blob) == PARAMS
    # the blob is the whole HELLO extra: a byte after h_ped is refused
    with pytest.raises(ProtocolError, match="trailing bytes"):
        integrity.parse_params(blob + b"\0")


@pytest.mark.parametrize("field", ["p", "q", "g", "h_ped"])
def test_params_with_an_empty_field_rejected(field):
    blob = b"".join(
        lp(b"" if name == field else be_bytes(getattr(PARAMS, name)))
        for name in ("p", "q", "g", "h_ped"))
    with pytest.raises(ProtocolError, match="empty field"):
        integrity.parse_params(blob)
