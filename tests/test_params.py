"""ProtocolParams: the handshake digest and typed parameter errors."""

import dataclasses

import pytest

from oope.engine import ProtocolParams
from oope.errors import ConfigurationError


def changed(value):
    """Another value of value's type."""
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, int):
        return value + 1
    raise AssertionError(f"no other value known for {type(value).__name__}")


def test_every_field_enters_the_digest():
    # a field that the digest skipped would let two ends that disagree
    # on it pass the HELLO check
    base = ProtocolParams()
    for f in dataclasses.fields(ProtocolParams):
        other = dataclasses.replace(
            base, **{f.name: changed(getattr(base, f.name))})
        assert other.digest() != base.digest(), f.name


@pytest.mark.parametrize("scheme", ["dlmac", "pedersen ", "Pedersen"])
def test_unknown_integrity_scheme_rejected(scheme):
    with pytest.raises(ConfigurationError, match="integrity scheme"):
        ProtocolParams(integrity=scheme).validate()


@pytest.mark.parametrize("fields, match", [
    ({"l": 70000}, "l must lie in"),
    ({"l": -1}, "l must lie in"),
    ({"l": 0, "k": 0}, "l must lie in"),
    ({"key_bits": 0}, "key_bits must lie in"),
    ({"mac_subgroup_bits": 1 << 16}, "mac_subgroup_bits must lie in"),
    ({"m": 1 << 130}, "m must lie in"),
    ({"m": 2}, "m must lie in"),
    ({"l": 64, "k": 65}, "offset wire width"),
    ({"l": 32, "k": 32, "key_bits": 65}, "key too small"),
])
def test_out_of_range_fields_rejected(fields, match):
    # each of these once passed validate, then made digest() or the
    # first session raise an untyped OverflowError
    with pytest.raises(ConfigurationError, match=match):
        ProtocolParams(**fields).validate()


@pytest.mark.parametrize("fields", [
    {}, {"m": 3}, {"m": (1 << 128) - 1}, {"l": 64, "k": 64, "key_bits": 130},
])
def test_fields_at_their_limits_accepted(fields):
    params = ProtocolParams(**fields)
    params.validate()
    assert len(params.digest()) == 32
