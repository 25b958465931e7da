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
