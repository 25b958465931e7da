"""Exception hierarchy shared by all oope modules."""


class OopeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(OopeError):
    """An argument lies outside the operation's declared domain."""


class UsageError(OopeError):
    """The API was called in a way its contract forbids."""


class KeyMismatchError(UsageError):
    """A ciphertext was combined with material from a different key."""


class ConfigurationError(OopeError):
    """Inconsistent or insufficient configuration."""


class CapacityError(OopeError):
    """The order space cannot hold another entry."""


class GapExhausted(OopeError):
    """Adjacent orders differ by one; the caller must rebalance."""


class IntegrityError(OopeError):
    """A consistency or authentication check failed."""


class ProtocolError(OopeError):
    """A peer violated the wire protocol."""


class HandshakeError(ProtocolError):
    """Connection setup failed (version or parameter mismatch)."""


class FramingError(ProtocolError):
    """A frame could not be decoded; the channel is unusable."""


class SessionAborted(OopeError):
    """The session was aborted, locally or by a peer."""

    def __init__(self, reason: str, origin=None, session_id=None):
        super().__init__(reason)
        self.reason = reason
        # a remote abort's: the role that found the fault, and the
        # channel that delivered it; None for an abort raised here
        self.origin = origin
        self.channel = None
        # the aborted session: a remote abort's, to pass it on, and the
        # analyst's, for DaEngine.cleanup
        self.session_id = session_id


class PrimeGenerationError(OopeError):
    """Prime search exceeded its retry budget; the call may be retried."""
