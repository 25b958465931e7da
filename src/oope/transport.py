"""Framed channels connecting the three roles.

Frame layout: 4-byte big-endian length | 1-byte type | 16-byte session
id | payload, where the length covers everything after itself.  Frames
are capped at 64 MiB.  A Channel is one end of a connected stream
socket: a Unix socket pair in one process (loopback_pair) or a
localhost TCP connection (tcp_pair).  Both carry the same bytes, so with
seeded RNGs the two transports produce byte-identical transcripts.

One timeout rule holds, the socket's own, so a peer that stalls
mid-session fails the waiting side.  A receive that waits longer than
Channel.timeout for a frame of which no byte has arrived loses nothing
and leaves the channel usable (recv).  A timeout mid-frame, a send that
waits that long for room, and a closed or failed socket raise
FramingError and poison the channel.  A serve loop's wait for its next
request (recv with idle=True) has no limit, because an idle peer is not
a fault.  Closing a channel closes its socket: the peer's next receive
sees the stream end, which also ends its serve loop.

A channel connects exactly two roles; the topology is the triangle
CSP-DO, CSP-DA, DO-DA.  Garbled-circuit and OT traffic flows on the
DO-DA edge directly.  Set-up is one HELLO each way per channel, which
handshake alone judges.
"""

import socket
import struct
from dataclasses import dataclass

from .errors import FramingError, HandshakeError, ProtocolError, SessionAborted
from .wire import u32

MAX_FRAME = 64 * 1024 * 1024
SESSION_BYTES = 16
NULL_SESSION = bytes(SESSION_BYTES)
# raised whenever a frame's layout or meaning changes, so that peers of
# two layouts fail at HELLO instead of misreading each other; it is part
# of the parameter digest too (engine.ProtocolParams.digest)
PROTOCOL_VERSION = 18

ROLE_CSP, ROLE_DO, ROLE_DA = 0, 1, 2

# frame types
HELLO = 0x01
SESSION_START = 0x02
SESSION_DONE = 0x03
ABORT = 0x0F
RANDOMIZED_NODE = 0x10
RANDOM_OFFSET = 0x11
GC_PAYLOAD = 0x12
OT_MSG = 0x13
GC_RESULT = 0x14
SHARES = 0x15
ORDER_RESULT = 0x16
CIPHER_UPLOAD = 0x17
MINMAX_TRIPLE = 0x20
MINMAX_RANDOMS = 0x21
MINMAX_SELECTED = 0x22
INTEGRITY_TAG = 0x30
INTEGRITY_PROOF = 0x31
REBALANCE = 0x32
UID_COMPARE = 0x33
QUERY_EXEC = 0x40
QUERY_RESULT = 0x41
CLEANUP = 0x42
CLEANUP_DONE = 0x43
# types no code sends any more, whose numbers stay reserved because the
# benchmark still enumerates them until its next revision: ORDER_RESULT
# ends every session and an encrypt's upload rides on its last SHARES;
# the server decodes the output labels itself; bounds are found by
# search; a rebalance stays on the server; every comparison goes
# through the owner; and the Pedersen opening rides in GC_PAYLOAD
# (engine)
RESERVED = (SESSION_DONE, CIPHER_UPLOAD, GC_RESULT, MINMAX_TRIPLE,
            MINMAX_RANDOMS, MINMAX_SELECTED, REBALANCE, UID_COMPARE,
            INTEGRITY_PROOF)

_TYPE_NAMES = {v: k for k, v in list(globals().items())
               if isinstance(v, int) and k.isupper() and k not in
               ("MAX_FRAME", "SESSION_BYTES", "PROTOCOL_VERSION",
                "ROLE_CSP", "ROLE_DO", "ROLE_DA")}


def type_name(t: int) -> str:
    return _TYPE_NAMES.get(t, f"0x{t:02x}")


def _wanted(types) -> str:
    return "/".join(type_name(t) for t in types) or "a frame"


@dataclass(frozen=True)
class Frame:
    ftype: int
    session_id: bytes
    payload: bytes = b""

    def encode(self) -> bytes:
        body = bytes([self.ftype]) + self.session_id + self.payload
        if len(body) > MAX_FRAME:
            raise FramingError(f"frame of {len(body)} bytes exceeds cap")
        return u32(len(body)) + body


def decode_frame(body: bytes) -> Frame:
    if len(body) < 1 + SESSION_BYTES:
        raise FramingError("frame shorter than its fixed header")
    return Frame(body[0], body[1:1 + SESSION_BYTES],
                 body[1 + SESSION_BYTES:])


def _timeval(seconds) -> bytes:
    """A struct timeval for SO_RCVTIMEO/SO_SNDTIMEO; None (no limit) is 0."""
    seconds = seconds or 0
    return struct.pack("ll", int(seconds), int(seconds % 1 * 1e6))


class Channel:
    """One end of an ordered reliable frame stream between two roles,
    over a connected stream socket.

    The socket blocks, and the kernel applies timeout, 120 s unless
    assigned, to each read and write (SO_RCVTIMEO, SO_SNDTIMEO), so a
    send to a peer that stopped reading fails too.  A Python socket
    timeout would poll before every call, and each extra call gives up
    the interpreter lock, which the other roles' threads may then hold
    for a whole switch interval.  For the same reason one read takes
    whatever has arrived, and frames are cut from that buffer.
    """

    def __init__(self, sock: socket.socket, name: str = ""):
        self.name = name
        self.poisoned = False
        self.record = False
        self.transcript = []  # encoded frames this end sent
        self._sock = sock
        self._buf = bytearray()  # bytes read but not yet returned
        self._rcvtimeo = None  # the SO_RCVTIMEO timeval last set
        if sock.family == socket.AF_INET:  # AF_UNIX refuses TCP_NODELAY
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(True)
        self.timeout = 120

    @property
    def timeout(self):
        return self._timeout

    @timeout.setter
    def timeout(self, seconds):
        self._timeout = seconds
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO,
                              _timeval(seconds))

    def send(self, frame: Frame):
        if self.poisoned:
            raise FramingError("channel is poisoned")
        blob = frame.encode()
        if self.record:
            self.transcript.append(blob)
        try:
            self._sock.sendall(blob)
        except OSError as e:
            self.poisoned = True
            raise FramingError(f"send failed: {e}") from e

    def recv(self, *expected: int, session: bytes = None,
             idle: bool = False) -> Frame:
        """Read the next frame, optionally checking its type.

        When a session id is given, frames left over from other (dead)
        sessions are dropped, so an aborted session cannot poison the
        next one.  Sessions on one channel never interleave, so a frame
        from a different session is always stale.

        A frame that does not start arriving within self.timeout is a
        ProtocolError naming this channel and the expected types, and
        the late frame is stale to a receive that names the next
        session; one that stops arriving midway is a FramingError that
        poisons the channel.  idle lifts the first limit; it marks a
        serve loop's wait for its next request.
        """
        wait = None if idle else self.timeout
        while True:
            if self.poisoned:
                raise FramingError("channel is poisoned")
            try:
                n = int.from_bytes(self._read_exact(4, wait, expected), "big")
                if n > MAX_FRAME:
                    raise FramingError("oversize frame")
                body = self._read_exact(n, self.timeout)
            except FramingError:
                self.poisoned = True
                raise
            frame = decode_frame(body)
            if session is not None and frame.session_id != session:
                continue
            if frame.ftype == ABORT and ABORT not in expected:
                # ABORT: the role that found the fault u8 | reason,
                # UTF-8; an empty one names no role (-1)
                err = SessionAborted(
                    frame.payload[1:].decode("utf-8", "replace"),
                    origin=frame.payload[0] if frame.payload else -1,
                    session_id=frame.session_id)
                err.channel = self
                raise err
            if expected and frame.ftype not in expected:
                raise ProtocolError(f"expected {_wanted(expected)}, "
                                    f"received {type_name(frame.ftype)}")
            return frame

    def _read_exact(self, n, timeout, start=None):
        """The stream's next n bytes, each socket read waiting at most
        timeout (None: no limit); a socket error, a timeout or the
        stream's end is a FramingError, but a timeout at a frame's start
        (start: the frame types recv expects) with no byte of it read is
        a ProtocolError."""
        buf = self._buf
        try:
            if len(buf) < n:
                # set only when it changes: between idle and timed
                # waits, or after timeout is assigned
                tv = _timeval(timeout)
                if tv != self._rcvtimeo:
                    self._sock.setsockopt(socket.SOL_SOCKET,
                                          socket.SO_RCVTIMEO, tv)
                    self._rcvtimeo = tv
            while len(buf) < n:
                chunk = self._sock.recv(1 << 16)
                if not chunk:
                    raise FramingError("channel closed")
                buf += chunk
        except BlockingIOError:  # SO_RCVTIMEO expired
            if start is not None and not buf:
                raise ProtocolError(f"{self.name}: timed out waiting for "
                                    f"{_wanted(start)}") from None
            raise FramingError(f"{self.name}: timed out mid-frame") from None
        except OSError as e:
            raise FramingError(f"recv failed: {e}") from e
        out = bytes(buf[:n])
        del buf[:n]
        return out

    def abort(self, session_id: bytes, reason: str, origin: int):
        """Send ABORT for session_id, found by the role origin."""
        try:
            self.send(Frame(ABORT, session_id,
                            bytes([origin]) + reason.encode()))
        except FramingError:
            pass

    def close(self):
        """Shut the socket down and close it: the peer sees the stream
        end, and a receive blocked on this end returns."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # closed already, or the peer is gone
        self._sock.close()


def loopback_pair(name_a="a", name_b="b"):
    """Two ends of one connected Unix socket pair."""
    sock_a, sock_b = socket.socketpair()
    return Channel(sock_a, name_a), Channel(sock_b, name_b)


def tcp_pair(name_a="a", name_b="b"):
    """Two ends of one connected localhost socket pair, made on the
    calling thread: listen on a free port, connect, accept, close the
    listener.  The first end is the one that dialed."""
    with socket.create_server(("127.0.0.1", 0)) as srv:
        dialer = socket.create_connection(srv.getsockname())
        accepted, _ = srv.accept()
    return Channel(dialer, name_a), Channel(accepted, name_b)


# --- handshake --------------------------------------------------------------
# HELLO payload: role u8 | version u16 | params digest 32B | extra (lp blob)
_HELLO = struct.Struct(">BH32sI")


def handshake(channel: Channel, role: int, peer_role: int,
              params_digest: bytes, extra: bytes = b"", parse=bytes):
    """Send this end's HELLO, then judge the peer's and return
    parse(its extra).  The peer must speak PROTOCOL_VERSION, hold
    params_digest (else the ends disagree about a ProtocolParams field),
    be peer_role and send an extra of exactly the length it names.  Each
    fault, and a ProtocolError from parse, is a HandshakeError, which
    leaves the channel usable."""
    channel.send(Frame(HELLO, NULL_SESSION, _HELLO.pack(
        role, PROTOCOL_VERSION, params_digest, len(extra)) + extra))
    hello = channel.recv(HELLO).payload
    if len(hello) < _HELLO.size:
        raise HandshakeError("HELLO shorter than its fixed header")
    peer, version, digest, n = _HELLO.unpack_from(hello)
    if version != PROTOCOL_VERSION:
        raise HandshakeError(f"peer speaks version {version}, "
                             f"expected {PROTOCOL_VERSION}")
    if digest != params_digest:
        raise HandshakeError("parameter digest mismatch")
    if peer != peer_role:
        raise HandshakeError(f"expected role {peer_role}, got {peer}")
    if n != len(hello) - _HELLO.size:
        raise HandshakeError("HELLO extra is not the length it names")
    try:
        return parse(hello[_HELLO.size:])
    except ProtocolError as e:
        raise HandshakeError(str(e)) from e
