"""Framed channels connecting the three roles.

Frame layout: 4-byte big-endian length | 1-byte type | 16-byte session
id | payload, where the length covers everything after itself.  Frames
are capped at 64 MiB.  The same Frame/Channel surface runs over
in-memory queues (loopback_pair) and connected localhost sockets
(tcp_pair), and with seeded RNGs both transports produce byte-identical
transcripts.

One receive-timeout rule holds on both transports: a receive that waits
longer than Channel.timeout for its frame raises FramingError and
poisons the channel, so a peer that stalls mid-session fails the
waiting side.  The one exception is a serve loop's wait for its next
request (recv with idle=True), which has no limit, because an idle
peer is not a fault.

A channel connects exactly two roles; the topology is the triangle
CSP-DO, CSP-DA, DO-DA.  Garbled-circuit and OT traffic flows on the
DO-DA edge directly.
"""

import queue
import socket
from dataclasses import dataclass

from .errors import FramingError, HandshakeError, ProtocolError, SessionAborted
from .wire import read_bytes, read_int, u16, u32

MAX_FRAME = 64 * 1024 * 1024
SESSION_BYTES = 16
NULL_SESSION = bytes(SESSION_BYTES)
# 2: half-gates GC_PAYLOAD, acknowledged REBALANCE; 3: no uid upload, so
# CIPHER_UPLOAD lost its kind byte and ProtocolParams its uid field;
# 4: no REBALANCE, so a version-3 server fails at HELLO instead of
# waiting for an acknowledgement no owner sends; 5: the public key
# carries the subgroup generator h, so a key travels as key_bits | N | h;
# 6: garbled gates and IKNP rows hash with fixed-key AES, not SHA-256;
# 7: the server sends the owner no SESSION_DONE
PROTOCOL_VERSION = 7

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
# no code sends the MINMAX_* types any more (range bounds are found by
# search, engine.DaEngine.bound); their numbers stay reserved, and the
# benchmark still enumerates them until its next revision
MINMAX_TRIPLE = 0x20
MINMAX_RANDOMS = 0x21
MINMAX_SELECTED = 0x22
INTEGRITY_TAG = 0x30
INTEGRITY_PROOF = 0x31
# no code sends REBALANCE any more: a rebalance stays on the server, and
# the remap it sent showed the owner every order in the table.  The
# number stays reserved, and the benchmark still enumerates it until its
# next revision.
REBALANCE = 0x32
# no code sends UID_COMPARE any more: the analyst-resolved comparison
# against a node it uploaded as a bare uid skipped the owner, who could
# then count the rounds it missed.  The number stays reserved, and the
# benchmark still counts it as a round until its next revision.
UID_COMPARE = 0x33
QUERY_EXEC = 0x40
QUERY_RESULT = 0x41
CLEANUP = 0x42
CLEANUP_DONE = 0x43

_TYPE_NAMES = {v: k for k, v in list(globals().items())
               if isinstance(v, int) and k.isupper() and k not in
               ("MAX_FRAME", "SESSION_BYTES", "PROTOCOL_VERSION",
                "ROLE_CSP", "ROLE_DO", "ROLE_DA")}


def type_name(t: int) -> str:
    return _TYPE_NAMES.get(t, f"0x{t:02x}")


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


class Channel:
    """Ordered reliable frame stream between two roles."""

    timeout = 120  # seconds a receive waits; instances may override it

    def __init__(self, name: str = ""):
        self.name = name
        self.poisoned = False
        self.record = False
        self.transcript = []  # encoded frames this end sent

    def send(self, frame: Frame):
        if self.poisoned:
            raise FramingError("channel is poisoned")
        blob = frame.encode()
        if self.record:
            self.transcript.append(blob)
        self._send_bytes(blob)

    def recv(self, *expected: int, session: bytes = None,
             idle: bool = False) -> Frame:
        """Read the next frame, optionally checking its type.

        When a session id is given, frames left over from other (dead)
        sessions are dropped, so an aborted session cannot poison the
        next one.  Sessions on one channel never interleave, so a frame
        from a different session is always stale.

        A frame that does not start arriving within self.timeout is a
        FramingError that poisons the channel.  idle lifts that limit;
        it marks a serve loop's wait for its next request.
        """
        wait = None if idle else self.timeout
        while True:
            if self.poisoned:
                raise FramingError("channel is poisoned")
            try:
                body = self._recv_body(wait)
            except FramingError:
                self.poisoned = True
                raise
            frame = decode_frame(body)
            if session is not None and frame.session_id != session:
                continue
            if frame.ftype == ABORT and ABORT not in expected:
                err = SessionAborted(
                    frame.payload.decode("utf-8", "replace"), remote=True)
                err.channel = self
                raise err
            if expected and frame.ftype not in expected:
                want = "/".join(type_name(t) for t in expected)
                raise ProtocolError(
                    f"expected {want}, received {type_name(frame.ftype)}")
            return frame

    def abort(self, session_id: bytes, reason: str):
        try:
            self.send(Frame(ABORT, session_id, reason.encode()))
        except (FramingError, OSError):
            pass

    def close(self):
        pass

    def _send_bytes(self, blob: bytes):
        raise NotImplementedError

    def _recv_body(self, timeout) -> bytes:
        """The next frame's body; timeout (None: no limit) bounds the wait
        for its first byte."""
        raise NotImplementedError


class LoopbackChannel(Channel):
    """One end of an in-memory duplex queue pair."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue, name=""):
        super().__init__(name)
        self._inbox = inbox
        self._outbox = outbox

    def _send_bytes(self, blob):
        self._outbox.put(blob)

    def _recv_body(self, timeout):
        try:
            blob = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise FramingError("channel receive timed out") from None
        if blob is None:
            raise FramingError("channel closed")
        n = int.from_bytes(blob[:4], "big")
        if n > MAX_FRAME:
            raise FramingError("oversize frame")
        if len(blob) != 4 + n:
            raise FramingError("truncated frame")
        return blob[4:]

    def close(self):
        self._outbox.put(None)


def loopback_pair(name_a="a", name_b="b"):
    """Two ends of one in-memory duplex channel."""
    qa, qb = queue.Queue(), queue.Queue()
    return (LoopbackChannel(qa, qb, name_a), LoopbackChannel(qb, qa, name_b))


class TcpChannel(Channel):
    """One end of a connected TCP socket.  The socket carries the
    channel's timeout, which also bounds a send to a peer that stopped
    reading."""

    def __init__(self, sock: socket.socket, name=""):
        super().__init__(name)
        self._sock = sock
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.timeout)

    def _send_bytes(self, blob):
        try:
            self._sock.sendall(blob)
        except OSError as e:
            self.poisoned = True
            raise FramingError(f"send failed: {e}") from e

    def _read_exact(self, n):
        chunks = []
        while n:
            try:
                chunk = self._sock.recv(min(n, 1 << 20))
            except OSError as e:
                raise FramingError(f"recv failed: {e}") from e
            if not chunk:
                raise FramingError("connection closed mid-frame")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def _recv_body(self, timeout):
        self._sock.settimeout(timeout)
        n = int.from_bytes(self._read_exact(4), "big")
        # once a frame has begun, the rest of it is never idle
        self._sock.settimeout(self.timeout)
        if n > MAX_FRAME:
            raise FramingError("oversize frame")
        return self._read_exact(n)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def tcp_pair(name_a="a", name_b="b"):
    """Two ends of one connected localhost socket pair, made on the
    calling thread: listen on a free port, connect, accept, close the
    listener.  The first end is the one that dialed."""
    with socket.create_server(("127.0.0.1", 0)) as srv:
        dialer = socket.create_connection(srv.getsockname())
        accepted, _ = srv.accept()
    return TcpChannel(dialer, name_a), TcpChannel(accepted, name_b)


# --- handshake --------------------------------------------------------------
# HELLO payload: role u8 | version u16 | params digest 32B | extra (lp blob).
# Both ends send first, then verify the peer; a digest mismatch means the
# two ends disagree about a ProtocolParams field and must not talk.

def handshake(channel: Channel, role: int, params_digest: bytes,
              extra: bytes = b"") -> tuple:
    channel.send(Frame(HELLO, NULL_SESSION,
                       bytes([role]) + u16(PROTOCOL_VERSION) +
                       params_digest + u32(len(extra)) + extra))
    frame = channel.recv(HELLO)
    payload = frame.payload
    peer_role, off = read_int(payload, 0, 1)
    version, off = read_int(payload, off, 2)
    if version != PROTOCOL_VERSION:
        raise HandshakeError(f"peer speaks version {version}, "
                             f"expected {PROTOCOL_VERSION}")
    digest, off = read_bytes(payload, off, 32)
    if digest != params_digest:
        raise HandshakeError("parameter digest mismatch")
    n, off = read_int(payload, off, 4)
    peer_extra, off = read_bytes(payload, off, n)
    return peer_role, peer_extra
