"""Framing, channels, handshake."""

import socket
import threading
import time

import pytest

from oope import transport
from oope.cluster import PAIR_FACTORIES, build_cluster
from oope.engine import ProtocolParams
from oope.errors import (FramingError, HandshakeError, ProtocolError,
                         SessionAborted)
from oope.ot import GROUP_TEST
from oope.rng import make_rng
from oope.transport import Frame, handshake, loopback_pair, tcp_pair


@pytest.fixture
def loopback():
    """loopback_pair, with every pair it made closed after the test."""
    made = []

    def make():
        made.append(loopback_pair())
        return made[-1]

    yield make
    for a, b in made:
        a.close()
        b.close()


def test_frame_roundtrip():
    f = Frame(transport.SHARES, b"s" * 16, b"\x0b")
    blob = f.encode()
    assert int.from_bytes(blob[:4], "big") == len(blob) - 4
    assert transport.decode_frame(blob[4:]) == f


def test_loopback_roundtrip(loopback):
    a, b = loopback()
    payload = bytes(range(40))
    a.send(Frame(transport.GC_PAYLOAD, b"x" * 16, payload))
    got = b.recv(transport.GC_PAYLOAD)
    assert got.payload == payload and got.session_id == b"x" * 16


def test_unexpected_type_names_both_tags(loopback):
    a, b = loopback()
    a.send(Frame(transport.SHARES, b"x" * 16))
    with pytest.raises(ProtocolError, match="ORDER_RESULT.*SHARES"):
        b.recv(transport.ORDER_RESULT)


def test_abort_frame_raises(loopback):
    # an ABORT names the role that found the fault ahead of its reason
    a, b = loopback()
    a.abort(b"x" * 16, "share inconsistency", transport.ROLE_DO)
    with pytest.raises(SessionAborted, match="^share inconsistency$") as e:
        b.recv(transport.SHARES)
    assert e.value.origin == transport.ROLE_DO
    assert e.value.channel is b and e.value.session_id == b"x" * 16


def test_per_session_fifo_random_interleavings(loopback):
    rng = make_rng(3)
    for _ in range(20):
        a, b = loopback()
        sids = [b"A" * 16, b"B" * 16]
        sent = {s: [] for s in sids}
        for i in range(30):
            s = sids[rng.getrandbits(1)]
            a.send(Frame(transport.OT_MSG, s, bytes([i])))
            sent[s].append(bytes([i]))
        got = {s: [] for s in sids}
        for _ in range(30):
            f = b.recv()
            got[f.session_id].append(f.payload)
        assert got == sent


@pytest.mark.parametrize("pair", [loopback_pair, tcp_pair])
def test_truncated_frame_poisons_channel(pair):
    a, b = pair()
    try:
        a._sock.sendall(b"\x00\x00\x00\x40\x10trunc")  # declared 64
        a.close()  # the stream ends before the rest of the body
        with pytest.raises(FramingError, match="closed"):
            b.recv()
        assert b.poisoned
        with pytest.raises(FramingError):
            b.recv()
        with pytest.raises(FramingError):
            b.send(Frame(transport.SHARES, b"x" * 16))
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("pair", [loopback_pair, tcp_pair])
def test_oversize_frame_rejected(pair):
    a, b = pair()
    try:
        a._sock.sendall((transport.MAX_FRAME + 1).to_bytes(4, "big") + b"\x10")
        with pytest.raises(FramingError, match="oversize"):
            b.recv()
        assert b.poisoned
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("pair", [loopback_pair, tcp_pair])
def test_close_ends_a_receive_waiting_on_that_end(pair):
    a, b = pair()
    errors = []

    def wait():
        try:
            b.recv(idle=True)
        except FramingError as e:
            errors.append(e)

    t = threading.Thread(target=wait)
    t.start()
    try:
        time.sleep(0.1)
        b.close()
        t.join(timeout=5)
        assert not t.is_alive() and len(errors) == 1
    finally:
        a.close()
        t.join(timeout=5)


@pytest.mark.parametrize("kind", sorted(PAIR_FACTORIES))
def test_cluster_close_ends_both_serve_threads(kind):
    params = ProtocolParams(l=16, k=16, m=(1 << 20) - 3, key_bits=256)
    cluster, _ = build_cluster([100, 200, 300], params, seed=4,
                               ot_group=GROUP_TEST, transport_kind=kind)
    cluster.encrypt(150)
    cluster.close()
    assert not any(t.is_alive() for t in cluster._threads)
    assert cluster.errors == []


def test_handshake_agrees(loopback):
    a, b = loopback()
    digest = b"d" * 32
    out = {}

    def other():
        out["res"] = handshake(b, transport.ROLE_DO, transport.ROLE_CSP,
                               digest, b"do-extra")

    t = threading.Thread(target=other)
    t.start()
    extra = handshake(a, transport.ROLE_CSP, transport.ROLE_DO, digest,
                      b"csp-extra", parse=bytes.upper)
    t.join()
    assert extra == b"DO-EXTRA"
    assert out["res"] == b"csp-extra"


def test_handshake_digest_mismatch(loopback):
    a, b = loopback()

    def other():
        try:
            handshake(b, transport.ROLE_DO, transport.ROLE_CSP, b"1" * 32)
        except HandshakeError:
            pass

    t = threading.Thread(target=other)
    t.start()
    with pytest.raises(HandshakeError, match="digest"):
        handshake(a, transport.ROLE_CSP, transport.ROLE_DO, b"2" * 32)
    t.join()


def hello(role, extra, digest=b"d" * 32) -> Frame:
    """A HELLO as handshake lays it out: role u8 | version u16 | digest |
    lp(extra)."""
    return Frame(transport.HELLO, transport.NULL_SESSION,
                 bytes([role]) + transport.PROTOCOL_VERSION.to_bytes(2, "big")
                 + digest + len(extra).to_bytes(4, "big") + extra)


def test_handshake_refuses_a_byte_after_the_extra(loopback):
    a, b = loopback()
    whole = hello(transport.ROLE_DO, b"key")
    b.send(whole)
    assert handshake(a, transport.ROLE_CSP, transport.ROLE_DO,
                     b"d" * 32) == b"key"
    b.send(Frame(whole.ftype, whole.session_id, whole.payload + b"JUNK"))
    with pytest.raises(HandshakeError, match="length it names"):
        handshake(a, transport.ROLE_CSP, transport.ROLE_DO, b"d" * 32)


@pytest.mark.parametrize("cut", [0, 1, 3, 35, 38])
def test_handshake_refuses_a_hello_cut_inside_its_header(loopback, cut):
    # the fixed header is role, version, digest and the extra's length,
    # 39 bytes; a HELLO that ends inside it is the peer's fault, not a
    # broken stream, so the channel stays usable
    a, b = loopback()
    whole = hello(transport.ROLE_DO, b"")
    b.send(Frame(whole.ftype, whole.session_id, whole.payload[:cut]))
    with pytest.raises(HandshakeError, match="fixed header"):
        handshake(a, transport.ROLE_CSP, transport.ROLE_DO, b"d" * 32)
    assert not a.poisoned


def test_tcp_matches_loopback_bytes():
    sid = b"y" * 16
    order = Frame(transport.ORDER_RESULT, sid, b"\x00" * 16)
    upload = Frame(transport.CIPHER_UPLOAD, sid, b"up")
    transcripts = []
    for pair in (loopback_pair, tcp_pair):
        a, b = pair("a", "b")
        try:
            a.record = b.record = True
            a.send(order)
            assert b.recv(transport.ORDER_RESULT) == order
            b.send(upload)
            assert a.recv(transport.CIPHER_UPLOAD) == upload
        finally:
            a.close()
            b.close()
        assert (a.name, b.name) == ("a", "b")
        transcripts.append((a.transcript, b.transcript))
    assert transcripts[0] == transcripts[1] == \
        ([order.encode()], [upload.encode()])


@pytest.mark.parametrize("pair", [loopback_pair, tcp_pair])
def test_receive_timeout_poisons_only_mid_frame(pair):
    frame = Frame(transport.SHARES, b"x" * 16, b"\x01")
    a, b = pair()
    # without a timeout, closing the peer ends the wait, so a regression
    # fails here rather than hangs
    watchdog = threading.Timer(5, a.close)
    try:
        b.timeout = 0.2
        watchdog.start()
        # no byte of a frame arrived: nothing is lost
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match="timed out") as err:
            b.recv(transport.SHARES)
        assert 0.15 < time.monotonic() - t0 < 2
        assert type(err.value) is ProtocolError and not b.poisoned
        a.send(frame)
        assert b.recv(transport.SHARES) == frame
    finally:
        watchdog.cancel()
        a.close()
        b.close()
    # part of the length field, or all of it and none of the body
    for cut in (2, 4):
        a, b = pair()
        watchdog = threading.Timer(5, a.close)
        try:
            b.timeout = 0.2
            watchdog.start()
            a._sock.sendall(frame.encode()[:cut])
            with pytest.raises(FramingError, match="timed out"):
                b.recv(transport.SHARES)
            assert b.poisoned
        finally:
            watchdog.cancel()
            a.close()
            b.close()
    a, b = pair()
    late = threading.Timer(0.6, a.send, [frame])
    try:
        b.timeout = 0.2
        late.start()
        assert b.recv(transport.SHARES, idle=True) == frame
        assert not b.poisoned
    finally:
        late.cancel()
        a.close()
        b.close()


@pytest.mark.parametrize("pair", [loopback_pair, tcp_pair])
def test_send_timeout_follows_the_instance_timeout(pair):
    a, b = pair()
    # b never reads; without a send timeout, closing b ends the wait, so
    # a regression fails here rather than hangs
    watchdog = threading.Timer(5, b.close)
    try:
        a.timeout = 0.2
        watchdog.start()
        t0 = time.monotonic()
        with pytest.raises(FramingError, match="send failed"):
            for _ in range(64):
                a.send(Frame(transport.GC_PAYLOAD, b"x" * 16,
                             bytes(1 << 20)))
        assert time.monotonic() - t0 < 1.5
        assert a.poisoned
    finally:
        watchdog.cancel()
        a.close()
        b.close()


class CountingSocket:
    """A socket that records each SO_RCVTIMEO value set on it."""

    def __init__(self, sock):
        self._sock = sock
        self.rcvtimeo = []

    def setsockopt(self, level, option, value):
        if option == socket.SO_RCVTIMEO:
            self.rcvtimeo.append(value)
        return self._sock.setsockopt(level, option, value)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.mark.parametrize("pair", [loopback_pair, tcp_pair])
def test_receive_timeout_is_set_only_when_it_changes(pair):
    a, b = pair()
    counted = b._sock = CountingSocket(b._sock)
    try:
        def exchange(count, **kw):
            for i in range(count):
                a.send(Frame(transport.SHARES, b"x" * 16, bytes([i])))
                assert b.recv(transport.SHARES, **kw).payload == bytes([i])

        exchange(5)
        assert len(counted.rcvtimeo) == 1
        exchange(3, idle=True)
        exchange(2)
        assert counted.rcvtimeo == [transport._timeval(120),
                                    transport._timeval(None),
                                    transport._timeval(120)]
        b.timeout = 0.5
        exchange(4)
        assert counted.rcvtimeo[3:] == [transport._timeval(0.5)]
        assert counted.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                                  len(counted.rcvtimeo[-1])) == \
            transport._timeval(0.5)
    finally:
        a.close()
        b.close()
