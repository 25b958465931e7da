"""Framing, channels, handshake."""

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
    a, b = loopback()
    a.abort(b"x" * 16, "share inconsistency")
    with pytest.raises(SessionAborted, match="share inconsistency"):
        b.recv(transport.SHARES)


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
        out["res"] = handshake(b, transport.ROLE_DO, digest, b"do-extra")

    t = threading.Thread(target=other)
    t.start()
    role, extra = handshake(a, transport.ROLE_CSP, digest, b"csp-extra")
    t.join()
    assert (role, extra) == (transport.ROLE_DO, b"do-extra")
    assert out["res"] == (transport.ROLE_CSP, b"csp-extra")


def test_handshake_digest_mismatch(loopback):
    a, b = loopback()

    def other():
        try:
            handshake(b, transport.ROLE_DO, b"1" * 32)
        except HandshakeError:
            pass

    t = threading.Thread(target=other)
    t.start()
    with pytest.raises(HandshakeError, match="digest"):
        handshake(a, transport.ROLE_CSP, b"2" * 32)
    t.join()


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
def test_receive_timeout_poisons_except_when_idle(pair):
    a, b = pair()
    # without a timeout, closing the peer ends the wait, so a regression
    # fails here rather than hangs
    watchdog = threading.Timer(5, a.close)
    try:
        b.timeout = 0.2
        watchdog.start()
        t0 = time.monotonic()
        with pytest.raises(FramingError, match="timed out"):
            b.recv(transport.SHARES)
        assert 0.15 < time.monotonic() - t0 < 2
        assert b.poisoned
    finally:
        watchdog.cancel()
        a.close()
        b.close()
    a, b = pair()
    late = threading.Timer(0.6, a.send,
                           [Frame(transport.SHARES, b"x" * 16, b"\x01")])
    try:
        b.timeout = 0.2
        late.start()
        assert b.recv(transport.SHARES, idle=True).payload == b"\x01"
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
