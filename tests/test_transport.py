"""Framing, channels, handshake."""

import threading
import time

import pytest

from oope import transport
from oope.errors import (FramingError, HandshakeError, ProtocolError,
                         SessionAborted)
from oope.rng import make_rng
from oope.transport import Frame, handshake, loopback_pair, tcp_pair


def test_frame_roundtrip():
    f = Frame(transport.SHARES, b"s" * 16, b"\x0b")
    blob = f.encode()
    assert int.from_bytes(blob[:4], "big") == len(blob) - 4
    assert transport.decode_frame(blob[4:]) == f


def test_loopback_roundtrip():
    a, b = loopback_pair()
    payload = bytes(range(40))
    a.send(Frame(transport.GC_PAYLOAD, b"x" * 16, payload))
    got = b.recv(transport.GC_PAYLOAD)
    assert got.payload == payload and got.session_id == b"x" * 16


def test_unexpected_type_names_both_tags():
    a, b = loopback_pair()
    a.send(Frame(transport.SHARES, b"x" * 16))
    with pytest.raises(ProtocolError, match="ORDER_RESULT.*SHARES"):
        b.recv(transport.ORDER_RESULT)


def test_abort_frame_raises():
    a, b = loopback_pair()
    a.abort(b"x" * 16, "share inconsistency")
    with pytest.raises(SessionAborted, match="share inconsistency"):
        b.recv(transport.SHARES)


def test_per_session_fifo_random_interleavings():
    rng = make_rng(3)
    for _ in range(20):
        a, b = loopback_pair()
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


def test_truncated_frame_poisons_channel():
    a, b = loopback_pair()
    b._inbox.put(b"\x00\x00\x00\x40\x10trunc")  # declared 64, short body
    with pytest.raises(FramingError):
        b.recv()
    assert b.poisoned
    with pytest.raises(FramingError):
        b.recv()
    with pytest.raises(FramingError):
        b.send(Frame(transport.SHARES, b"x" * 16))


def test_oversize_frame_rejected():
    a, b = loopback_pair()
    b._inbox.put((transport.MAX_FRAME + 1).to_bytes(4, "big") + b"\x10")
    with pytest.raises(FramingError):
        b.recv()


def test_handshake_agrees():
    a, b = loopback_pair()
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


def test_handshake_digest_mismatch():
    a, b = loopback_pair()

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
