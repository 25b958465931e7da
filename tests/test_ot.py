"""Oblivious transfer: base OT, IKNP extension, derandomized transfers."""

import queue
import threading

import pytest

from oope import ot
from oope.errors import ProtocolError
from oope.rng import make_rng

WAIT = 30  # seconds; a side that waits this long has lost its peer


def pipe_pair():
    a, b = queue.Queue(), queue.Queue()

    def reader(q):
        return lambda: q.get(timeout=WAIT)

    return (b.put, reader(a)), (a.put, reader(b))


def run_both(main_side, thread_side):
    """Run thread_side on a worker thread and main_side here; returns the
    worker's result and re-raises the worker's exception."""
    out = {}

    def worker():
        try:
            out["result"] = thread_side()
        except BaseException as e:  # handed to the test thread below
            out["error"] = e

    t = threading.Thread(target=worker, daemon=True)
    t.start()
    try:
        main_side()
    finally:
        # the worker's pending get gives up within WAIT once we stop
        t.join(timeout=2 * WAIT)
    assert not t.is_alive(), "OT worker thread did not finish"
    if "error" in out:
        raise out["error"]
    return out["result"]


def ot_exchange(sender_label_pairs, receiver_choice_bits, rng,
                group=ot.GROUP_TEST):
    """Run both OT ends in-process over queue pipes: base OT, extension
    and derandomization; returns the labels the receiver obtained."""
    (s_send, s_recv), (r_send, r_recv) = pipe_pair()
    sender = ot.OtExtSender(s_send, s_recv, make_rng(rng.getrandbits(64)),
                            group)
    receiver = ot.OtExtReceiver(r_send, r_recv, make_rng(rng.getrandbits(64)),
                                group)

    def send_side():
        sender.setup()
        try:
            sender.send_pairs(list(sender_label_pairs))
        except ProtocolError:
            # a rejected choice vector ends the receiver's wait, as the
            # ABORT frame does in a session
            s_send(b"")
            raise

    def receive_side():
        receiver.setup()
        return receiver.receive_pairs(list(receiver_choice_bits))

    return run_both(send_side, receive_side)


def run_base_ot(messages, bits, group):
    (s_send, s_recv), (r_send, r_recv) = pipe_pair()
    return run_both(
        lambda: ot.base_ot_send(s_send, s_recv, messages, group, make_rng(1)),
        lambda: ot.base_ot_recv(r_send, r_recv, bits, group, make_rng(2)))


def test_base_ot_selects_correctly():
    rng = make_rng(5)
    msgs = [(rng.getrandbits(256).to_bytes(32, "big"),
             rng.getrandbits(256).to_bytes(32, "big")) for _ in range(8)]
    bits = [0, 1, 1, 0, 1, 0, 0, 1]
    got = run_base_ot(msgs, bits, ot.GROUP_TEST)
    assert got == [m[b] for m, b in zip(msgs, bits)]


def test_ot_exchange_all_zero_choices():
    rng = make_rng(7)
    pairs = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(10)]
    got = ot_exchange(pairs, [0] * 10, make_rng(1))
    assert got == [p[0] for p in pairs]


def test_ot_exchange_random_choices_16():
    rng = make_rng(11)
    pairs = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(16)]
    bits = [rng.getrandbits(1) for _ in range(16)]
    got = ot_exchange(pairs, bits, make_rng(2))
    assert got == [p[b] for p, b in zip(pairs, bits)]


def test_ot_exchange_length_mismatch():
    # the receiver asks for two labels, the sender answers with one pair
    with pytest.raises(ProtocolError):
        ot_exchange([(0, (1 << 128) - 1)], [0, 1], make_rng(0))


def test_extension_survives_multiple_batches(monkeypatch):
    # force several small extension batches over one base-OT setup
    monkeypatch.setattr(ot, "BATCH", 8)
    (s_send, s_recv), (r_send, r_recv) = pipe_pair()
    sender = ot.OtExtSender(s_send, s_recv, make_rng(1), ot.GROUP_TEST)
    receiver = ot.OtExtReceiver(r_send, r_recv, make_rng(2), ot.GROUP_TEST)
    rng = make_rng(3)
    rounds = []
    for _ in range(5):
        pairs = [(rng.getrandbits(128), rng.getrandbits(128))
                 for _ in range(6)]
        bits = [rng.getrandbits(1) for _ in range(6)]
        rounds.append((pairs, bits))

    def send_side():
        sender.setup()
        for pairs, _ in rounds:
            sender.send_pairs(pairs)

    def receive_side():
        receiver.setup()
        return [receiver.receive_pairs(bits) for _, bits in rounds]

    got = run_both(send_side, receive_side)
    for (pairs, bits), labels in zip(rounds, got):
        assert labels == [p[b] for p, b in zip(pairs, bits)]
    assert sender._batch == receiver._batch > 1


def test_receiver_cannot_use_wrong_pad():
    # the non-chosen branch decrypts to garbage, not the other label
    pairs = [(0, (1 << 128) - 1)]
    got = ot_exchange(pairs, [0], make_rng(4))
    assert got[0] == pairs[0][0]
    assert got[0] != pairs[0][1]


def test_malformed_group_element_rejected():
    group = ot.GROUP_TEST
    with pytest.raises(ProtocolError):
        group.check_member(0)
    with pytest.raises(ProtocolError):
        group.check_member(group.p + 5)
