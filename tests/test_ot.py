"""Oblivious transfer: base OT, IKNP extension, derandomized transfers."""

import hashlib
import queue
import threading

import pytest

from oope import ot
from oope.errors import ProtocolError, UsageError
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


def linked_pair(seed, group=ot.GROUP_TEST):
    """A sender and a receiver after base OT over queue pipes, which
    then carry only extension batches.  Once set up, both ends run on
    one thread: choose puts its batches on the pipe and reserve takes
    them."""
    rng = make_rng(seed)
    (s_send, s_recv), (r_send, r_recv) = pipe_pair()
    sender = ot.OtExtSender(s_send, s_recv, make_rng(rng.getrandbits(64)),
                            group)
    receiver = ot.OtExtReceiver(r_send, r_recv, make_rng(rng.getrandbits(64)),
                                group)
    run_both(sender.setup, lambda: receiver.setup())
    return sender, receiver


def transfer(sender, receiver, pairs, bits):
    """One transfer, the flips and the reply carried by the caller as an
    engine carries them in its frames; returns the received labels."""
    flips = receiver.choose(bits)
    sender.reserve(len(pairs))
    sender.accept(flips, len(pairs))
    return receiver.receive_pairs(sender.send_pairs(pairs))


def random_round(rng, n):
    pairs = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(n)]
    return pairs, [rng.getrandbits(1) for _ in range(n)]


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
    got = transfer(*linked_pair(1), pairs, [0] * 10)
    assert got == [p[0] for p in pairs]


def test_ot_exchange_random_choices_16():
    pairs, bits = random_round(make_rng(11), 16)
    got = transfer(*linked_pair(2), pairs, bits)
    assert got == [p[b] for p, b in zip(pairs, bits)]


def test_ot_exchange_length_mismatch():
    # the receiver chose two labels, the sender holds one pair: a reply
    # of the wrong length, or the flips themselves, fail
    sender, receiver = linked_pair(0)
    with pytest.raises(ProtocolError):
        flips = receiver.choose([0, 1])
        sender.reserve(1)
        sender.accept(flips, 1)
        receiver.receive_pairs(sender.send_pairs([(0, (1 << 128) - 1)]))
    sender, receiver = linked_pair(0)
    flips = receiver.choose([0])
    sender.reserve(1)
    sender.accept(flips, 1)
    with pytest.raises(ProtocolError, match="length"):
        receiver.receive_pairs(sender.send_pairs([(0, 1)])[:-1])


def test_extension_survives_multiple_batches(monkeypatch):
    # force several small extension batches over one base-OT setup, of 1
    # and of 25 bytes per PRG row: neither a multiple of 32 bytes
    rng = make_rng(3)
    for batch, n in ((8, 6), (200, 90)):
        monkeypatch.setattr(ot, "BATCH", batch)
        sender, receiver = linked_pair(1)
        for _ in range(5):
            pairs, bits = random_round(rng, n)
            flips = receiver.choose(bits)
            sender.reserve(n)
            sender.accept(flips, n)
            # both sides hold the pad of each chosen label, and only it
            pads = receiver._chosen[1]
            assert [p[c] for p, c in zip(sender._pads, bits)] == pads
            assert all(p[1 - c] != pad for p, c, pad in
                       zip(sender._pads, bits, pads))
            assert receiver.receive_pairs(sender.send_pairs(pairs)) == \
                [p[b] for p, b in zip(pairs, bits)]
        assert sender._batch == receiver._batch > 1


def test_prg_is_shake128_per_seed_and_batch():
    seed = bytes(range(32))
    assert ot._prg(seed, 300, 5) == hashlib.shake_128(
        seed + b"prg" + (5).to_bytes(4, "big")).digest(300)
    # a prefix of the longer output, and fresh across batches and seeds
    assert ot._prg(seed, 25, 5) == ot._prg(seed, 300, 5)[:25]
    outputs = {ot._prg(s, 256, b) for s in (seed, bytes(32), b"\xff" * 32)
               for b in (0, 1, 2, 1 << 31)}
    assert len(outputs) == 12


def test_receiver_cannot_use_wrong_pad():
    # the non-chosen branch decrypts to garbage, not the other label
    pairs = [(0, (1 << 128) - 1)]
    got = transfer(*linked_pair(4), pairs, [0])
    assert got[0] == pairs[0][0]
    assert got[0] != pairs[0][1]


@pytest.mark.parametrize("damage", ["short", "long", "padded"])
def test_malformed_flips_spend_the_pads_and_keep_the_pools_in_step(
        monkeypatch, damage):
    # the sender spends the pads of a 35-bit flip vector before it
    # checks it, as the receiver spent them to make it; a padding bit set
    # after the 35th would pass np.unpackbits(count=35)
    monkeypatch.setattr(ot, "BATCH", 40)
    sender, receiver = linked_pair(6)
    rng = make_rng(7)
    for _ in range(3):
        flips = receiver.choose(random_round(rng, 35)[1])
        flips = {"short": flips[:-1], "long": flips + b"\0",
                 "padded": flips[:-1] + bytes([flips[-1] | 1])}[damage]
        sender.reserve(35)
        with pytest.raises(ProtocolError, match="choice vector"):
            sender.accept(flips, 35)
        # no transfer was accepted, so none can run
        with pytest.raises(UsageError):
            sender.send_pairs(random_round(rng, 35)[0])
    for _ in range(3):
        pairs, bits = random_round(rng, 35)
        assert transfer(sender, receiver, pairs, bits) == \
            [p[b] for p, b in zip(pairs, bits)]
    assert sender._batch == receiver._batch > 3


def test_phantom_transfers_then_real_ones(monkeypatch):
    # a phantom transfer is chosen and accepted but never runs; the next
    # one replaces it, at either end, across batch refills
    monkeypatch.setattr(ot, "BATCH", 16)
    sender, receiver = linked_pair(8)
    rng = make_rng(9)
    for phantoms in (1, 2, 0, 3):
        for _ in range(phantoms):
            flips = receiver.choose(random_round(rng, 7)[1])
            sender.reserve(7)
            sender.accept(flips, 7)
        pairs, bits = random_round(rng, 7)
        assert transfer(sender, receiver, pairs, bits) == \
            [p[b] for p, b in zip(pairs, bits)]
    assert sender._batch == receiver._batch > 2
    # a reply and its labels serve one transfer only
    with pytest.raises(UsageError):
        sender.send_pairs(pairs)
    with pytest.raises(UsageError):
        receiver.receive_pairs(bytes(7 * 32))


def test_accept_before_reserve_is_a_usage_error():
    sender, receiver = linked_pair(10)
    flips = receiver.choose([1] * 9)
    with pytest.raises(UsageError, match="reserve"):
        sender.accept(flips, 9)


def test_malformed_group_element_rejected():
    group = ot.GROUP_TEST
    with pytest.raises(ProtocolError):
        group.check_member(0)
    with pytest.raises(ProtocolError):
        group.check_member(group.p + 5)
