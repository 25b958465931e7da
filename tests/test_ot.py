"""Oblivious transfer: base OT, IKNP extension, derandomized transfers."""

import functools
import hashlib
import os
import queue
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """A sender and a receiver after base OT over queue pipes.  Once set
    up, both ends run on one thread, and the caller carries every
    message between them."""
    rng = make_rng(seed)
    (s_send, s_recv), (r_send, r_recv) = pipe_pair()
    sender = ot.OtExtSender(make_rng(rng.getrandbits(64)), group)
    receiver = ot.OtExtReceiver(make_rng(rng.getrandbits(64)), group)
    run_both(lambda: sender.setup(s_send, s_recv),
             lambda: receiver.setup(r_send, r_recv))
    return sender, receiver


def new_batch(sender, receiver, count):
    """A fresh extension batch of count OTs: the sender's side and the
    receiver's."""
    blob, r_batch = receiver.extend(count)
    return sender.extend(blob, count), r_batch


def label_rows(pairs):
    """int label pairs as the (n, 2, 16) rows send_pairs takes."""
    blob = b"".join(x.to_bytes(16, "big") for pair in pairs for x in pair)
    return np.frombuffer(blob, dtype=np.uint8).reshape(len(pairs), 2, 16)


def label_ints(rows):
    """The (n, 16) rows receive_pairs returns, as ints."""
    return [int.from_bytes(row.tobytes(), "big") for row in rows]


def transfer(sender, receiver, batches, pairs, bits):
    """One transfer of int label pairs from batches, the flips and the
    reply carried by the caller as an engine carries them in its frames;
    returns the received labels as ints."""
    s_batch, r_batch = batches
    flips, chosen = receiver.choose(r_batch, bits)
    pads = sender.accept(s_batch, flips, len(pairs))
    return label_ints(receiver.receive_pairs(
        chosen, sender.send_pairs(pads, label_rows(pairs))))


def linked_batch(seed, count):
    """linked_pair and a first batch of count OTs."""
    sender, receiver = linked_pair(seed)
    return sender, receiver, new_batch(sender, receiver, count)


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


def test_base_ot_fan_out_matches_serial(monkeypatch):
    # seeded set-ups on 1, 3, the host's and 64 cores send the same
    # bytes and keep the same seeds; on 1 core only each side's calling
    # thread exponentiates, and no pool thread outlives set-up
    exp, threads = ot.OtGroup.exp, set()

    def recording_exp(self, base, e):
        threads.add(threading.get_ident())
        return exp(self, base, e)

    monkeypatch.setattr(ot.OtGroup, "exp", recording_exp)

    def setup_on(cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        threads.clear()
        before = set(threading.enumerate())
        rng, callers, sent = make_rng(11), set(), {"s": [], "r": []}
        (s_send, s_recv), (r_send, r_recv) = pipe_pair()
        sender = ot.OtExtSender(make_rng(rng.getrandbits(64)), ot.GROUP_TEST)
        receiver = ot.OtExtReceiver(make_rng(rng.getrandbits(64)),
                                    ot.GROUP_TEST)

        def side(end, send, recv, blobs):
            callers.add(threading.get_ident())
            end.setup(lambda blob: (blobs.append(blob), send(blob)), recv)

        run_both(lambda: side(sender, s_send, s_recv, sent["s"]),
                 lambda: side(receiver, r_send, r_recv, sent["r"]))
        assert set(threading.enumerate()) <= before
        return (sender._seeds, receiver._seed_pairs, sent), \
            threads - callers

    serial, extra = setup_on(1)
    assert not extra
    assert [len(serial[2][end]) for end in "sr"] == [1, 1]
    assert all(seed in pair for seed, pair in zip(serial[0], serial[1]))
    outcome, extra = setup_on(3)
    assert outcome == serial and extra
    assert setup_on(None)[0] == serial
    assert setup_on(64)[0] == serial


def test_base_ot_send_checks_every_key_before_exponentiating(monkeypatch):
    group = ot.GROUP_TEST
    keys = [group.hash_to_member(bytes([i])) for i in range(2 * ot.KAPPA - 1)]
    blob = b"".join(k.to_bytes(group.width, "big") for k in [*keys, 0])
    calls = []
    monkeypatch.setattr(group, "exp", lambda *args: calls.append(args))
    messages = [(bytes(32), bytes(32))] * ot.KAPPA
    with pytest.raises(ProtocolError, match="malformed group element"):
        ot.base_ot_send(None, lambda: blob, messages, group, make_rng(1))
    assert not calls


def test_ot_exchange_all_zero_choices():
    rng = make_rng(7)
    pairs = [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(10)]
    got = transfer(*linked_batch(1, 10), pairs, [0] * 10)
    assert got == [p[0] for p in pairs]


def test_ot_exchange_random_choices_16():
    pairs, bits = random_round(make_rng(11), 16)
    got = transfer(*linked_batch(2, 16), pairs, bits)
    assert got == [p[b] for p, b in zip(pairs, bits)]


def test_ot_exchange_length_mismatch():
    # the receiver chose two labels, the sender holds one pair: a reply
    # of the wrong length, or the flips themselves, fail
    sender, receiver, (s_batch, r_batch) = linked_batch(0, 2)
    with pytest.raises(ProtocolError):
        flips, chosen = receiver.choose(r_batch, [0, 1])
        pads = sender.accept(s_batch, flips, 1)
        receiver.receive_pairs(chosen, sender.send_pairs(
            pads, label_rows([(0, (1 << 128) - 1)])))
    sender, receiver, (s_batch, r_batch) = linked_batch(0, 1)
    flips, chosen = receiver.choose(r_batch, [0])
    pads = sender.accept(s_batch, flips, 1)
    with pytest.raises(ProtocolError, match="length"):
        receiver.receive_pairs(chosen, sender.send_pairs(
            pads, label_rows([(0, 1)]))[:-1])


def test_extension_survives_multiple_batches():
    # four batches over one base-OT setup, of 1 and of 25 bytes per PRG
    # row, neither a multiple of 32 bytes; each serves its transfers
    rng = make_rng(3)
    sender, receiver = linked_pair(1)
    for n, transfers in ((6, 1), (40, 5)) * 2:
        s_batch, r_batch = new_batch(sender, receiver, n * transfers)
        for _ in range(transfers):
            pairs, bits = random_round(rng, n)
            flips, chosen = receiver.choose(r_batch, bits)
            pad_pairs = sender.accept(s_batch, flips, n)
            # both sides hold the pad row of each chosen label, and only
            # it: the sender's pad pairs are swapped by the flips
            pads = chosen[1]
            choice = np.array(bits)
            held = pad_pairs[np.arange(n), choice]
            other = pad_pairs[np.arange(n), 1 - choice]
            assert np.array_equal(held, pads)
            assert (other != pads).any(axis=1).all()
            assert label_ints(receiver.receive_pairs(
                chosen, sender.send_pairs(pad_pairs, label_rows(pairs)))) == \
                [p[b] for p, b in zip(pairs, bits)]
    assert sender._batch == receiver._batch == 4


def test_a_batch_is_refused_unless_new_and_whole():
    # a batch index not above the last one taken would repeat row
    # tweaks under s; a refused batch leaves the taken one in use
    sender, receiver = linked_pair(12)
    rng = make_rng(13)
    (first, _), (second, _), (third, r_third) = (receiver.extend(16)
                                                 for _ in range(3))
    s_second = sender.extend(second, 16)
    for blob in (second, first):
        with pytest.raises(ProtocolError, match="not new"):
            sender.extend(blob, 16)
    # cut, padded, empty, or more OTs than the caller allows, rounded up
    # to whole bytes: 9 allow 16, 8 do not
    for blob, most in ((third[:-1], 16), (third + bytes(16), 16),
                       (third[:4], 16), (b"", 16), (third, 8)):
        with pytest.raises(ProtocolError, match="wrong size"):
            sender.extend(blob, most)
    # the receiver's pads are those of the third batch, the sender's
    # those of the second, so a transfer between them goes wrong
    pairs, bits = random_round(rng, 16)
    assert transfer(sender, receiver, (s_second, r_third), pairs, bits) != \
        [p[b] for p, b in zip(pairs, bits)]
    batches = new_batch(sender, receiver, 9)
    pairs, bits = random_round(rng, 16)
    assert transfer(sender, receiver, batches, pairs, bits) == \
        [p[b] for p, b in zip(pairs, bits)]
    assert sender._batch == receiver._batch == 4


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
    got = transfer(*linked_batch(4, 1), pairs, [0])
    assert got[0] == pairs[0][0]
    assert got[0] != pairs[0][1]


@pytest.mark.parametrize("damage", ["short", "long", "padded"])
def test_malformed_flips_spend_the_pads_and_keep_the_pools_in_step(damage):
    # the sender spends the batch's pads for a 35-bit flip vector before
    # it checks it, as the receiver spent them to make it, so the two
    # ends' copies of the batch stay in step; bits go least significant
    # first, so the top five bits of the fifth byte are padding
    sender, receiver, batches = linked_batch(6, 6 * 35)
    s_batch, r_batch = batches
    rng = make_rng(7)
    for _ in range(3):
        flips, _ = receiver.choose(r_batch, random_round(rng, 35)[1])
        flips = {"short": flips[:-1], "long": flips + b"\0",
                 "padded": flips[:-1] + bytes([flips[-1] | 0x80])}[damage]
        with pytest.raises(ProtocolError, match="choice vector"):
            sender.accept(s_batch, flips, 35)
        # no transfer was accepted, so none can run
        with pytest.raises(ProtocolError, match="no OT transfer"):
            sender.send_pairs(None, random_round(rng, 35)[0])
    for _ in range(3):
        pairs, bits = random_round(rng, 35)
        assert transfer(sender, receiver, batches, pairs, bits) == \
            [p[b] for p, b in zip(pairs, bits)]


@functools.cache
def shared_pair():
    """One linked pair for every example of a property: base OT runs
    once, and each example takes in a batch of its own."""
    return linked_pair(14)


def damaged(flips, n, kind):
    """flips cut by a byte, grown by one, or, where n leaves padding
    bits in the last byte, with the top one set."""
    if kind == "padded" and n % 8:
        return flips[:-1] + bytes([flips[-1] | 0x80])
    return flips + b"\0" if kind == "long" else flips[:-1]


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5).filter(
           lambda sizes: sum(sizes) % 8),
       damage=st.lists(st.sampled_from([None, "short", "long", "padded"]),
                       min_size=5, max_size=5),
       overdraw=st.booleans(), seed=st.integers(0, 2**64 - 1))
def test_transfers_take_the_chosen_labels_and_keep_pads_in_step(
        sizes, damage, overdraw, seed):
    # one batch of one to five transfers, its count not a multiple of 8,
    # so m rounds it up and leaves 1 to 7 spare pads; a damaged flip
    # vector fails at the sender after both ends spent its pads, so
    # every later transfer of the batch still takes the chosen labels
    sender, receiver = shared_pair()
    rng = make_rng(seed)
    batches = new_batch(sender, receiver, sum(sizes))
    s_batch, r_batch = batches
    for n, kind in zip(sizes, damage):
        pairs, bits = random_round(rng, n)
        if kind is None:
            assert transfer(sender, receiver, batches, pairs, bits) == \
                [p[b] for p, b in zip(pairs, bits)]
            continue
        flips, _ = receiver.choose(r_batch, bits)
        with pytest.raises(ProtocolError, match="choice vector"):
            sender.accept(s_batch, damaged(flips, n, kind), n)
    spare = -sum(sizes) % 8
    if overdraw:
        # a transfer beyond the batch spends its rest at both ends
        with pytest.raises(UsageError, match="used up"):
            receiver.choose(r_batch, [0] * (spare + 1))
        with pytest.raises(ProtocolError, match="used up"):
            sender.accept(s_batch, bytes(1), spare + 1)
    else:
        pairs, bits = random_round(rng, spare)
        assert transfer(sender, receiver, batches, pairs, bits) == \
            [p[b] for p, b in zip(pairs, bits)]
    with pytest.raises(UsageError, match="used up"):
        receiver.choose(r_batch, [0])
    with pytest.raises(ProtocolError, match="used up"):
        sender.accept(s_batch, bytes(1), 1)


def test_phantom_transfers_then_real_ones():
    # a phantom transfer is chosen and accepted but never runs; it only
    # spends its pads, at both ends, in one batch and across batches
    sender, receiver = linked_pair(8)
    rng = make_rng(9)
    for phantoms in (1, 2, 0, 3):
        batches = new_batch(sender, receiver, 7 * (phantoms + 1))
        s_batch, r_batch = batches
        for _ in range(phantoms):
            flips, _ = receiver.choose(r_batch, random_round(rng, 7)[1])
            sender.accept(s_batch, flips, 7)
        pairs, bits = random_round(rng, 7)
        assert transfer(sender, receiver, batches, pairs, bits) == \
            [p[b] for p, b in zip(pairs, bits)]
    assert sender._batch == receiver._batch == 4
    # a reply needs accepted pads, and its labels a chosen transfer
    with pytest.raises(ProtocolError, match="no OT transfer"):
        sender.send_pairs(None, pairs)
    with pytest.raises(UsageError):
        receiver.receive_pairs(None, bytes(7 * 32))


def test_accept_beyond_the_batch_is_refused():
    # 9 OTs make a batch of 16: a transfer of 9 leaves 7, too few for 8
    sender, receiver, (s_batch, r_batch) = linked_batch(10, 9)
    flips, _ = receiver.choose(r_batch, [1] * 9)
    sender.accept(s_batch, flips, 9)
    with pytest.raises(UsageError, match="used up"):
        receiver.choose(r_batch, [1] * 8)
    with pytest.raises(ProtocolError, match="used up"):
        sender.accept(s_batch, bytes(1), 8)


def test_malformed_group_element_rejected():
    group = ot.GROUP_TEST
    with pytest.raises(ProtocolError):
        group.check_member(0)
    with pytest.raises(ProtocolError):
        group.check_member(group.p + 5)
