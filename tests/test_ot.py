"""Oblivious transfer: base OT, IKNP extension, chosen-input transfers."""

import functools
import os
import queue
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oope import aes, ot
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


def new_batch(sender, receiver, bits):
    """A fresh extension batch of one OT per choice bit: the sender's
    side, its pad pairs, and the receiver's, its choices and pads."""
    blob, r_batch = receiver.extend(bits)
    return sender.extend(blob, len(bits)), r_batch


def label_rows(pairs):
    """int label pairs as the (n, 2, 16) rows send_pairs takes."""
    blob = b"".join(x.to_bytes(16, "big") for pair in pairs for x in pair)
    return np.frombuffer(blob, dtype=np.uint8).reshape(len(pairs), 2, 16)


def label_ints(rows):
    """The (n, 16) rows receive_pairs returns, as ints."""
    return [int.from_bytes(row.tobytes(), "big") for row in rows]


def transfer(sender, receiver, batches, pairs):
    """The transfer of int label pairs over the batches' first OTs, the
    reply carried by the caller as an engine carries it in its frames;
    returns the received labels as ints."""
    s_batch, r_batch = batches
    return label_ints(receiver.receive_pairs(
        r_batch, sender.send_pairs(s_batch, label_rows(pairs)), len(pairs)))


def linked_batch(seed, bits):
    """linked_pair and a first batch of one OT per choice bit."""
    sender, receiver = linked_pair(seed)
    return sender, receiver, new_batch(sender, receiver, bits)


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
    got = transfer(*linked_batch(1, [0] * 10), pairs)
    assert got == [p[0] for p in pairs]


def test_ot_exchange_random_choices_16():
    pairs, bits = random_round(make_rng(11), 16)
    got = transfer(*linked_batch(2, bits), pairs)
    assert got == [p[b] for p, b in zip(pairs, bits)]


def test_ot_exchange_length_mismatch():
    # the receiver chose two labels, the sender holds one pair: a reply
    # of the wrong length fails, and so does one cut short
    sender, receiver, (s_batch, r_batch) = linked_batch(0, [0, 1])
    reply = sender.send_pairs(s_batch, label_rows([(0, (1 << 128) - 1)]))
    with pytest.raises(ProtocolError, match="length"):
        receiver.receive_pairs(r_batch, reply, 2)
    sender, receiver, (s_batch, r_batch) = linked_batch(0, [0])
    reply = sender.send_pairs(s_batch, label_rows([(0, 1)]))
    with pytest.raises(ProtocolError, match="length"):
        receiver.receive_pairs(r_batch, reply[:-1], 1)


def test_extension_survives_multiple_batches():
    # four batches over one base-OT setup, of 1 and of 25 bytes per PRG
    # row, neither a multiple of 32 bytes; each serves its transfer
    rng = make_rng(3)
    sender, receiver = linked_pair(1)
    for n in (6, 200) * 2:
        pairs, bits = random_round(rng, n)
        pad_pairs, (choices, pads) = batches = new_batch(sender, receiver,
                                                         bits)
        # both sides hold the pad row of each chosen label, and only it;
        # the rows past the choices, up to a multiple of 8, choose 0
        m = len(pads)
        assert m == -(-len(bits) // 8) * 8 and len(pad_pairs) == m
        assert choices.tolist() == bits + [0] * (m - len(bits))
        held = pad_pairs[np.arange(m), choices]
        other = pad_pairs[np.arange(m), 1 - choices]
        assert np.array_equal(held, pads)
        assert (other != pads).any(axis=1).all()
        assert transfer(sender, receiver, batches, pairs) == \
            [p[b] for p, b in zip(pairs, bits)]
    assert sender._batch == receiver._batch == 4


def test_a_batch_is_refused_unless_new_and_whole():
    # a batch index not above the last one taken would repeat row
    # tweaks under s; a refused batch leaves the taken one in use
    sender, receiver = linked_pair(12)
    rng = make_rng(13)
    pairs, bits = random_round(rng, 16)
    (first, _), (second, _), (third, r_third) = (receiver.extend(bits)
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
    assert transfer(sender, receiver, (s_second, r_third), pairs) != \
        [p[b] for p, b in zip(pairs, bits)]
    pairs, bits = random_round(rng, 16)
    batches = new_batch(sender, receiver, bits)
    assert transfer(sender, receiver, batches, pairs) == \
        [p[b] for p, b in zip(pairs, bits)]
    assert sender._batch == receiver._batch == 4


def test_prg_is_aes_counter_mode_per_seed_and_batch():
    # block j of seed k's row in batch b is tccr(k[:16], 2^126 | b·2^32 | j)
    seeds = [bytes(range(32)), bytes(32), b"\xff" * 32]
    rows = ot._prg_matrix(seeds, 40, 5)
    assert rows.shape == (3, 40)
    for seed, row in zip(seeds, rows):
        want = b"".join(aes.tccr(seed[:16], (
            1 << 126 | 5 << 32 | j).to_bytes(16, "big")) for j in range(3))
        assert row.tobytes() == want[:40]
    # a prefix of the longer output, and fresh across batches and seeds
    assert (ot._prg_matrix(seeds, 25, 5) == rows[:, :25]).all()
    outputs = {ot._prg_matrix([s], 256, b).tobytes() for s in seeds
               for b in (0, 1, 2, 1 << 31)}
    assert len(outputs) == 12


def test_receiver_cannot_use_wrong_pad():
    # the non-chosen branch decrypts to garbage, not the other label
    pairs = [(0, (1 << 128) - 1)]
    got = transfer(*linked_batch(4, [0]), pairs)
    assert got[0] == pairs[0][0]
    assert got[0] != pairs[0][1]


@functools.cache
def shared_pair():
    """One linked pair for every example of a property: base OT runs
    once, and each example takes in a batch of its own."""
    return linked_pair(14)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 200).filter(lambda size: size % 8),
       spare=st.booleans(), seed=st.integers(0, 2**64 - 1))
def test_transfers_take_the_chosen_labels_and_keep_pads_in_step(
        size, spare, seed):
    # one transfer takes every row of a chosen-input batch at both ends,
    # its count not a multiple of 8, so m rounds it up and leaves 1 to 7
    # spare OTs, which chose 0; a reply or a pair count past m is refused
    sender, receiver = shared_pair()
    rng = make_rng(seed)
    pairs, bits = random_round(rng, size)
    pads, r_batch = batches = new_batch(sender, receiver, bits)
    m = len(pads)
    extra, _ = random_round(rng, (m - size) * spare)
    assert transfer(sender, receiver, batches, pairs + extra) == \
        [p[b] for p, b in zip(pairs, bits)] + [p[0] for p in extra]
    more, _ = random_round(rng, m + 1)
    with pytest.raises(ProtocolError, match="too small"):
        sender.send_pairs(pads, label_rows(more))
    with pytest.raises(UsageError, match="more transfers"):
        receiver.receive_pairs(r_batch, bytes(32 * (m + 1)), m + 1)


def test_phantom_transfers_then_real_ones():
    # a phantom transfer is a reply the sender made that never reached
    # the receiver, as when a session aborts in flight; its batch is
    # dropped with the session, and the next batch serves real transfers
    sender, receiver = linked_pair(8)
    rng = make_rng(9)
    for phantoms in (1, 2, 0, 3):
        pairs, bits = random_round(rng, 7)
        pads, _ = new_batch(sender, receiver, bits * (phantoms + 1))
        if phantoms:
            sender.send_pairs(pads, label_rows(pairs * phantoms))
        batches = new_batch(sender, receiver, bits)
        assert transfer(sender, receiver, batches, pairs) == \
            [p[b] for p, b in zip(pairs, bits)]
    assert sender._batch == receiver._batch == 8


def test_a_transfer_beyond_the_batch_is_refused():
    # 9 OTs make a batch of 16: a transfer of 16 pairs spends it, and the
    # sender refuses 17, which holds against a receiver that sent too
    # small a batch
    sender, receiver, batches = linked_batch(10, [1] * 9)
    pads, _ = batches
    pairs, _ = random_round(make_rng(11), 17)
    assert transfer(sender, receiver, batches, pairs[:16]) == \
        [p[1] for p in pairs[:9]] + [p[0] for p in pairs[9:16]]
    with pytest.raises(ProtocolError, match="too small"):
        sender.send_pairs(pads, label_rows(pairs))


def test_malformed_group_element_rejected():
    group = ot.GROUP_TEST
    with pytest.raises(ProtocolError):
        group.check_member(0)
    with pytest.raises(ProtocolError):
        group.check_member(group.p + 5)
