"""Garbling scheme against the plain evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import eval_plain

from oope import garbling
from oope.comparator import build_comparator, build_fh_comparator, int_to_bits
from oope.errors import IntegrityError, ProtocolError
from oope.rng import make_rng


def instances(circuit, rng, count):
    """count garbled instances of circuit, popped from as many batches
    as it takes."""
    batch = garbling.GarbledCircuit(circuit, rng)
    for _ in range(count):
        if not batch:
            batch = garbling.GarbledCircuit(circuit, rng)
        yield batch.pop()


def chosen(pairs, bits):
    """The label row each bit picks from (n, 2, 16) label pairs, as the
    OT delivers it."""
    return pairs[np.arange(len(pairs)), bits]


def garbled_run(circuit, gc, gen_bits, eval_bits):
    """Evaluate one instance through its payload, as the analyst does,
    and decode its output labels, as the server does."""
    tables, gen_labels = garbling.parse_payload(
        circuit, garbling.payload(gc, gen_bits))
    eval_labels = chosen(gc.eval_label_pairs(), eval_bits)
    return garbling.decode(gc.decode_hashes, garbling.evaluate(
        circuit, tables, gen_labels, eval_labels))


def tables_of(circuit, gc):
    """The T_G || T_E bytes the analyst reads from gc's payload."""
    tables, _ = garbling.parse_payload(
        circuit, garbling.payload(gc, [0] * len(circuit.gen_inputs)))
    return tables


def test_garbled_matches_plain_random_inputs():
    c = build_comparator(4)
    rng = make_rng(3)
    for gc in instances(c, rng, 50):
        gen = [rng.getrandbits(1) for _ in c.gen_inputs]
        ev = [rng.getrandbits(1) for _ in c.eval_inputs]
        assert garbled_run(c, gc, gen, ev) == eval_plain(c, gen, ev)


def test_garbled_matches_plain_fh():
    c = build_fh_comparator(3)
    rng = make_rng(5)
    for gc in instances(c, rng, 50):
        gen = [rng.getrandbits(1) for _ in c.gen_inputs]
        ev = [rng.getrandbits(1) for _ in c.eval_inputs]
        assert garbled_run(c, gc, gen, ev) == eval_plain(c, gen, ev)


def test_exhaustive_width2():
    # every lane of a batch, on every input
    c = build_comparator(2)
    batch = garbling.GarbledCircuit(c, make_rng(7))
    n_gen, n_ev = len(c.gen_inputs), len(c.eval_inputs)
    for _ in range(garbling.BATCH):
        gc = batch.pop()
        tables, dec = tables_of(c, gc), gc.decode_hashes
        pairs = gc.eval_label_pairs()
        for assign in range(1 << (n_gen + n_ev)):
            gen = [(assign >> i) & 1 for i in range(n_gen)]
            ev = [(assign >> (n_gen + i)) & 1 for i in range(n_ev)]
            out = garbling.evaluate(c, tables, gc.encode(gen),
                                    chosen(pairs, ev))
            assert garbling.decode(dec, out) == eval_plain(c, gen, ev)


def test_exhaustive_width2_fh_across_a_batch():
    # all 2^7 inputs in every lane of a batch
    c = build_fh_comparator(2)
    batch = garbling.GarbledCircuit(c, make_rng(8))
    n_gen, n_ev = len(c.gen_inputs), len(c.eval_inputs)
    assert n_gen + n_ev == 7
    for _ in range(garbling.BATCH):
        gc = batch.pop()
        tables, dec = tables_of(c, gc), gc.decode_hashes
        pairs = gc.eval_label_pairs()
        for assign in range(1 << (n_gen + n_ev)):
            gen = [(assign >> i) & 1 for i in range(n_gen)]
            ev = [(assign >> (n_gen + i)) & 1 for i in range(n_ev)]
            out = garbling.evaluate(c, tables, gc.encode(gen),
                                    chosen(pairs, ev))
            assert garbling.decode(dec, out) == eval_plain(c, gen, ev)


def test_batch_hands_out_each_instance_once():
    c = build_comparator(4)
    batch = garbling.GarbledCircuit(c, make_rng(4))
    assert len(batch) == garbling.BATCH
    lanes = [batch.pop() for _ in range(garbling.BATCH)]
    assert not batch
    with pytest.raises(IndexError):
        batch.pop()
    # every lane has its own offset, labels and tables
    zeros = [0] * len(c.gen_inputs)
    assert len({(gc.eval_label_pairs()[0, 1] ^
                 gc.eval_label_pairs()[0, 0]).tobytes()
                for gc in lanes}) == garbling.BATCH
    assert len({gc.encode(zeros)[0].tobytes()
                for gc in lanes}) == garbling.BATCH
    assert len({tables_of(c, gc) for gc in lanes}) == garbling.BATCH


def test_fresh_seeds_give_fresh_labels():
    c = build_comparator(4)
    gc1 = garbling.GarbledCircuit(c, make_rng(1)).pop()
    gc2 = garbling.GarbledCircuit(c, make_rng(2)).pop()
    zeros = [0] * len(c.gen_inputs)
    assert not np.array_equal(gc1.encode(zeros)[0], gc2.encode(zeros)[0])
    assert tables_of(c, gc1) != tables_of(c, gc2)


def test_decode_rejects_corrupted_label():
    c = build_comparator(4)
    gc = garbling.GarbledCircuit(c, make_rng(9)).pop()
    out = garbling.evaluate(c, tables_of(c, gc), gc.encode([0] * 4),
                            gc.eval_label_pairs()[:, 0])
    for at in (0, 16):  # bit 120 of each output label
        corrupted = bytearray(out)
        corrupted[at] ^= 1
        with pytest.raises(IntegrityError, match="failed to decode"):
            garbling.decode(gc.decode_hashes, bytes(corrupted))


def test_wrong_label_fails_decoding():
    # evaluating with a non-chosen input label cannot produce decodable output
    c = build_comparator(4)
    gc = garbling.GarbledCircuit(c, make_rng(11)).pop()
    eval_labels = gc.eval_label_pairs()[:, 0].copy()
    # swap one evaluator label for garbage
    eval_labels[0] = 0
    out = garbling.evaluate(c, tables_of(c, gc), gc.encode([0] * 4),
                            eval_labels)
    with pytest.raises(IntegrityError):
        garbling.decode(gc.decode_hashes, out)


def test_payload_roundtrip():
    c = build_comparator(4)
    gc = garbling.GarbledCircuit(c, make_rng(13)).pop()
    gen_bits = int_to_bits(9, 4)
    blob = garbling.payload(gc, gen_bits)
    tables, gen_labels = garbling.parse_payload(c, blob)
    assert tables == gc.prefix
    assert len(tables) == 32 * len(c.nonfree_gates())
    # the decode hashes travel apart, to the server
    assert len(gc.decode_hashes) == 32 * len(c.outputs)
    assert gc.decode_hashes not in blob
    assert np.array_equal(gen_labels, gc.encode(gen_bits))
    with pytest.raises(ProtocolError):
        garbling.parse_payload(build_comparator(5), blob)


def test_payload_size_is_input_independent():
    # frame sizes must not depend on the plaintext bits
    c = build_comparator(8)
    gc = garbling.GarbledCircuit(c, make_rng(15)).pop()
    a = garbling.payload(gc, int_to_bits(0, 8))
    b = garbling.payload(gc, int_to_bits(255, 8))
    assert len(a) == len(b)


WIDE = {"det": build_comparator(65), "fh": build_fh_comparator(65)}


@pytest.mark.parametrize("kind", sorted(WIDE))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), gen=st.integers(0, 2**66 - 1),
       ev=st.integers(0, 2**67 - 1))
def test_wide_circuits_match_plain(kind, seed, gen, ev):
    c = WIDE[kind]
    gen_bits = int_to_bits(gen, len(c.gen_inputs))
    eval_bits = int_to_bits(ev, len(c.eval_inputs))
    gc = garbling.GarbledCircuit(c, make_rng(seed)).pop()
    assert garbled_run(c, gc, gen_bits, eval_bits) == \
        eval_plain(c, gen_bits, eval_bits)


@pytest.mark.parametrize("kind", sorted(WIDE))
def test_payload_length_formula(kind):
    # two ciphertexts per non-free gate, one label per generator input,
    # and nothing else
    c = WIDE[kind]
    expected = 32 * len(c.nonfree_gates()) + 16 * len(c.gen_inputs)
    rng = make_rng(21)
    for gc in instances(c, rng, 4):
        gen_bits = [rng.getrandbits(1) for _ in c.gen_inputs]
        assert len(garbling.payload(gc, gen_bits)) == expected
    assert len(garbling.payload(gc, [0] * len(c.gen_inputs))) == expected
    assert len(garbling.payload(gc, [1] * len(c.gen_inputs))) == expected


@pytest.mark.parametrize("kind", sorted(WIDE))
def test_payload_of_wrong_length_rejected(kind):
    c = WIDE[kind]
    blob = garbling.payload(garbling.GarbledCircuit(c, make_rng(23)).pop(),
                            [1] * len(c.gen_inputs))
    garbling.parse_payload(c, blob)
    for bad in (blob[:-1], blob + b"\0"):
        with pytest.raises(ProtocolError):
            garbling.parse_payload(c, bad)


@pytest.mark.parametrize("kind", sorted(WIDE))
def test_flipped_ciphertext_in_use_fails_decoding(kind):
    # the evaluator reads T_G of a gate only when its first input label
    # has the low bit set, and T_E only when its second does: flipping a
    # ciphertext it reads makes the output fail to decode, and flipping
    # one it skips changes nothing
    c = WIDE[kind]
    rng = make_rng(25)
    gen_bits = [rng.getrandbits(1) for _ in c.gen_inputs]
    eval_bits = [rng.getrandbits(1) for _ in c.eval_inputs]
    gc = garbling.GarbledCircuit(c, rng).pop()
    gen_labels = gc.encode(gen_bits)
    eval_labels = chosen(gc.eval_label_pairs(), eval_bits)
    tables, dec = tables_of(c, gc), gc.decode_hashes
    honest = garbling.evaluate(c, tables, gen_labels, eval_labels)
    assert garbling.decode(dec, honest) == eval_plain(c, gen_bits, eval_bits)
    used = []
    count = len(tables) // 16  # ciphertexts: T_G of gate j is 2j, T_E 2j + 1
    for t in range(count):
        flipped = bytearray(tables)
        flipped[16 * t + rng.randrange(16)] ^= 1 << rng.randrange(8)
        out = garbling.evaluate(c, bytes(flipped), gen_labels, eval_labels)
        if out != honest:
            used.append(t)
            with pytest.raises(IntegrityError):
                garbling.decode(dec, out)
    # uniform permute bits: about half are read, both halves among them
    assert 0.3 < len(used) / count < 0.7
    assert {t % 2 for t in used} == {0, 1}
