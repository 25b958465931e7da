"""Garbling scheme against the plain evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import eval_plain

from oope import garbling
from oope.comparator import build_comparator, build_fh_comparator, int_to_bits
from oope.errors import IntegrityError
from oope.rng import make_rng


class Lane:
    """Lane i of a GarbledCircuit, cut as the analyst cuts round 1's
    GC_PAYLOAD and the server the owner's SHARES."""

    def __init__(self, circuit, garbled, i):
        tables, n = 32 * len(circuit.nonfree_gates()), len(circuit.eval_inputs)
        hashes = 32 * len(circuit.outputs)
        self.garbled, self.i = garbled, i
        self.tables = garbled.tables[i * tables:(i + 1) * tables]
        self.eval_pairs = garbled.eval_pairs[i * n:(i + 1) * n]
        self.decode_hashes = garbled.decode_hashes[i * hashes:
                                                   (i + 1) * hashes]

    def payload(self, gen_bits):
        return garbling.payload(self.garbled, self.i, gen_bits)


def instances(circuit, rng, count, lanes=10):
    """count garbled instances of circuit, lane by lane from as many
    batches of `lanes` lanes as it takes."""
    for i in range(count):
        if i % lanes == 0:
            garbled = garbling.GarbledCircuit(circuit, rng, lanes)
        yield Lane(circuit, garbled, i % lanes)


def one_instance(circuit, rng):
    """The one lane of a batch of one."""
    return Lane(circuit, garbling.GarbledCircuit(circuit, rng, 1), 0)


def chosen(pairs, bits):
    """The label row each bit picks from (n, 2, 16) label pairs, as the
    OT delivers it."""
    return pairs[np.arange(len(pairs)), bits]


def garbled_run(circuit, gc, gen_bits, eval_bits):
    """Evaluate one instance through its payload, as the analyst does,
    and decode its output labels, as the server does."""
    eval_labels = chosen(gc.eval_pairs, eval_bits)
    return garbling.decode(gc.decode_hashes, garbling.evaluate(
        circuit, gc.tables, gc.payload(gen_bits), eval_labels))


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
    # every lane of a batch of one lane and of 33, on every input
    c = build_comparator(2)
    n_gen, n_ev = len(c.gen_inputs), len(c.eval_inputs)
    for gc in [gc for lanes in (1, 33)
               for gc in instances(c, make_rng(7), lanes, lanes)]:
        for assign in range(1 << (n_gen + n_ev)):
            gen = [(assign >> i) & 1 for i in range(n_gen)]
            ev = [(assign >> (n_gen + i)) & 1 for i in range(n_ev)]
            assert garbled_run(c, gc, gen, ev) == eval_plain(c, gen, ev)


def test_exhaustive_width2_fh_across_a_batch():
    # all 2^7 inputs in every lane of a batch of one lane and of 33
    c = build_fh_comparator(2)
    n_gen, n_ev = len(c.gen_inputs), len(c.eval_inputs)
    assert n_gen + n_ev == 7
    for gc in [gc for lanes in (1, 33)
               for gc in instances(c, make_rng(8), lanes, lanes)]:
        for assign in range(1 << (n_gen + n_ev)):
            gen = [(assign >> i) & 1 for i in range(n_gen)]
            ev = [(assign >> (n_gen + i)) & 1 for i in range(n_ev)]
            assert garbled_run(c, gc, gen, ev) == eval_plain(c, gen, ev)


@pytest.mark.parametrize("count", [2, 10, 33])
def test_batch_hands_out_each_instance_once(count):
    c = build_comparator(4)
    garbled = garbling.GarbledCircuit(c, make_rng(4), count)
    n, gates = len(c.eval_inputs), len(c.nonfree_gates())
    assert garbled.eval_pairs.shape == (count * n, 2, 16)
    assert len(garbled.tables) == count * 32 * gates
    assert len(garbled.decode_hashes) == count * 32 * len(c.outputs)
    lanes = [Lane(c, garbled, i) for i in range(count)]
    # every lane has its own offset, labels, tables and decode hashes,
    # the batch's tables, label pairs and decode hashes in lane order
    zeros = [0] * len(c.gen_inputs)
    assert len({(gc.eval_pairs[0, 1] ^ gc.eval_pairs[0, 0]).tobytes()
                for gc in lanes}) == count
    assert len({garbled.encode(i, zeros)[0].tobytes()
                for i in range(count)}) == count
    assert len({gc.tables for gc in lanes}) == count
    assert len({gc.decode_hashes for gc in lanes}) == count
    assert garbled.tables == b"".join(gc.tables for gc in lanes)
    assert garbled.decode_hashes == b"".join(gc.decode_hashes
                                             for gc in lanes)
    # and each lane evaluates as a circuit garbled alone
    rng = make_rng(5)
    for gc in lanes:
        gen = [rng.getrandbits(1) for _ in c.gen_inputs]
        ev = [rng.getrandbits(1) for _ in c.eval_inputs]
        assert garbled_run(c, gc, gen, ev) == eval_plain(c, gen, ev)


def test_fresh_seeds_give_fresh_labels():
    c = build_comparator(4)
    gc1, gc2 = (one_instance(c, make_rng(seed)) for seed in (1, 2))
    zeros = [0] * len(c.gen_inputs)
    assert gc1.payload(zeros)[:16] != gc2.payload(zeros)[:16]
    assert gc1.tables != gc2.tables


def test_decode_rejects_corrupted_label():
    c = build_comparator(4)
    gc = one_instance(c, make_rng(9))
    out = garbling.evaluate(c, gc.tables, gc.payload([0] * 4),
                            gc.eval_pairs[:, 0])
    for at in (0, 16):  # bit 120 of each output label
        corrupted = bytearray(out)
        corrupted[at] ^= 1
        with pytest.raises(IntegrityError, match="failed to decode"):
            garbling.decode(gc.decode_hashes, bytes(corrupted))


def test_wrong_label_fails_decoding():
    # evaluating with a non-chosen input label cannot produce decodable output
    c = build_comparator(4)
    gc = one_instance(c, make_rng(11))
    eval_labels = gc.eval_pairs[:, 0].copy()
    # swap one evaluator label for garbage
    eval_labels[0] = 0
    out = garbling.evaluate(c, gc.tables, gc.payload([0] * 4), eval_labels)
    with pytest.raises(IntegrityError):
        garbling.decode(gc.decode_hashes, out)


def test_payload_roundtrip():
    c = build_comparator(4)
    gc = one_instance(c, make_rng(13))
    gen_bits = int_to_bits(9, 4)
    blob = gc.payload(gen_bits)
    # the owner's labels alone; the tables and decode hashes travel apart
    assert len(blob) == 16 * len(c.gen_inputs)
    assert len(gc.tables) == 32 * len(c.nonfree_gates())
    assert len(gc.decode_hashes) == 32 * len(c.outputs)
    assert gc.decode_hashes not in blob
    assert blob == gc.garbled.encode(0, gen_bits).tobytes()


def test_payload_size_is_input_independent():
    # frame sizes must not depend on the plaintext bits
    c = build_comparator(8)
    gc = one_instance(c, make_rng(15))
    a = gc.payload(int_to_bits(0, 8))
    b = gc.payload(int_to_bits(255, 8))
    assert len(a) == len(b)


# the circuits at the paper width, l + 2 = 34
WIDE = {"det": build_comparator(34), "fh": build_fh_comparator(34)}


@pytest.mark.parametrize("kind", sorted(WIDE))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), gen=st.integers(0, 2**35 - 1),
       ev=st.integers(0, 2**36 - 1))
def test_wide_circuits_match_plain(kind, seed, gen, ev):
    c = WIDE[kind]
    gen_bits = int_to_bits(gen, len(c.gen_inputs))
    eval_bits = int_to_bits(ev, len(c.eval_inputs))
    gc = one_instance(c, make_rng(seed))
    assert garbled_run(c, gc, gen_bits, eval_bits) == \
        eval_plain(c, gen_bits, eval_bits)


@pytest.mark.parametrize("kind", sorted(WIDE))
def test_payload_length_formula(kind):
    # two ciphertexts per non-free gate in each lane's tables, one label
    # per generator input in its payload, and nothing else
    c = WIDE[kind]
    rng = make_rng(21)
    for gc in instances(c, rng, 4):
        gen_bits = [rng.getrandbits(1) for _ in c.gen_inputs]
        assert len(gc.payload(gen_bits)) == 16 * len(c.gen_inputs)
        assert len(gc.tables) == 32 * len(c.nonfree_gates())
    assert len(gc.payload([0] * len(c.gen_inputs))) == 16 * len(c.gen_inputs)
    assert len(gc.payload([1] * len(c.gen_inputs))) == 16 * len(c.gen_inputs)


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
    gc = one_instance(c, rng)
    gen_labels = gc.payload(gen_bits)
    eval_labels = chosen(gc.eval_pairs, eval_bits)
    tables, dec = gc.tables, gc.decode_hashes
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
