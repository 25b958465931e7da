"""Garbling scheme against the plain evaluator."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import eval_plain

from oope import garbling
from oope.comparator import build_comparator, build_fh_comparator, int_to_bits
from oope.errors import IntegrityError, ProtocolError
from oope.rng import make_rng


def garbled_run(circuit, gc, gen_bits, eval_bits):
    gen_labels = gc.encode(circuit.gen_inputs, gen_bits)
    eval_labels = [pair[b] for pair, b in zip(gc.eval_label_pairs(),
                                              eval_bits)]
    out = garbling.evaluate(circuit, gc.tables, gen_labels, eval_labels)
    return garbling.decode(gc.decode_info, out)


def test_garbled_matches_plain_random_inputs():
    c = build_comparator(4)
    rng = make_rng(3)
    for _ in range(50):
        gc = garbling.GarbledCircuit(c, rng)
        gen = [rng.getrandbits(1) for _ in c.gen_inputs]
        ev = [rng.getrandbits(1) for _ in c.eval_inputs]
        assert garbled_run(c, gc, gen, ev) == eval_plain(c, gen, ev)


def test_garbled_matches_plain_fh():
    c = build_fh_comparator(3)
    rng = make_rng(5)
    for _ in range(50):
        gc = garbling.GarbledCircuit(c, rng)
        gen = [rng.getrandbits(1) for _ in c.gen_inputs]
        ev = [rng.getrandbits(1) for _ in c.eval_inputs]
        assert garbled_run(c, gc, gen, ev) == eval_plain(c, gen, ev)


def test_exhaustive_width2():
    c = build_comparator(2)
    rng = make_rng(7)
    gc = garbling.GarbledCircuit(c, rng)
    n_gen, n_ev = len(c.gen_inputs), len(c.eval_inputs)
    for assign in range(1 << (n_gen + n_ev)):
        gen = [(assign >> i) & 1 for i in range(n_gen)]
        ev = [(assign >> (n_gen + i)) & 1 for i in range(n_ev)]
        assert garbled_run(c, gc, gen, ev) == eval_plain(c, gen, ev)


def test_fresh_seeds_give_fresh_labels():
    c = build_comparator(4)
    gc1 = garbling.GarbledCircuit(c, make_rng(1))
    gc2 = garbling.GarbledCircuit(c, make_rng(2))
    assert gc1.encode(c.gen_inputs[:1], [0]) != gc2.encode(c.gen_inputs[:1], [0])
    assert gc1.tables != gc2.tables


def test_decode_rejects_corrupted_label():
    c = build_comparator(4)
    gc = garbling.GarbledCircuit(c, make_rng(9))
    out = garbling.evaluate(c, gc.tables, gc.encode(c.gen_inputs, [0] * 6),
                            [pair[0] for pair in gc.eval_label_pairs()])
    corrupted = out[0] ^ (1 << 120)
    with pytest.raises(IntegrityError):
        garbling.decode(gc.decode_info, [corrupted, out[1]])


def test_wrong_label_fails_decoding():
    # evaluating with a non-chosen input label cannot produce decodable output
    c = build_comparator(4)
    gc = garbling.GarbledCircuit(c, make_rng(11))
    eval_labels = [pair[0] for pair in gc.eval_label_pairs()]
    # swap one evaluator label for random garbage
    eval_labels[0] = 0
    out = garbling.evaluate(c, gc.tables, gc.encode(c.gen_inputs, [0] * 6),
                            eval_labels)
    with pytest.raises(IntegrityError):
        garbling.decode(gc.decode_info, out)


def test_payload_roundtrip():
    c = build_comparator(4)
    gc = garbling.GarbledCircuit(c, make_rng(13))
    gen_bits = int_to_bits(9, 4) + [1, 0]
    blob = garbling.payload(gc, gen_bits)
    tables, dec, gen_labels = garbling.parse_payload(c, blob)
    assert tables == gc.tables
    assert dec == gc.decode_info
    assert gen_labels == gc.encode(c.gen_inputs, gen_bits)
    with pytest.raises(ProtocolError):
        garbling.parse_payload(build_comparator(5), blob)


def test_payload_size_is_input_independent():
    # frame sizes must not depend on the plaintext bits
    c = build_comparator(8)
    gc = garbling.GarbledCircuit(c, make_rng(15))
    a = garbling.payload(gc, int_to_bits(0, 8) + [0, 0])
    b = garbling.payload(gc, int_to_bits(255, 8) + [1, 1])
    assert len(a) == len(b)


WIDE = {"det": build_comparator(65), "fh": build_fh_comparator(65)}


@pytest.mark.parametrize("kind", sorted(WIDE))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), gen=st.integers(0, 2**71 - 1),
       ev=st.integers(0, 2**69 - 1))
def test_wide_circuits_match_plain(kind, seed, gen, ev):
    c = WIDE[kind]
    gen_bits = int_to_bits(gen, len(c.gen_inputs))
    eval_bits = int_to_bits(ev, len(c.eval_inputs))
    gc = garbling.GarbledCircuit(c, make_rng(seed))
    tables, dec, gen_labels = garbling.parse_payload(
        c, garbling.payload(gc, gen_bits))
    eval_labels = [pair[b] for pair, b in zip(gc.eval_label_pairs(),
                                              eval_bits)]
    out = garbling.evaluate(c, tables, gen_labels, eval_labels)
    assert garbling.decode(dec, out) == eval_plain(c, gen_bits, eval_bits)


@pytest.mark.parametrize("kind", sorted(WIDE))
def test_payload_length_formula(kind):
    # two ciphertexts per non-free gate, two decode hashes per output
    c = WIDE[kind]
    expected = (10 + 32 * len(c.nonfree_gates()) + 32 * len(c.outputs) + 2 +
                16 * len(c.gen_inputs))
    rng = make_rng(21)
    for _ in range(4):
        gc = garbling.GarbledCircuit(c, rng)
        gen_bits = [rng.getrandbits(1) for _ in c.gen_inputs]
        assert len(garbling.payload(gc, gen_bits)) == expected
    assert len(garbling.payload(gc, [0] * len(c.gen_inputs))) == expected
    assert len(garbling.payload(gc, [1] * len(c.gen_inputs))) == expected


@pytest.mark.parametrize("kind", sorted(WIDE))
def test_payload_of_wrong_length_rejected(kind):
    c = WIDE[kind]
    blob = garbling.payload(garbling.GarbledCircuit(c, make_rng(23)),
                            [1] * len(c.gen_inputs))
    garbling.parse_payload(c, blob)
    for bad in (blob[:-1], blob + b"\0"):
        with pytest.raises(ProtocolError):
            garbling.parse_payload(c, bad)


def wire_values(circuit, gen_bits, eval_bits):
    """Plain value of every wire, gate by gate."""
    ops = {"XOR": operator.xor, "AND": operator.and_, "OR": operator.or_}
    values = dict(zip(circuit.gen_inputs, gen_bits))
    values.update(zip(circuit.eval_inputs, eval_bits))
    for g in circuit.gates:
        a = values[g.a]
        values[g.out] = a ^ 1 if g.op == "NOT" else ops[g.op](a, values[g.b])
    return values


@pytest.mark.parametrize("kind", sorted(WIDE))
def test_flipped_ciphertext_in_use_fails_decoding(kind):
    # the evaluator reads T_G of a gate when its first input label has the
    # low bit set, and T_E when its second does
    c = WIDE[kind]
    rng = make_rng(25)
    gen_bits = [rng.getrandbits(1) for _ in c.gen_inputs]
    eval_bits = [rng.getrandbits(1) for _ in c.eval_inputs]
    gc = garbling.GarbledCircuit(c, rng)
    gen_labels = gc.encode(c.gen_inputs, gen_bits)
    eval_labels = [pair[b] for pair, b in zip(gc.eval_label_pairs(),
                                              eval_bits)]
    values = wire_values(c, gen_bits, eval_bits)
    used = []
    for j, g in enumerate(c.nonfree_gates()):
        for t, wire in ((2 * j, g.a), (2 * j + 1, g.b)):
            if gc.encode([wire], [values[wire]])[0] & 1:
                used.append(t)
    # both halves and both gate kinds are hit
    assert {t % 2 for t in used} == {0, 1}
    assert {c.nonfree_gates()[t // 2].op for t in used} == {"AND", "OR"}
    for t in used:
        tables = list(gc.tables)
        tables[t] ^= 1 << rng.randrange(128)
        out = garbling.evaluate(c, tables, gen_labels, eval_labels)
        with pytest.raises(IntegrityError):
            garbling.decode(gc.decode_info, out)
