"""Comparator circuits against brute-force integer oracles, on blinded
values whose difference the circuit's width decides."""

import math

import pytest

from oracles import eval_plain
from test_garbling import garbled_run, instances

from oope.comparator import (BLOCK_BITS, ONE, build_comparator,
                             build_fh_comparator, int_to_bits)
from oope.engine import ProtocolParams
from oope.errors import DomainError, UsageError
from oope.rng import make_rng


def reference(x, xbar):
    return int(xbar != x), int(xbar > x)


def run(circuit, width, x, xbar):
    return eval_plain(circuit, int_to_bits(x, width),
                      int_to_bits(xbar, width))


def test_equal_inputs_no_masks():
    c = build_comparator(4)
    assert run(c, 4, 9, 9) == (0, 0)


def test_tree_example_left_edge():
    # querying 25 against node 32 goes left
    c = build_comparator(8)
    assert run(c, 8, 32, 25) == (1, 0)


def test_exhaustive_width4():
    # every input of the width-4 circuit: the inputs are a and b modulo
    # 16, and the circuit decides every difference b - a in (-8, 8),
    # whichever multiple of 16 the values lie above
    c = build_comparator(4)
    for a in range(16):
        for b in range(16):
            d = (b - a + 8) % 16 - 8
            if d != -8:
                assert run(c, 4, a, b) == (int(d != 0), int(d > 0))


def test_width8_strict_orders():
    c = build_comparator(8)
    assert run(c, 8, 10, 15) == (1, 1)
    assert run(c, 8, 10, 10) == (0, 0)
    assert run(c, 8, 15, 10) == (1, 0)


def test_width_zero_rejected():
    # the top bit only says whether the difference wrapped, so a
    # comparator needs one bit below it
    for width in (0, 1):
        with pytest.raises(DomainError):
            build_comparator(width)
        with pytest.raises(DomainError):
            build_fh_comparator(width)


def test_missing_inputs_rejected():
    c = build_comparator(4)
    with pytest.raises(UsageError):
        eval_plain(c, [0] * 3, [0] * 4)


def fh_reference(x, xbar, r_x, r_xbar, stick):
    """The traversal bit: greater-than where the inputs differ, else the
    coin, the analyst's r_xbar XOR the owner's r_x unless stick is set."""
    if xbar != x:
        return int(xbar > x)
    return r_xbar ^ (r_x & (1 - stick))


def run_fh(circuit, width, x, xbar, r_x=0, r_xbar=0, stick=0):
    """The traversal bit."""
    out, = eval_plain(circuit, int_to_bits(x, width) + [r_x],
                      int_to_bits(xbar, width) + [r_xbar, stick])
    return out


def test_fh_unequal_ignores_coins():
    c = build_fh_comparator(4)
    for coins in range(8):
        r_x, r_xbar, stick = ((coins >> i) & 1 for i in range(3))
        assert run_fh(c, 4, 5, 9, r_x=r_x, r_xbar=r_xbar, stick=stick) == 1
        assert run_fh(c, 4, 9, 5, r_x=r_x, r_xbar=r_xbar, stick=stick) == 0


def test_fh_equal_inputs_take_the_coin():
    # an encrypt (stick = 0) takes both parties' coins, a bound
    # (stick = 1) its own r_xbar, its side, whatever the owner's r_x
    c = build_fh_comparator(4)
    for r_x in (0, 1):
        for r_xbar in (0, 1):
            assert run_fh(c, 4, 7, 7, r_x=r_x, r_xbar=r_xbar) == r_x ^ r_xbar
            assert run_fh(c, 4, 7, 7, r_x=r_x, r_xbar=r_xbar,
                          stick=1) == r_xbar


def test_fh_exhaustive_small():
    # every (x, xbar) below 8, which width 4 decides, under every coin
    # and stick
    c = build_fh_comparator(4)
    for x in range(8):
        for xbar in range(8):
            for aux in range(8):
                r_x, r_xbar, stick = ((aux >> i) & 1 for i in range(3))
                got = eval_plain(c, int_to_bits(x, 4) + [r_x],
                                 int_to_bits(xbar, 4) + [r_xbar, stick])
                assert got == (fh_reference(x, xbar, r_x, r_xbar, stick),)


def test_fh_projection_matches_plain_comparator():
    # on the unequal subdomain the traversal bit is the greater-than bit
    plain = build_comparator(6)
    fh = build_fh_comparator(6)
    for x in range(0, 32, 3):
        for xbar in range(0, 32, 5):
            if x == xbar:
                continue
            _, g = run(plain, 6, x, xbar)
            assert run_fh(fh, 6, x, xbar) == g


def test_gate_counts():
    # over the low w - 1 bits, w - 1 greater-than stages and w - 2
    # equality stages, of XOR and AND only
    c = build_comparator(6)
    assert len([g for g in c.gates if g.op == "AND"]) == 9
    assert {g.op for g in c.gates} == {"XOR", "AND"}


@pytest.mark.parametrize("op", ["OR", "NOT", "NAND"])
def test_emit_refuses_any_op_but_xor_and_and(op):
    c = build_comparator(2)
    gates = list(c.gates)
    with pytest.raises(DomainError):
        c.emit(op, ONE, ONE)
    assert c.gates == gates


@pytest.mark.parametrize("build", [build_comparator, build_fh_comparator])
@pytest.mark.parametrize("bits", [1, 2, 5, 9, 17, 65])
def test_schedule_runs_every_gate_once_with_inputs_ready(build, bits):
    # a circuit whose stages compare the low `bits` bits
    c = build(bits + 1)
    gates = [(g.op, g.a, g.b, g.out) for g in c.gates]
    ands = [(g.a, g.b, g.out) for g in c.nonfree_gates()]
    ready = {ONE, *c.gen_inputs, *c.eval_inputs}
    seen = []
    for free, hashed in c.schedule:
        for a, b, out in free:
            assert a in ready and b in ready
            ready.add(out)
            seen.append(("XOR", a, b, out))
        # a step's AND gates are hashed together: all their inputs are
        # ready before any of them runs
        assert all(a in ready and b in ready for a, b, _, _ in hashed)
        for a, b, out, j in hashed:
            assert ands[j] == (a, b, out)
            ready.add(out)
            seen.append(("AND", a, b, out))
    assert sorted(seen) == sorted(gates) and len(set(seen)) == len(gates)
    assert not c.schedule[-1][1]
    # one hashing step per level of the circuit's AND-depth, no more
    depth = dict.fromkeys([ONE, *c.gen_inputs, *c.eval_inputs], 0)
    for g in c.gates:
        depth[g.out] = max(depth[g.a], depth[g.b]) + (g.op == "AND")
    assert sum(1 for _, hashed in c.schedule if hashed) == \
        max(depth.values())
    if build is build_comparator:
        # blocks of BLOCK_BITS ripple side by side, and a balanced tree
        # merges them one AND level per tree level
        assert max(depth.values()) == min(bits, BLOCK_BITS) + \
            math.ceil(math.log2(math.ceil(bits / BLOCK_BITS)))


PAPER_WIDTH = 34  # l + 2 at l = 32


def test_gate_count_at_the_paper_width():
    # 2n + ceil(n / BLOCK_BITS) - 2 non-free gates over the n = 33 bits
    # below the top one, in 11 levels, and fh's two more, the coin's and
    # the equality mux's, in 12; each costs 32 bytes in every GC_PAYLOAD,
    # so growth here shows in the wire bytes
    assert BLOCK_BITS == 8
    det, fh = build_comparator(PAPER_WIDTH), build_fh_comparator(PAPER_WIDTH)
    assert len(det.nonfree_gates()) == 69
    assert len(fh.nonfree_gates()) == 71
    assert [sum(1 for _, hashed in c.schedule if hashed)
            for c in (det, fh)] == [11, 12]


def test_inputs_at_the_paper_width():
    # the low l + 2 = 34 bits of each blinded value, and in fh the
    # owner's coin and the analyst's coin and stick: no mask wires,
    # since the outputs go to the server as labels
    assert ProtocolParams(l=32, k=32).width == PAPER_WIDTH
    det, fh = build_comparator(PAPER_WIDTH), build_fh_comparator(PAPER_WIDTH)
    assert (len(det.gen_inputs), len(det.eval_inputs)) == (34, 34)
    assert (len(fh.gen_inputs), len(fh.eval_inputs)) == (35, 36)
    assert (len(det.outputs), len(fh.outputs)) == (2, 1)


def test_hash_tweaks_are_distinct_per_gate_half():
    # gate j hashes its halves under 2j and 2j + 1, each once over the
    # circuit and each below 2^127, apart from the IKNP row tweaks
    # (2^127 | batch·2^32 | row, ot._row_hashes)
    for c in (build_comparator(PAPER_WIDTH),
              build_fh_comparator(PAPER_WIDTH)):
        fields = []
        for (_, hashed), blob in zip(c.schedule, c.hash_tweaks(1)):
            assert len(blob) == 32 * len(hashed)
            step = [int.from_bytes(blob[i:i + 16], "big")
                    for i in range(0, len(blob), 16)]
            assert step == [t for *_, j in hashed for t in (2 * j, 2 * j + 1)]
            fields += step
        assert sorted(fields) == list(range(2 * len(c.nonfree_gates())))
        assert max(fields) < 1 << 127


def blinded_round(l, k):
    """Every (x, xbar, r) of a comparison round at (l, k): x a plaintext
    or the sentinel 2^l, xbar a plaintext and r an offset below
    2^(l+k)."""
    return [(x, xbar, r) for x in range((1 << l) + 1)
            for xbar in range(1 << l) for r in range(1 << (l + k))]


def lane_ints(values, width):
    """eval_plain's lane inputs for values: bit j of the i-th int is bit
    i of values[j]."""
    return [int("".join(str(v >> i & 1) for v in reversed(values)), 2)
            for i in range(width)]


COINS = [tuple((aux >> i) & 1 for i in range(3)) for aux in range(8)]


@pytest.mark.parametrize("l, k", [(3, 2), (4, 3), (5, 1)])
def test_blinded_exhaustive(l, k):
    # every round's comparison, the sentinel's included, through the low
    # l + 2 bits of x + r and xbar + r: det's two outputs and fh's bit
    # under every (r_x, r_xbar, stick), in the clear in one lane per
    # (x, xbar, r) and garbled once per distinct circuit input, over the
    # first 32 instances of batches of ten
    width, cases = l + 2, blinded_round(l, k)
    det, fh = build_comparator(width), build_fh_comparator(width)
    a = lane_ints([x + r for x, _, r in cases], width)
    b = lane_ints([xbar + r for _, xbar, r in cases], width)
    want_ne, want_gt = (lane_ints([reference(x, xbar)[i]
                                   for x, xbar, _ in cases], 1)[0]
                        for i in (0, 1))
    lanes = len(cases)
    assert eval_plain(det, a, b, lanes) == (want_ne, want_gt)
    ones = (1 << lanes) - 1
    for r_x, r_xbar, stick in COINS:
        coin = fh_reference(0, 0, r_x, r_xbar, stick)
        want = want_gt | ((ones ^ want_ne) * coin)
        assert eval_plain(fh, a + [r_x * ones],
                          b + [r_xbar * ones, stick * ones], lanes) == (want,)

    inputs = {((x + r) % (1 << width), (xbar + r) % (1 << width)):
              reference(x, xbar) for x, xbar, r in cases}
    det_lanes = list(instances(det, make_rng(l), 32))
    fh_lanes = list(instances(fh, make_rng(l + 1), 32))
    for n, ((a_low, b_low), want) in enumerate(sorted(inputs.items())):
        gen, ev = int_to_bits(a_low, width), int_to_bits(b_low, width)
        assert garbled_run(det, det_lanes[n % 32], gen, ev) == want
        for r_x, r_xbar, stick in COINS:
            coin = fh_reference(0, 0, r_x, r_xbar, stick)
            assert garbled_run(fh, fh_lanes[n % 32],
                               gen + [r_x], ev + [r_xbar, stick]) == \
                (want[1] if want[0] else coin,)


BOUNDARY_BITS = [9, 17, 24, 25, 65]


def boundary_pairs(bits):
    """Blinded pairs (a, b) with |a - b| < 2^bits, each both ways round,
    whose comparison crosses the block boundaries of a circuit whose
    stages compare the low `bits` bits: equal values; every pair that
    differs in exactly one of those bits, so the blocks above it are
    equal and the tree must look below them; the widest differences,
    2^(bits-1) (the sentinel's against xbar = 0) and 2^bits - 1; and
    for every bit i up to one above the circuit's, the adjacent
    integers whose carry runs through bit i, so every lower bit, in
    every lower block, points the other way."""
    width = bits + 1
    base = make_rng(width).getrandbits(width + 1)
    for v in (0, (1 << width + 1) - 1, base):
        yield v, v
    pairs = [(base & ~(1 << i), base | (1 << i)) for i in range(bits)]
    pairs += [(base, base + d) for d in (1 << bits - 1, (1 << bits) - 1)]
    for i in range(width + 1):
        above = base >> (i + 1) << (i + 1)
        pairs.append((above | (1 << i) - 1, above | 1 << i))
    for lo, hi in pairs:
        yield lo, hi
        yield hi, lo


@pytest.mark.parametrize("bits", BOUNDARY_BITS)
def test_det_across_block_boundaries(bits):
    width = bits + 1
    c = build_comparator(width)
    lanes = list(instances(c, make_rng(width), 32))
    for n, (a, b) in enumerate(boundary_pairs(bits)):
        gen, ev = int_to_bits(a, width), int_to_bits(b, width)
        want = reference(a, b)
        assert eval_plain(c, gen, ev) == want
        assert garbled_run(c, lanes[n % len(lanes)], gen, ev) == want


@pytest.mark.parametrize("bits", BOUNDARY_BITS)
def test_fh_across_block_boundaries(bits):
    # every combination of the coins and stick per pair
    width = bits + 1
    c = build_fh_comparator(width)
    lanes = list(instances(c, make_rng(width + 1), 32))
    n = 0
    for a, b in boundary_pairs(bits):
        for r_x, r_xbar, stick in COINS:
            gen = int_to_bits(a, width) + [r_x]
            ev = int_to_bits(b, width) + [r_xbar, stick]
            want = (fh_reference(a, b, r_x, r_xbar, stick),)
            assert eval_plain(c, gen, ev) == want
            assert garbled_run(c, lanes[n % len(lanes)], gen, ev) == want
            n += 1
