"""Comparator circuits against brute-force integer oracles."""

import math

import pytest

from oracles import eval_plain
from test_garbling import garbled_run, instances

from oope import garbling
from oope.comparator import (BLOCK_BITS, ONE, build_comparator,
                             build_fh_comparator, int_to_bits)
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
    c = build_comparator(4)
    for x in range(16):
        for xbar in range(16):
            assert run(c, 4, x, xbar) == reference(x, xbar)


def test_width8_strict_orders():
    c = build_comparator(8)
    assert run(c, 8, 10, 15) == (1, 1)
    assert run(c, 8, 10, 10) == (0, 0)
    assert run(c, 8, 15, 10) == (1, 0)


def test_width_zero_rejected():
    with pytest.raises(DomainError):
        build_comparator(0)
    with pytest.raises(DomainError):
        build_fh_comparator(0)


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
    # every (x, xbar) at width 3, under every coin and stick
    c = build_fh_comparator(3)
    for x in range(8):
        for xbar in range(8):
            for aux in range(8):
                r_x, r_xbar, stick = ((aux >> i) & 1 for i in range(3))
                got = eval_plain(c, int_to_bits(x, 3) + [r_x],
                                 int_to_bits(xbar, 3) + [r_xbar, stick])
                assert got == (fh_reference(x, xbar, r_x, r_xbar, stick),)


def test_fh_projection_matches_plain_comparator():
    # on the unequal subdomain the traversal bit is the greater-than bit
    plain = build_comparator(5)
    fh = build_fh_comparator(5)
    for x in range(0, 32, 3):
        for xbar in range(0, 32, 5):
            if x == xbar:
                continue
            _, g = run(plain, 5, x, xbar)
            assert run_fh(fh, 5, x, xbar) == g


def test_gate_counts():
    # w greater-than stages and w - 1 equality stages, of XOR and AND only
    c = build_comparator(6)
    assert len([g for g in c.gates if g.op == "AND"]) == 11
    assert {g.op for g in c.gates} == {"XOR", "AND"}


@pytest.mark.parametrize("op", ["OR", "NOT", "NAND"])
def test_emit_refuses_any_op_but_xor_and_and(op):
    c = build_comparator(2)
    gates = list(c.gates)
    with pytest.raises(DomainError):
        c.emit(op, ONE, ONE)
    assert c.gates == gates


@pytest.mark.parametrize("build", [build_comparator, build_fh_comparator])
@pytest.mark.parametrize("width", [1, 2, 5, 9, 17, 65])
def test_schedule_runs_every_gate_once_with_inputs_ready(build, width):
    c = build(width)
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
        assert max(depth.values()) == min(width, BLOCK_BITS) + \
            math.ceil(math.log2(math.ceil(width / BLOCK_BITS)))


def test_gate_count_at_the_paper_width():
    # 2w + ceil(w / BLOCK_BITS) - 2 non-free gates at w = 65, and fh's
    # two more, the coin's and the equality mux's; each costs 32 bytes in
    # every GC_PAYLOAD, so growth here shows in the wire bytes
    assert BLOCK_BITS == 8
    assert len(build_comparator(65).nonfree_gates()) == 137
    assert len(build_fh_comparator(65).nonfree_gates()) == 139


def test_inputs_at_the_paper_width():
    # the blinded values' 65 bits each, and in fh the owner's coin and
    # the analyst's coin and stick: no mask wires, since the outputs go
    # to the server as labels
    det, fh = build_comparator(65), build_fh_comparator(65)
    assert (len(det.gen_inputs), len(det.eval_inputs)) == (65, 65)
    assert (len(fh.gen_inputs), len(fh.eval_inputs)) == (66, 67)
    assert (len(det.outputs), len(fh.outputs)) == (2, 1)


def test_hash_tweaks_are_distinct_per_gate_half():
    # gate j hashes its halves under 2j and 2j + 1, each once over the
    # circuit and each below 2^127, apart from the IKNP row tweaks
    # (2^127 | batch·2^32 | row, ot._row_hashes)
    for c in (build_comparator(65), build_fh_comparator(65)):
        fields = []
        for (_, hashed), blob in zip(c.schedule, c.hash_tweaks(1)):
            assert len(blob) == 32 * len(hashed)
            step = [int.from_bytes(blob[i:i + 16], "big")
                    for i in range(0, len(blob), 16)]
            assert step == [t for *_, j in hashed for t in (2 * j, 2 * j + 1)]
            fields += step
        assert sorted(fields) == list(range(2 * len(c.nonfree_gates())))
        assert max(fields) < 1 << 127


BOUNDARY_WIDTHS = [9, 17, 24, 25, 65]


def boundary_pairs(width):
    """(x, xbar) pairs that cross block boundaries, each both ways round:
    equal inputs; every pair that differs in exactly one bit, so the
    blocks above it are equal and the tree must look below them; and for
    every bit i, the adjacent integers whose carry runs through bit i,
    so every lower bit, in every lower block, points the other way."""
    base = make_rng(width).getrandbits(width)
    for v in (0, (1 << width) - 1, base):
        yield v, v
    for i in range(width):
        above = base >> (i + 1) << (i + 1)
        for lo, hi in ((base & ~(1 << i), base | (1 << i)),
                       (above | (1 << i) - 1, above | 1 << i)):
            yield lo, hi
            yield hi, lo


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
def test_det_across_block_boundaries(width):
    c = build_comparator(width)
    lanes = list(instances(c, make_rng(width), garbling.BATCH))
    for k, (x, xbar) in enumerate(boundary_pairs(width)):
        gen, ev = int_to_bits(x, width), int_to_bits(xbar, width)
        want = reference(x, xbar)
        assert eval_plain(c, gen, ev) == want
        assert garbled_run(c, lanes[k % len(lanes)], gen, ev) == want


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
def test_fh_across_block_boundaries(width):
    # every combination of the coins and stick per pair
    c = build_fh_comparator(width)
    lanes = list(instances(c, make_rng(width + 1), garbling.BATCH))
    k = 0
    for x, xbar in boundary_pairs(width):
        for coins in range(8):
            r_x, r_xbar, stick = ((coins >> i) & 1 for i in range(3))
            gen = int_to_bits(x, width) + [r_x]
            ev = int_to_bits(xbar, width) + [r_xbar, stick]
            want = (fh_reference(x, xbar, r_x, r_xbar, stick),)
            assert eval_plain(c, gen, ev) == want
            assert garbled_run(c, lanes[k % len(lanes)], gen, ev) == want
            k += 1
