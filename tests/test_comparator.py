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


def reference(x, xbar, bx, bpx, bxb, bpxb):
    return ((int(xbar != x) ^ bx ^ bxb), (int(xbar > x) ^ bpx ^ bpxb))


def run(circuit, width, x, xbar, bx=0, bpx=0, bxb=0, bpxb=0):
    return eval_plain(circuit,
                      int_to_bits(x, width) + [bx, bpx],
                      int_to_bits(xbar, width) + [bxb, bpxb])


def test_equal_inputs_no_masks():
    c = build_comparator(4)
    assert run(c, 4, 9, 9) == (0, 0)


def test_tree_example_left_edge():
    # querying 25 against node 32 goes left
    c = build_comparator(8)
    assert run(c, 8, 32, 25) == (1, 0)


def test_exhaustive_width4_all_masks():
    c = build_comparator(4)
    for x in range(16):
        for xbar in range(16):
            for masks in range(16):
                bx, bpx, bxb, bpxb = ((masks >> i) & 1 for i in range(4))
                assert run(c, 4, x, xbar, bx, bpx, bxb, bpxb) == \
                    reference(x, xbar, bx, bpx, bxb, bpxb)


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
        eval_plain(c, [0] * 3, [0] * 6)


def fh_reference(x, xbar, r_x, r_xbar, prev_e, prev_r):
    """Three-branch procedure: traversal bit and updated state."""
    b_e = int(xbar != x)
    if b_e:
        b = int(xbar > x)
    elif prev_e == 0:
        b = prev_r
    else:
        b = r_x ^ r_xbar
    new_prev_e = prev_e & b_e
    new_prev_r = (r_x ^ r_xbar) if prev_e else prev_r
    return b, new_prev_e, new_prev_r


def run_fh(circuit, width, x, xbar, b_o=0, b_a=0, r_x=0, r_xbar=0,
           sh_e=(0, 1), sh_r=(0, 0), s_e=0, s_r=0):
    out = eval_plain(
        circuit,
        int_to_bits(x, width) + [b_o, r_x, sh_e[0], sh_r[0], s_e, s_r],
        int_to_bits(xbar, width) + [b_a, r_xbar, sh_e[1], sh_r[1]])
    b = out[0] ^ b_o ^ b_a
    return b, out[1] ^ s_e, out[2] ^ s_r


def test_fh_unequal_ignores_coins():
    c = build_fh_comparator(4)
    for r_x in (0, 1):
        for r_xbar in (0, 1):
            b, _, _ = run_fh(c, 4, 5, 9, r_x=r_x, r_xbar=r_xbar)
            assert b == 1
            b, _, _ = run_fh(c, 4, 9, 5, r_x=r_x, r_xbar=r_xbar)
            assert b == 0


def test_fh_first_equality_uses_fresh_coin():
    c = build_fh_comparator(4)
    for r_x in (0, 1):
        for r_xbar in (0, 1):
            b, prev_e, prev_r = run_fh(c, 4, 7, 7, r_x=r_x, r_xbar=r_xbar)
            assert b == r_x ^ r_xbar
            assert prev_e == 0 and prev_r == b


def test_fh_exhaustive_small():
    c = build_fh_comparator(3)
    for x in range(8):
        for xbar in range(8):
            for aux in range(64):
                r_x, r_xbar, pe, pr, b_o, b_a = \
                    ((aux >> i) & 1 for i in range(6))
                want_b, want_e, want_r = fh_reference(x, xbar, r_x, r_xbar,
                                                      pe, pr)
                got = run_fh(c, 3, x, xbar, b_o=b_o, b_a=b_a, r_x=r_x,
                             r_xbar=r_xbar, sh_e=(pe, 0), sh_r=(pr, 0),
                             s_e=1, s_r=1)
                assert got == (want_b, want_e, want_r)


def test_fh_stickiness_two_rounds():
    # same value compared twice: second round replays the first coin
    c = build_fh_comparator(4)
    for coin in (0, 1):
        b1, pe, pr = run_fh(c, 4, 6, 6, r_x=coin, r_xbar=0)
        assert b1 == coin
        # round 2 with fresh opposite coins but carried state
        b2, pe2, pr2 = run_fh(c, 4, 6, 6, r_x=1 - coin, r_xbar=0,
                              sh_e=(pe, 0), sh_r=(pr, 0))
        assert b2 == b1
        assert (pe2, pr2) == (pe, pr)


def test_fh_projection_matches_plain_comparator():
    # on the unequal subdomain the traversal bit is the greater-than bit
    plain = build_comparator(5)
    fh = build_fh_comparator(5)
    for x in range(0, 32, 3):
        for xbar in range(0, 32, 5):
            if x == xbar:
                continue
            _, g = run(plain, 5, x, xbar)
            b, _, _ = run_fh(fh, 5, x, xbar)
            assert b == g


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
    # 2w + ceil(w / BLOCK_BITS) - 2 non-free gates at w = 65; each costs
    # 32 bytes in every GC_PAYLOAD, so growth here shows in the wire bytes
    assert BLOCK_BITS == 8
    assert len(build_comparator(65).nonfree_gates()) == 137
    assert len(build_fh_comparator(65).nonfree_gates()) == 140


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
    k = 0
    for x, xbar in boundary_pairs(width):
        for masks in range(16):
            bx, bpx, bxb, bpxb = ((masks >> i) & 1 for i in range(4))
            gen = int_to_bits(x, width) + [bx, bpx]
            ev = int_to_bits(xbar, width) + [bxb, bpxb]
            want = reference(x, xbar, bx, bpx, bxb, bpxb)
            assert eval_plain(c, gen, ev) == want
            assert garbled_run(c, lanes[k % len(lanes)], gen, ev) == want
            k += 1


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
def test_fh_across_block_boundaries(width):
    # every combination of the four mask bits (b_o, b_a, s_e, s_r) per
    # pair; the coins and the state shares are drawn at random for each
    c = build_fh_comparator(width)
    rng = make_rng(width + 1)
    lanes = list(instances(c, rng, garbling.BATCH))
    k = 0
    for x, xbar in boundary_pairs(width):
        for masks in range(16):
            b_o, b_a, s_e, s_r = ((masks >> i) & 1 for i in range(4))
            aux = rng.getrandbits(6)
            r_x, r_xbar, e_o, e_a, p_o, p_a = ((aux >> i) & 1 for i in range(6))
            gen = int_to_bits(x, width) + [b_o, r_x, e_o, p_o, s_e, s_r]
            ev = int_to_bits(xbar, width) + [b_a, r_xbar, e_a, p_a]
            b, new_e, new_r = fh_reference(x, xbar, r_x, r_xbar, e_o ^ e_a,
                                           p_o ^ p_a)
            want = (b ^ b_o ^ b_a, new_e ^ s_e, new_r ^ s_r)
            assert eval_plain(c, gen, ev) == want
            assert garbled_run(c, lanes[k % len(lanes)], gen, ev) == want
            k += 1
