"""Comparator circuits against brute-force integer oracles."""

import pytest

from oracles import eval_plain

from oope.comparator import build_comparator, build_fh_comparator, int_to_bits
from oope.errors import DomainError, UsageError


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
    # w equality stages and w greater-than stages
    c = build_comparator(6)
    assert len([g for g in c.gates if g.op == "OR"]) == 5
    assert len([g for g in c.gates if g.op == "AND"]) == 6
