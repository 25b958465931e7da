"""Plaintext-side reference oracles, independent of the protocol path.

The order oracle works over a sorted list with direct integer
comparisons; it never builds a tree, never blinds, never garbles.  The
circuit oracle evaluates a comparator gate by gate in the clear, and
the decryption oracle is textbook Paillier without the CRT.
"""

import bisect
import math

from oope.comparator import AND, NOT, OR, XOR
from oope.errors import KeyMismatchError, UsageError
from oope.modexp import powmod
from oope.paillier import HomCiphertext


def midpoint(y_left, y_right):
    return y_left + (y_right - y_left + 1) // 2


def uniform_orders(n, m):
    return [(i + 1) * m // (n + 1) + (1 if (i + 1) * m % (n + 1) else 0)
            for i in range(n)]


class Mope2Oracle:
    """Deterministic mutable OPE: duplicates share one order."""

    def __init__(self, m):
        self.m = m
        self.xs = []
        self.ys = []

    def encrypt(self, x):
        i = bisect.bisect_left(self.xs, x)
        if i < len(self.xs) and self.xs[i] == x:
            return self.ys[i]
        for attempt in range(2):
            y_left = self.ys[i - 1] if i > 0 else 0
            y_right = self.ys[i] if i < len(self.xs) else self.m
            if y_right - y_left > 1:
                y = midpoint(y_left, y_right)
                self.xs.insert(i, x)
                self.ys.insert(i, y)
                return y
            self.ys = uniform_orders(len(self.xs), self.m)
        raise OverflowError("order space too dense")

    def load(self, dataset):
        for x in dataset:
            self.encrypt(x)
        return self


def rank_interval_holds(pairs, x, y):
    """Every smaller plaintext sits below y, every larger one above."""
    for px, py in pairs:
        if px < x and py >= y:
            return False
        if px > x and py <= y:
            return False
    return True


def sandwich_holds(decrypted_sorted, ybar, xbar):
    """Adjacent table plaintexts around a fresh order bracket the value."""
    below = [x for x, y in decrypted_sorted if y < ybar]
    above = [x for x, y in decrypted_sorted if y > ybar]
    if below and below[-1] > xbar:
        return False
    if above and above[0] < xbar:
        return False
    return True


def bound_orders(pairs, a, b, m):
    """Ends of the order interval holding every plaintext in [a, b],
    over (x, y) pairs: the lowest order of a plaintext >= a, M when
    there is none, and the highest order of one <= b, 0 when there is
    none."""
    return (min((y for x, y in pairs if x >= a), default=m),
            max((y for x, y in pairs if x <= b), default=0))


def min_max_orders(pairs, x):
    """Eq-style min/max order of a plaintext over (x, y) pairs."""
    ys = [py for px, py in pairs if px == x]
    return (min(ys), max(ys)) if ys else (None, None)


def textbook_encrypt(pk, m, rng):
    """Full-range Paillier, (1+mN) * r^N mod N^2 with r uniform in Z_N*:
    a valid Paillier ciphertext whose randomness lies outside the key's
    subgroup <h^N>."""
    while True:
        r = rng.randrange(1, pk.n)
        if math.gcd(r, pk.n) == 1:
            break
    value = (1 + m * pk.n) * pow(r, pk.n, pk.n_sq) % pk.n_sq
    return HomCiphertext(value, pk.key_id)


def decrypt_direct(sk, c):
    """Textbook Paillier decryption, m = L(c^lam mod N^2) * mu mod N with
    lam = lcm(P-1, Q-1): the cross-check for paillier.decrypt's CRT
    paths, defined on every ciphertext in Z_N^2*."""
    if c.key_id != sk.public.key_id:
        raise KeyMismatchError("ciphertext belongs to a different key")
    n = sk.public.n
    lam = math.lcm(sk.p - 1, sk.q - 1)
    mu = pow(lam, -1, n)  # L((1+N)^lam mod N^2) = lam mod N
    return (powmod(c.value, lam, sk.public.n_sq) - 1) // n * mu % n


def eval_plain(circuit, gen_bits, eval_bits):
    """Gate-by-gate evaluation of a comparator in the clear: the
    garbling oracle."""
    if len(gen_bits) != len(circuit.gen_inputs) or \
            len(eval_bits) != len(circuit.eval_inputs):
        raise UsageError("incomplete input assignment")
    values = {}
    for w, b in zip(circuit.gen_inputs, gen_bits):
        values[w] = b & 1
    for w, b in zip(circuit.eval_inputs, eval_bits):
        values[w] = b & 1
    for g in circuit.gates:
        a = values[g.a]
        if g.op == NOT:
            values[g.out] = a ^ 1
        elif g.op == XOR:
            values[g.out] = a ^ values[g.b]
        elif g.op == AND:
            values[g.out] = a & values[g.b]
        elif g.op == OR:
            values[g.out] = a | values[g.b]
        else:
            raise UsageError(f"unknown gate op {g.op}")
    return tuple(values[w] for w in circuit.outputs)
