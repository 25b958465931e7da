"""Randomness sources.

Every role owns one RNG so that seeded runs replay the exact same
protocol transcript.  Unseeded runs draw from the OS entropy pool.
"""

import random


def make_rng(seed=None) -> random.Random:
    """Return a CSPRNG when seed is None, else a deterministic generator.

    Seeded generators are for tests, benchmarks and transcript-equality
    checks only; they must never be used with production keys.
    """
    if seed is None:
        return random.SystemRandom()
    return random.Random(seed)
