"""Seeded randomness helpers.

All randomness in the library flows through ``random.Random`` (MT19937) driven
only by ``getrandbits``, so fixed seeds give bit-identical output across
platforms and Python versions.  Child streams are derived from a root seed by
counter via SHA-256, so independent trials never share state.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

__all__ = [
    "make_rng",
    "derive_seed",
    "rand_below",
    "rand_range",
    "sample_indices",
    "shuffled",
    "as_fraction",
    "ceil_frac",
    "floor_frac",
]


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def derive_seed(root: int, counter: int) -> int:
    digest = hashlib.sha256(f"{root}:{counter}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rand_below(rng: random.Random, n: int) -> int:
    """Uniform integer in [0, n) via rejection on getrandbits (version-stable)."""
    if n <= 0:
        raise ValueError("rand_below needs n >= 1")
    bits = (n - 1).bit_length() or 1
    while True:
        value = rng.getrandbits(bits)
        if value < n:
            return value


def rand_range(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] inclusive."""
    return lo + rand_below(rng, hi - lo + 1)


def sample_indices(rng: random.Random, n: int, k: int) -> list[int]:
    """Uniform k-subset of range(n) by partial Fisher-Yates, sorted."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} from {n}")
    pool = list(range(n))
    for i in range(k):
        j = i + rand_below(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def shuffled(rng: random.Random, items: list) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rand_below(rng, i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def as_fraction(x) -> Fraction:
    """Exact rational view of a threshold parameter.

    Floats are read through their decimal repr so 0.1 means exactly 1/10;
    thresholds like nu*n therefore compare bit-reproducibly.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a fraction")


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator
