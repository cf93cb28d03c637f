"""The seeded draws consume the stream exactly as `rand_below` does.

`sample_indices` and `shuffled` inline `rand_below`'s rejection on
`getrandbits`.  The reference versions below call `rand_below` itself; both
must return the same values and leave the generator in the same state, since
callers keep drawing from it afterwards.
"""

import pytest

from bandembed.rng import make_rng, rand_below, sample_indices, shuffled

SEEDS = (0, 1, 7, 12345, 2**40 + 3)
# Every length up to 70; the widths change at powers of two, so 2^j - 1,
# 2^j and 2^j + 1 are all among them.
LENGTHS = range(71)


def reference_sample_indices(rng, n, k):
    pool = list(range(n))
    for i in range(k):
        j = i + rand_below(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def reference_shuffled(rng, items):
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rand_below(rng, i + 1)
        out[i], out[j] = out[j], out[i]
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_indices_matches_reference_stream(seed):
    fast, ref = make_rng(seed), make_rng(seed)
    for n in LENGTHS:
        for k in sorted({0, 1, n // 2, n} & set(range(n + 1))):
            assert sample_indices(fast, n, k) == reference_sample_indices(ref, n, k), (n, k)
            assert fast.getstate() == ref.getstate(), (n, k)


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffled_matches_reference_stream(seed):
    fast, ref = make_rng(seed), make_rng(seed)
    for n in LENGTHS:
        items = [3 * x + 1 for x in range(n)]
        out = shuffled(fast, items)
        assert out == reference_shuffled(ref, items), n
        assert fast.getstate() == ref.getstate(), n
        assert items == [3 * x + 1 for x in range(n)]  # the input is not touched
        assert sorted(out) == items


def test_sample_indices_rejects_out_of_range_k():
    rng = make_rng(0)
    for n, k in ((3, 4), (0, 1), (5, -1)):
        with pytest.raises(ValueError):
            sample_indices(rng, n, k)
