"""The PRNG is pinned bit-exactly; these tests hold it to that."""

import numpy as np
import pytest

from cellgrade import prng
from cellgrade.prng import GOLDEN_SEED0, SeededPrng

MASK = (1 << 64) - 1


def reference_splitmix64(seed: int, n: int) -> list[int]:
    """Independent big-integer implementation used as the oracle."""
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_golden_sequence_seed0():
    assert tuple(reference_splitmix64(0, 10)) == GOLDEN_SEED0
    rng = SeededPrng(0)
    assert tuple(rng.next_u64() for _ in range(10)) == GOLDEN_SEED0


def test_scalar_and_batch_agree():
    for seed in (0, 1, 0xDEADBEEF, MASK):
        a = SeededPrng(seed)
        b = SeededPrng(seed)
        scalars = [a.next_u64() for _ in range(257)]
        batch = b.u64(257)
        assert scalars == [int(v) for v in batch]
        # streams stay aligned afterwards
        assert a.next_u64() == b.next_u64()


def test_matches_oracle_for_many_seeds():
    rng = np.random.default_rng(5)
    for seed in rng.integers(0, 2**63, size=20):
        assert [int(v) for v in SeededPrng(int(seed)).u64(50)] == reference_splitmix64(int(seed), 50)


def test_u64_across_blocks_matches_scalar_draws_and_oracle():
    n = 3 * prng._U64_BLOCK + 5
    a, b = SeededPrng(0xC0FFEE), SeededPrng(0xC0FFEE)
    batch = [int(v) for v in a.u64(n)]
    assert batch == [b.next_u64() for _ in range(n)]
    assert batch == reference_splitmix64(0xC0FFEE, n)
    assert a.state == b.state


def test_uniform_range_and_determinism():
    rng = SeededPrng(7)
    vals = rng.uniform((10_000,))
    assert vals.min() >= 0.0 and vals.max() < 1.0
    assert abs(vals.mean() - 0.5) < 0.02
    again = SeededPrng(7).uniform((10_000,))
    np.testing.assert_array_equal(vals, again)


def test_uniform_scalar_matches_array_path():
    assert SeededPrng(3).uniform() == SeededPrng(3).uniform((1,))[0]


def test_permutation_is_a_permutation():
    rng = SeededPrng(11)
    for n in (1, 2, 17, 1000):
        perm = rng.permutation(n)
        assert sorted(perm.tolist()) == list(range(n))


def test_split_streams_differ_and_are_deterministic():
    a = SeededPrng(13)
    child1 = a.split()
    child2 = a.split()
    assert child1.state != child2.state
    b = SeededPrng(13)
    assert b.split().state == child1.state
    assert b.split().state == child2.state


def test_below_bounds():
    rng = SeededPrng(17)
    draws = [rng.below(7) for _ in range(500)]
    assert min(draws) >= 0 and max(draws) <= 6
    assert len(set(draws)) == 7
    with pytest.raises(ValueError, match="n >= 1, got 0"):
        rng.below(0)


def test_numpy_integer_seeds_draw_the_python_ints_words():
    words = SeededPrng(3).u64(5).tolist()
    for seed in (np.int64(3), np.uint64(3), np.int32(3)):
        assert SeededPrng(seed).u64(5).tolist() == words
        assert SeededPrng(seed).next_u64() == words[0]
    assert SeededPrng(np.int64(-1)).u64(5).tolist() == SeededPrng(-1).u64(5).tolist()
    assert SeededPrng(-1).u64(5).tolist() == reference_splitmix64(MASK, 5)
