"""Tests for the prefix-parity helper (repro.common.prefix) against a naive
per-checkpoint reference, and for its checkpoint contract in the two
builds that use it."""
import numpy as np
import pytest

from repro.baselines import exact
from repro.common import prefix
from repro.core import vos

from .test_harness import jobs_in_group


def naive(keys, t, checkpoints):
    """For each checkpoint, the bincount of the keys with t ≤ c, mod 2."""
    uniq, col = np.unique(keys, return_inverse=True)
    return uniq, np.array(
        [np.bincount(col[t <= c], minlength=len(uniq)) % 2 for c in checkpoints],
        dtype=np.int64,
    ).reshape(len(checkpoints), len(uniq))


def assert_matches_naive(keys, t, checkpoints):
    keys, t = np.asarray(keys, np.int64), np.asarray(t, np.int64)
    got_keys, got = prefix.prefix_parity(keys, t, checkpoints)
    want_keys, want = naive(keys, t, checkpoints)
    np.testing.assert_array_equal(got_keys, want_keys)
    assert got.shape == (len(checkpoints), len(want_keys))
    np.testing.assert_array_equal(got, want)
    return got_keys, got


class TestPrefixParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vs_naive_on_random_inputs(self, seed):
        """Unsorted keys, rows in any time order, repeated arrival times."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2_000))
        keys = rng.integers(-50, 300, n)
        t = rng.integers(0, 1_000, n)
        cps = np.sort(rng.integers(-10, 1_100, int(rng.integers(1, 40))))
        assert_matches_naive(keys, t, cps)

    def test_key_only_after_last_checkpoint_reads_zero(self):
        keys, got = assert_matches_naive([7, 3, 7, 9, 9], [1, 2, 5, 50, 60], [4, 10])
        assert keys.tolist() == [3, 7, 9]
        assert got.tolist() == [[1, 1, 0], [1, 0, 0]]

    def test_checkpoint_before_first_row(self):
        _, got = assert_matches_naive([1, 2, 1], [5, 6, 7], [0, 6, 7])
        assert got.tolist() == [[0, 0], [1, 1], [0, 1]]

    def test_repeated_checkpoints(self):
        _, got = assert_matches_naive([4, 4, 5], [1, 3, 3], [3, 3, 3, 8])
        assert got.tolist() == [[0, 1]] * 4

    def test_one_checkpoint(self):
        _, got = assert_matches_naive([2, 1, 2, 2], [1, 2, 3, 9], [3])
        assert got.tolist() == [[1, 0]]

    @pytest.mark.parametrize("n_ckpt", [1, 4])
    def test_empty_input(self, n_ckpt):
        keys, bits = prefix.prefix_parity([], [], list(range(n_ckpt)))
        assert keys.shape == (0,)
        assert bits.shape == (n_ckpt, 0)

    def test_decreasing_checkpoints_raise(self):
        with pytest.raises(ValueError):
            prefix.prefix_parity([1, 2], [1, 2], [5, 3])


class TestDecreasingCheckpointsRejected:
    """Both builds reject decreasing checkpoints with a ValueError before
    they read the stream."""

    def test_build_bit_arrays(self, spark, tiny_stream_pdf):
        """The check runs before the stream goes to Spark: no Spark job."""
        params = vos.VOSParams(k=64, m=4096, seed=7)

        def call():
            with pytest.raises(ValueError):
                vos.build_bit_arrays(tiny_stream_pdf, params, [2000, 1000])

        assert jobs_in_group(spark, call) == 0

    def test_exact_over_time(self, tiny_stream_pdf):
        users, pairs = exact.select_tracked(tiny_stream_pdf, 5)
        with pytest.raises(ValueError, match="non-decreasing"):
            exact.exact_over_time(tiny_stream_pdf, users, pairs, [2000, 1000])
