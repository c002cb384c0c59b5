"""Unit tests for the deterministic hash families (repro.common.hashing)."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import hashing

SEEDS = [0, 1, 7, 12345]


class TestSplitmix:
    def test_deterministic(self):
        x = np.arange(100, dtype=np.uint64)
        assert (hashing.splitmix64(x) == hashing.splitmix64(x)).all()

    def test_distinct_on_distinct_inputs(self):
        x = np.arange(100_000, dtype=np.uint64)
        assert len(np.unique(hashing.splitmix64(x))) == x.size

    def test_dtype(self):
        assert hashing.splitmix64(np.array([1, 2], dtype=np.uint64)).dtype == np.uint64

    def test_avalanche_bit_balance(self):
        # Each output bit should be ~50% ones over sequential inputs.
        h = hashing.splitmix64(np.arange(20_000, dtype=np.uint64))
        bits = np.unpackbits(h.view(np.uint8)).reshape(-1, 64)
        frac = bits.mean(axis=0)
        assert (np.abs(frac - 0.5) < 0.02).all()


class TestScalarInputs:
    """Scalar inputs wrap around 2^64 like arrays do, silently."""

    def test_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            hashing.splitmix64(np.uint64(5))
            hashing.hash_u64(np.int64(3), 4)
            hashing.hash_pair_u64(np.int64(3), 4, 0)
            hashing.f_positions(np.arange(10), 3, 4096, 0)

    def test_scalar_equals_array_element(self):
        assert hashing.splitmix64(np.uint64(5)) == hashing.splitmix64(np.array([5], np.uint64))[0]
        assert hashing.hash_u64(np.int64(3), 4) == hashing.hash_u64([3], 4)[0]
        assert hashing.hash_pair_u64(np.int64(3), 4, 0) == hashing.hash_pair_u64([3], [4], 0)[0]


class TestHashU64:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_deterministic_per_seed(self, seed):
        v = np.arange(1000)
        assert (hashing.hash_u64(v, seed) == hashing.hash_u64(v, seed)).all()

    def test_seeds_decorrelate(self):
        v = np.arange(10_000)
        a = hashing.hash_u64(v, 0)
        b = hashing.hash_u64(v, 1)
        assert (a == b).mean() < 1e-3

    def test_negative_ids_ok(self):
        out = hashing.hash_u64([-5, -1, 0, 1], 3)
        assert len(np.unique(out)) == 4

    def test_python_list_and_array_agree(self):
        assert (
            hashing.hash_u64([1, 2, 3], 9)
            == hashing.hash_u64(np.array([1, 2, 3]), 9)
        ).all()


class TestHashPair:
    def test_broadcasts(self):
        out = hashing.hash_pair_u64(np.arange(5)[:, None], np.arange(3)[None, :], 0)
        assert out.shape == (5, 3)

    def test_family_index_matters(self):
        u = np.arange(1000)
        a = hashing.hash_pair_u64(u, np.full_like(u, 0), 0)
        b = hashing.hash_pair_u64(u, np.full_like(u, 1), 0)
        assert (a == b).mean() < 1e-3

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_path(self, seed):
        full = hashing.hash_pair_u64(np.arange(10), np.arange(10), seed)
        one = hashing.hash_pair_u64([4], [4], seed)[0]
        assert full[4] == one


class TestPsi:
    @pytest.mark.parametrize("k", [1, 2, 64, 100, 6400])
    def test_range(self, k):
        j = hashing.psi(np.arange(5000), k, 0)
        assert j.min() >= 0 and j.max() < k

    @pytest.mark.parametrize("k", [16, 64, 256])
    def test_roughly_uniform(self, k):
        j = hashing.psi(np.arange(100 * k), k, 1)
        counts = np.bincount(j, minlength=k)
        # loose chi-square style bound: every bin within 5 sigma of mean
        assert (np.abs(counts - 100) < 5 * np.sqrt(100) + 5).all()

    def test_deterministic(self):
        assert (hashing.psi([7, 8], 32, 2) == hashing.psi([7, 8], 32, 2)).all()


class TestFPositions:
    @pytest.mark.parametrize("m", [100, 4096, 1 << 20])
    def test_range(self, m):
        pos = hashing.f_positions(np.arange(1000), 3, m, 0)
        assert pos.min() >= 0 and pos.max() < m

    def test_registers_independent(self):
        # The same user's k positions should look like k independent draws.
        pos = hashing.f_positions(42, np.arange(1000), 1 << 20, 0)
        assert len(np.unique(pos)) > 990

    def test_fused_consistency(self):
        """vos_positions must equal f_{psi(i)}(u) computed stepwise."""
        users = np.arange(200) + 1
        items = (np.arange(200) * 17) % 90 + 1
        k, m, seed = 64, 4096, 7
        fused = hashing.vos_positions(users, items, k, m, seed)
        j = hashing.psi(items, k, seed)
        step = hashing.f_positions(users, j, m, seed)
        assert (fused == step).all()


class TestMinhashHashes:
    def test_matrix_matches_per_item(self):
        items = np.array([3, 9, 27])
        mat = hashing.minhash_matrix(items, 8, 5)
        for r, it in enumerate(items):
            assert (mat[r] == hashing.minhash_values(int(it), 8, 5)).all()

    def test_columns_decorrelated(self):
        mat = hashing.minhash_matrix(np.arange(2000), 2, 5)
        assert (mat[:, 0] == mat[:, 1]).mean() < 1e-3


class TestOph:
    @pytest.mark.parametrize("k", [1, 3, 100, 1024])
    def test_bins_range(self, k):
        b = hashing.oph_bins(hashing.oph_values(np.arange(5000), 0), k)
        assert b.min() >= 0 and b.max() < k

    def test_bins_uniform(self):
        k = 64
        b = hashing.oph_bins(hashing.oph_values(np.arange(6400), 1), k)
        counts = np.bincount(b, minlength=k)
        assert (np.abs(counts - 100) < 5 * np.sqrt(100) + 5).all()

    def test_bins_are_contiguous_ranges(self):
        """Items in a lower bin must have smaller hash top-bits."""
        h = hashing.oph_values(np.arange(1000), 3)
        b = hashing.oph_bins(h, 4)
        for lo, hi in [(0, 1), (1, 2), (2, 3)]:
            assert h[b == lo].max() < h[b == hi].min()


@given(st.integers(min_value=-(2**62), max_value=2**62), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_hash_pure_function(value, seed):
    a = hashing.hash_u64([value], seed)[0]
    b = hashing.hash_u64([value], seed)[0]
    assert a == b
