"""Unit tests for the plain odd sketch (repro.core.odd_sketch)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import estimator, odd_sketch


class TestOddSketch:
    def test_empty_set_is_zero(self):
        assert odd_sketch.odd_sketch([], 32, 0).sum() == 0

    def test_bits_binary(self):
        o = odd_sketch.odd_sketch(np.arange(100), 64, 1)
        assert set(np.unique(o)) <= {0, 1}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_insert_delete_cancels(self, seed):
        """(u,i,+) then (u,i,−) leave the sketch unchanged — the xor
        cancellation the paper's dynamic correctness rests on."""
        base = [1, 5, 9]
        o1 = odd_sketch.odd_sketch(base, 32, seed)
        o2 = odd_sketch.odd_sketch(base + [77, 77], 32, seed)  # net parity of 77 is 0
        assert (o1 == o2).all()

    def test_order_independent(self):
        a = odd_sketch.odd_sketch([1, 2, 3, 4], 32, 0)
        b = odd_sketch.odd_sketch([4, 3, 2, 1], 32, 0)
        assert (a == b).all()

    @pytest.mark.parametrize(
        "s1,s2",
        [
            ([1, 2, 3], [3, 4, 5]),
            ([], [1, 2]),
            ([10, 20, 30, 40], [10, 20, 30, 40]),
            (list(range(50)), list(range(25, 75))),
        ],
    )
    def test_xor_is_symmetric_difference(self, s1, s2):
        """O(S1) ⊕ O(S2) = O(S1 Δ S2) — the estimator's core identity."""
        k, seed = 64, 3
        o1 = odd_sketch.odd_sketch(s1, k, seed)
        o2 = odd_sketch.odd_sketch(s2, k, seed)
        sym = sorted(set(s1) ^ set(s2))
        assert ((o1 ^ o2) == odd_sketch.odd_sketch(sym, k, seed)).all()

    def test_single_item_sets_one_bit(self):
        o = odd_sketch.odd_sketch([42], 128, 0)
        assert o.sum() == 1


class TestSymmetricDifferenceEstimator:
    """The production estimator at β = 0, on clean odd sketches."""

    def test_zero_alpha_means_zero(self):
        assert estimator.estimate_n_delta(0.0, 0.0, 100) == 0.0

    def test_monotone_in_alpha(self):
        k = 256
        alphas = np.array([0.05, 0.1, 0.2, 0.3, 0.4])
        est = estimator.estimate_n_delta(alphas, 0.0, k)
        assert (np.diff(est) > 0).all()

    def test_saturated_alpha_is_finite(self):
        est = estimator.estimate_n_delta(0.5, 0.0, 100)
        assert np.isfinite(est)

    @pytest.mark.parametrize("n_delta", [5, 20, 80])
    def test_accuracy_on_real_sketches(self, n_delta):
        """Averaged over seeds, the estimate tracks the true |Δ| within
        ~15% for |Δ| well below k."""
        k = 1024
        ests = []
        for seed in range(30):
            s1 = list(range(200))
            s2 = list(range(n_delta, 200 + n_delta))  # |Δ| = 2*n_delta
            o1 = odd_sketch.odd_sketch(s1, k, seed)
            o2 = odd_sketch.odd_sketch(s2, k, seed)
            alpha = (o1 ^ o2).mean()
            ests.append(estimator.estimate_n_delta(alpha, 0.0, k))
        mean_est = np.mean(ests)
        assert abs(mean_est - 2 * n_delta) / (2 * n_delta) < 0.15


@given(
    st.lists(st.integers(0, 10_000), max_size=60),
    st.integers(0, 50),
)
@settings(max_examples=40, deadline=None)
def test_parity_definition(items, seed):
    """Each bit equals the parity of the items hashing to it."""
    from repro.common import hashing

    k = 32
    o = odd_sketch.odd_sketch(items, k, seed)
    if items:
        j = hashing.psi(np.asarray(items), k, seed)
        expect = np.bincount(j, minlength=k) % 2
    else:
        expect = np.zeros(k, dtype=int)
    assert (o == expect).all()
