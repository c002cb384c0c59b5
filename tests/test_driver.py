"""Tests for the per-user sequential baseline replay (repro.baselines.driver)."""
import numpy as np
import pytest

from repro.baselines import driver, exact
from repro.baselines.replay import EMPTY

CHECKPOINTS = [800, 1600, 2400]


@pytest.fixture(scope="module")
def tracked_users(tiny_stream_pdf):
    counts = tiny_stream_pdf.groupby("user").size().sort_values(ascending=False)
    return [int(u) for u in counts.index[:6]]


def local_replay(stream_pdf, user, method, k, seed, checkpoints):
    """Single-threaded reference replay of one user's edge sub-stream."""
    kern = driver.METHOD_KERNELS[method](user, k, seed)
    sub = stream_pdf[stream_pdf["user"] == user].sort_values("t")
    snaps, ci = [], 0
    cps = sorted(checkpoints)
    for t, item, action in sub[["t", "item", "action"]].itertuples(index=False):
        while ci < len(cps) and t > cps[ci]:
            snaps.append(kern.snapshot())
            ci += 1
        kern.update(int(item), int(action))
    while ci < len(cps):
        snaps.append(kern.snapshot())
        ci += 1
    return snaps


@pytest.mark.parametrize("method", ["minhash", "oph", "rp"])
class TestSnapshotEquivalence:
    @pytest.fixture(scope="class")
    def edges(self, tiny_stream_pdf, tracked_users):
        """The tracked users' rows, the frame the harness passes."""
        return exact.tracked_rows(tiny_stream_pdf, tracked_users)

    def test_matches_local_replay(
        self, edges, tiny_stream_pdf, tracked_users, method
    ):
        """Run-level replay snapshots == sequential replay per user, row i
        of the stack being ``tracked_users[i]`` (ordered by edge count,
        not by id)."""
        assert tracked_users != sorted(tracked_users)
        k, seed = 16, 3
        regs = driver.sketch_snapshots(
            edges, tracked_users, CHECKPOINTS, method, k, seed
        )[method]
        for i, u in enumerate(tracked_users):
            ref = local_replay(tiny_stream_pdf, u, method, k, seed, CHECKPOINTS)
            for ci in range(len(CHECKPOINTS)):
                assert (regs[ci, i] == ref[ci]).all(), f"user {u} ckpt {ci}"

    def test_all_users_all_checkpoints_present(
        self, edges, tracked_users, method
    ):
        snaps = driver.sketch_snapshots(
            edges, tracked_users, CHECKPOINTS, method, 8, 0
        )
        assert list(snaps) == [method]
        assert snaps[method].shape == (len(CHECKPOINTS), len(tracked_users), 8)
        assert snaps[method].dtype == np.int64

    def test_edgeless_user_gets_empty_snapshots(self, edges, method):
        ghost = 10_000  # not in the stream
        regs = driver.sketch_snapshots(edges, [ghost], CHECKPOINTS, method, 8, 0)[method]
        assert regs.shape == (len(CHECKPOINTS), 1, 8)
        assert (regs == EMPTY).all()


class TestMultiMethod:
    def test_one_pass_equals_per_method_calls(self, tiny_stream_pdf, tracked_users):
        """Replaying several methods in one job changes no snapshot."""
        k, seed = 16, 3
        methods = ("minhash", "oph", "rp")
        together = driver.sketch_snapshots(
            tiny_stream_pdf, tracked_users, CHECKPOINTS, methods, k, seed
        )
        assert sorted(together) == sorted(methods)
        for method in methods:
            alone = driver.sketch_snapshots(
                tiny_stream_pdf, tracked_users, CHECKPOINTS, method, k, seed
            )[method]
            np.testing.assert_array_equal(together[method], alone)

    def test_edgeless_user_with_several_methods(self, tiny_stream_pdf, tracked_users):
        """The edgeless user's row is all ``EMPTY`` in every method's
        stack; the row beside it is the user's own."""
        ghost = 10_000  # not in the stream
        methods = ("oph", "rp")
        snaps = driver.sketch_snapshots(
            tiny_stream_pdf, [ghost, tracked_users[0]], CHECKPOINTS, methods, 8, 0
        )
        assert sorted(snaps) == list(methods)
        for method in methods:
            regs = snaps[method]
            assert regs.shape == (len(CHECKPOINTS), 2, 8)
            assert (regs[:, 0] == EMPTY).all()
            alone = driver.sketch_snapshots(
                tiny_stream_pdf, [tracked_users[0]], CHECKPOINTS, method, 8, 0
            )[method]
            np.testing.assert_array_equal(regs[:, 1:], alone)

    def test_unknown_method_in_sequence_raises(self, tiny_stream_pdf):
        with pytest.raises(ValueError, match="unknown method"):
            driver.sketch_snapshots(tiny_stream_pdf, [1], [10], ("oph", "bogus"), 8, 0)


class TestMatrix:
    def test_snapshots_to_matrix_layout(self):
        """Per-user snapshot lists become a (checkpoint × user × k) int64
        stack with ``[c, i]`` = user i's registers at checkpoint c, also
        with no users or no checkpoints."""
        k, n_cps = 4, 3
        snaps = [[np.arange(k) + 10 * i + 100 * c for c in range(n_cps)] for i in range(5)]
        mat = driver.snapshots_to_matrix(snaps, n_cps, k)
        assert mat.shape == (n_cps, 5, k) and mat.dtype == np.int64
        for i in range(5):
            for c in range(n_cps):
                assert (mat[c, i] == snaps[i][c]).all()
        assert driver.snapshots_to_matrix([], n_cps, k).shape == (n_cps, 0, k)
        assert driver.snapshots_to_matrix([[], []], 0, k).shape == (0, 2, k)

    def test_unknown_method_raises(self, tiny_stream_pdf):
        with pytest.raises(ValueError, match="unknown method"):
            driver.sketch_snapshots(tiny_stream_pdf, [1], [10], "bogus", 8, 0)


class TestCheckpointOrder:
    def test_decreasing_checkpoints_raise(self, tiny_stream_pdf, tracked_users):
        """As in ``exact_over_time`` and ``vos.build_bit_arrays``: sorting
        them instead would label the state at t = 800 as ckpt 0."""
        with pytest.raises(ValueError, match="non-decreasing"):
            driver.sketch_snapshots(tiny_stream_pdf, tracked_users, [2400, 800, 1600], "minhash", 8, 0)
