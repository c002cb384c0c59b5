"""Tests for the per-user sequential baseline replay (repro.baselines.driver)."""
import numpy as np
import pytest

from repro.baselines import driver, exact, minhash, oph, rp

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
    def edges(self, tiny_stream_sdf, tracked_users):
        """The stream as the checks pass it: here the Spark stream."""
        return tiny_stream_sdf

    def test_matches_local_replay(
        self, edges, tiny_stream_pdf, tracked_users, method
    ):
        """Run-level replay snapshots == sequential replay per user."""
        k, seed = 16, 3
        snaps = driver.sketch_snapshots(
            edges, tracked_users, CHECKPOINTS, method, k, seed
        )
        for u in tracked_users:
            ref = local_replay(tiny_stream_pdf, u, method, k, seed, CHECKPOINTS)
            for ci in range(len(CHECKPOINTS)):
                got = snaps[(snaps["user"] == u) & (snaps["ckpt"] == ci)]["regs"].iloc[0]
                assert (np.asarray(got) == ref[ci]).all(), f"user {u} ckpt {ci}"

    def test_all_users_all_checkpoints_present(
        self, edges, tracked_users, method
    ):
        snaps = driver.sketch_snapshots(
            edges, tracked_users, CHECKPOINTS, method, 8, 0
        )
        assert len(snaps) == len(tracked_users) * len(CHECKPOINTS)

    def test_edgeless_user_gets_empty_snapshots(self, edges, method):
        ghost = 10_000  # not in the stream
        snaps = driver.sketch_snapshots(edges, [ghost], CHECKPOINTS, method, 8, 0)
        assert len(snaps) == len(CHECKPOINTS)
        for regs in snaps["regs"]:
            assert (np.asarray(regs) == -1).all()


class TestSnapshotEquivalenceOnRows(TestSnapshotEquivalence):
    """The same checks on the tracked users' collected rows, the frame
    the harness passes."""

    @pytest.fixture(scope="class")
    def edges(self, tiny_stream_sdf, tracked_users):
        return exact.tracked_rows(tiny_stream_sdf, tracked_users)


class TestMultiMethod:
    def test_one_pass_equals_per_method_calls(self, tiny_stream_sdf, tracked_users):
        """Replaying several methods in one job changes no snapshot."""
        k, seed = 16, 3
        methods = ("minhash", "oph", "rp")
        together = driver.sketch_snapshots(
            tiny_stream_sdf, tracked_users, CHECKPOINTS, methods, k, seed
        )
        assert list(together["method"].unique()) == sorted(methods)
        for method in methods:
            alone = driver.sketch_snapshots(
                tiny_stream_sdf, tracked_users, CHECKPOINTS, method, k, seed
            )
            mine = together[together["method"] == method].reset_index(drop=True)
            assert (mine[["user", "ckpt"]] == alone[["user", "ckpt"]]).all().all()
            for a, b in zip(mine["regs"], alone["regs"]):
                assert (np.asarray(a) == np.asarray(b)).all()

    def test_edgeless_user_with_several_methods(self, tiny_stream_sdf, tracked_users):
        ghost = 10_000  # not in the stream
        methods = ("oph", "rp")
        snaps = driver.sketch_snapshots(
            tiny_stream_sdf, [ghost, tracked_users[0]], CHECKPOINTS, methods, 8, 0
        )
        assert len(snaps) == len(methods) * 2 * len(CHECKPOINTS)
        empty = snaps[snaps["user"] == ghost]
        assert sorted(empty["method"].unique()) == list(methods)
        assert len(empty) == len(methods) * len(CHECKPOINTS)
        for regs in empty["regs"]:
            assert (np.asarray(regs) == -1).all()

    def test_unknown_method_in_sequence_raises(self, tiny_stream_sdf):
        with pytest.raises(ValueError, match="unknown method"):
            driver.sketch_snapshots(tiny_stream_sdf, [1], [10], ("oph", "bogus"), 8, 0)


class TestMatrix:
    def test_snapshots_to_matrix_layout(self, tiny_stream_sdf, tracked_users):
        k = 8
        snaps = driver.sketch_snapshots(
            tiny_stream_sdf, tracked_users, CHECKPOINTS, "minhash", k, 0
        )
        users_sorted = sorted(tracked_users)
        mat = driver.snapshots_to_matrix(snaps, users_sorted, 1, k)
        assert mat.shape == (len(users_sorted), k)
        for row, u in enumerate(users_sorted):
            expect = snaps[(snaps["user"] == u) & (snaps["ckpt"] == 1)]["regs"].iloc[0]
            assert (mat[row] == np.asarray(expect)).all()

    def test_unknown_method_raises(self, tiny_stream_sdf):
        with pytest.raises(ValueError, match="unknown method"):
            driver.sketch_snapshots(tiny_stream_sdf, [1], [10], "bogus", 8, 0)


class TestCheckpointOrder:
    def test_decreasing_checkpoints_raise(self, tiny_stream_pdf, tracked_users):
        """As in ``exact_over_time`` and ``vos.build_bit_arrays``: sorting
        them instead would label the state at t = 800 as ckpt 0."""
        with pytest.raises(ValueError, match="non-decreasing"):
            driver.sketch_snapshots(tiny_stream_pdf, tracked_users, [2400, 800, 1600], "minhash", 8, 0)
