"""Integration tests for the Fig 3 accuracy harness (repro.eval.harness)."""
import numpy as np
import pytest

from repro.baselines import exact
from repro.eval import harness


@pytest.fixture(scope="module")
def tiny_results(spark):
    """One full 4-method run on the tiny dataset (shared by the class)."""
    return harness.run_accuracy(
        spark, "tiny", k_reg=32, n_checkpoints=4, top_n=8, seed=0
    )


def tiny_with_duplicate_insert(pick: str):
    """The tiny stream, and a copy ending in a second insert of an edge
    that is present at the end. The edge's user has the largest
    (``pick="idxmax"``) or smallest (``"idxmin"``) final set.

    Returns (stream, spec, bad stream, user, item, t of the insert)."""
    import pandas as pd

    from repro.streams import datasets, generator

    stream, spec = datasets.make_stream("tiny", seed=0)
    final = generator.net_state(stream)
    user = int(getattr(final.groupby("user").size(), pick)())
    item = int(final.loc[final["user"] == user, "item"].iloc[0])
    t = int(stream["t"].max()) + 1
    dup = stream.tail(1).assign(t=t, user=user, item=item, action=1)
    return stream, spec, pd.concat([stream, dup], ignore_index=True), user, item, t


class TestRunAccuracy:
    def test_table_complete(self, tiny_results):
        assert set(tiny_results["method"]) == set(harness.METHODS)
        assert set(tiny_results["ckpt"]) == {0, 1, 2, 3}
        assert len(tiny_results) == 4 * 4

    def test_columns(self, tiny_results):
        assert list(tiny_results.columns) == [
            "dataset", "method", "ckpt", "t", "n_pairs", "aape", "armse",
        ]

    def test_metrics_finite_and_positive(self, tiny_results):
        assert np.isfinite(tiny_results["aape"]).all()
        assert np.isfinite(tiny_results["armse"]).all()
        assert (tiny_results["aape"] >= 0).all()
        assert (tiny_results["armse"] >= 0).all()

    def test_armse_bounded_by_one(self, tiny_results):
        """Ĵ and J both live in [0,1], so ARMSE ≤ 1."""
        assert (tiny_results["armse"] <= 1.0).all()

    def test_pair_count_consistent(self, tiny_results):
        assert tiny_results["n_pairs"].nunique() == 1
        assert (tiny_results["n_pairs"] > 0).all()

    def test_checkpoint_times_increase(self, tiny_results):
        one = tiny_results[tiny_results["method"] == "vos"].sort_values("ckpt")
        assert (np.diff(one["t"]) > 0).all()

    def test_rp_is_least_accurate(self, tiny_results):
        """The paper's robust ordering: RP's independent-sample
        estimator is by far the noisiest at every scale."""
        final = tiny_results[tiny_results["ckpt"] == 3].set_index("method")
        others = [m for m in harness.METHODS if m != "rp"]
        assert final.loc["rp", "aape"] > max(final.loc[m, "aape"] for m in others)
        assert final.loc["rp", "armse"] > max(final.loc[m, "armse"] for m in others)

    def test_method_subset(self, spark):
        out = harness.run_accuracy(
            spark, "tiny", k_reg=16, n_checkpoints=2, top_n=5, seed=1,
            methods=("vos", "oph"),
        )
        assert set(out["method"]) == {"vos", "oph"}

    def test_deterministic(self, spark, tiny_results):
        again = harness.run_accuracy(
            spark, "tiny", k_reg=32, n_checkpoints=4, top_n=8, seed=0
        )
        # RP uses per-user seeded RNGs, VOS/MinHash/OPH pure hashing —
        # the whole experiment must be reproducible bit-for-bit.
        assert again.equals(tiny_results)

    def test_equals_spark_input_path(self, spark, tiny_results):
        """The table equals one built with the selection, the exact truth
        and the baseline replay each given the Spark stream, which each
        collects into pandas rows (``exact.stream_rows``)."""
        import pandas as pd

        from repro.baselines import driver
        from repro.core import vos
        from repro.eval import metrics
        from repro.streams import datasets, generator

        stream, spec = datasets.make_stream("tiny", seed=0)
        cps = [round(len(stream) * (i + 1) / 4) for i in range(4)]
        edges = generator.to_spark(spark, stream)
        users, pairs = exact.select_tracked(edges, 8)
        truth = exact.exact_over_time(edges, users, pairs, cps)
        s, n_u, n_v, j = (
            truth[c].to_numpy(np.float64).reshape(len(cps), len(pairs))
            for c in ("s", "n_u", "n_v", "j")
        )
        snaps = driver.sketch_snapshots(edges, users, cps, ("minhash", "oph", "rp"), 32, 13)
        params = vos.VOSParams.paper_budget(spec.n_users, k_reg=32, lam=2, seed=7)
        rows = []
        for method in harness.METHODS:
            if method == "vos":
                s_hat, j_hat = harness.estimate_vos(edges, users, pairs, n_u, n_v, cps, params)
            else:
                s_hat, j_hat = harness.estimate_baseline(snaps, users, pairs, n_u, n_v, method, 32)
            rows += [
                {
                    "dataset": "tiny", "method": method, "ckpt": ci, "t": t,
                    "n_pairs": len(pairs),
                    "aape": metrics.aape(s[ci], s_hat[ci]),
                    "armse": metrics.armse(j[ci], j_hat[ci]),
                }
                for ci, t in enumerate(cps)
            ]
        expect = pd.DataFrame(rows).sort_values(["method", "ckpt"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(tiny_results, expect, check_exact=True)

    def test_infeasible_stream_raises(self, spark, monkeypatch):
        """A duplicate insert among the tracked users' rows stops the run
        instead of being misread by the parity rule."""
        stream, spec, bad, user, item, t = tiny_with_duplicate_insert("idxmax")
        monkeypatch.setattr(harness.datasets, "make_stream", lambda name, seed: (bad, spec))
        with pytest.raises(ValueError, match=f"1 infeasible events.*user {user}, item {item}, t {t}"):
            harness.run_accuracy(spark, "tiny", k_reg=16, n_checkpoints=2, top_n=8, seed=0)

    def test_infeasible_untracked_user_raises(self, spark, monkeypatch):
        """A duplicate insert for a user outside the top-n stops the run
        too: the top-n reads every user's set through the parity rule."""
        stream, spec, bad, user, item, t = tiny_with_duplicate_insert("idxmin")
        for frame in (stream, bad):
            assert user not in exact.top_users(frame, 8)
        monkeypatch.setattr(harness.datasets, "make_stream", lambda name, seed: (bad, spec))
        with pytest.raises(ValueError, match=f"1 infeasible events.*user {user}, item {item}, t {t}"):
            harness.run_accuracy(spark, "tiny", k_reg=16, n_checkpoints=2, top_n=8, seed=0)


def jobs_in_group(spark, fn) -> int:
    """Spark jobs that ``fn()`` runs, counted in a job group of its own."""
    import uuid

    sc = spark.sparkContext
    group = f"count-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # The status tracker is fed by the listener bus, which runs behind.
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


class TestSparkReads:
    """Spark reads the Fig 3 stream once: the VOS build is the only Spark
    work in ``run_accuracy``."""

    ARGS = dict(k_reg=16, n_checkpoints=3, top_n=6, seed=2)

    def test_baselines_run_no_spark_job(self, spark):
        methods = ("minhash", "oph", "rp")
        n = jobs_in_group(
            spark, lambda: harness.run_accuracy(spark, "tiny", methods=methods, **self.ARGS)
        )
        assert n == 0

    def test_all_methods_run_only_the_vos_build(self, spark):
        from repro.core import vos
        from repro.streams import datasets

        a = self.ARGS
        stream, spec = datasets.make_stream("tiny", seed=a["seed"])
        cps = [round(len(stream) * (i + 1) / a["n_checkpoints"]) for i in range(a["n_checkpoints"])]
        params = vos.VOSParams.paper_budget(spec.n_users, k_reg=a["k_reg"], lam=2, seed=a["seed"] + 7)
        at = np.unique(vos.user_positions(exact.top_users(stream, a["top_n"]), params))
        build = jobs_in_group(
            spark,
            lambda: vos.build_bit_arrays(stream, params, cps, at=at),
        )
        assert build > 0
        n = jobs_in_group(spark, lambda: harness.run_accuracy(spark, "tiny", **a))
        assert n == build


class TestEstimateHelpers:
    def test_pair_indices(self):
        import pandas as pd

        users = np.array([3, 7, 9])
        pairs = pd.DataFrame({"u": [3, 7], "v": [9, 9]})
        iu, iv = exact.pair_indices(users, pairs)
        assert (iu == [0, 1]).all() and (iv == [2, 2]).all()
        iu, iv = exact.pair_indices(users[::-1], pairs)
        assert (iu == [2, 1]).all() and (iv == [0, 0]).all()

    @pytest.mark.parametrize("missing", [5, 10, 1])
    def test_pair_indices_unknown_user_raises(self, missing):
        """A user between, after or before the tracked ids is an error,
        not another user's row."""
        import pandas as pd

        pairs = pd.DataFrame({"u": [3, missing], "v": [9, 9]})
        with pytest.raises(ValueError):
            exact.pair_indices(np.array([3, 7, 9]), pairs)


class TestEstimateVos:
    def test_equals_dense_build_and_rebuild(self, tiny_stream_sdf, tiny_stream_pdf):
        """The sparse path gives the same frame as the dense A read through
        ``rebuild_user_sketches``, with an edgeless tracked user and two
        tracked users whose f_j positions collide."""
        import itertools

        import pandas as pd

        from repro.core import estimator, vos

        params = vos.VOSParams(k=64, m=2048, seed=7)
        active = np.sort(tiny_stream_pdf["user"].unique())[:5]
        pos = vos.user_positions(active, params)
        assert any(
            np.intersect1d(pos[a], pos[b]).size for a, b in itertools.combinations(range(5), 2)
        ), "no two tracked users share a position"
        edgeless = int(tiny_stream_pdf["user"].max()) + 1000
        users = np.sort(np.r_[active, edgeless])
        pairs = pd.DataFrame(list(itertools.combinations(users, 2)), columns=["u", "v"])
        T = int(tiny_stream_pdf["t"].max())
        cps = [T // 3, T]
        truth = exact.exact_over_time(tiny_stream_sdf, users, pairs, cps)
        n_u, n_v = (
            truth[c].to_numpy(np.float64).reshape(len(cps), len(pairs)) for c in ("n_u", "n_v")
        )

        s_hat, j_hat = harness.estimate_vos(tiny_stream_sdf, users, pairs, n_u, n_v, cps, params)

        A, betas = vos.build_bit_arrays(tiny_stream_sdf, params, cps)
        iu, iv = exact.pair_indices(users, pairs)
        assert s_hat.shape == j_hat.shape == (len(cps), len(pairs))
        for ci in range(len(cps)):
            sk = vos.rebuild_user_sketches(users, A[ci], params)
            alpha = estimator.pair_alpha(sk[iu], sk[iv])
            expect = estimator.estimate_common(n_u[ci], n_v[ci], alpha, betas[ci], params.k)
            np.testing.assert_array_equal(s_hat[ci], expect)
            np.testing.assert_array_equal(
                j_hat[ci], estimator.jaccard_from_common(expect, n_u[ci], n_v[ci])
            )
