"""Tests for the distributed VOS build (repro.core.vos) against the
sequential kernel and the DuckDB oracle."""
import uuid

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import estimator, vos
from repro.oracle import assert_equivalent
from repro.streams import generator

PARAMS = vos.VOSParams(k=64, m=4096, seed=7)


@pytest.fixture(scope="module")
def kernel_ref(tiny_stream_pdf):
    """Sequential replay of the whole tiny stream — the ground truth."""
    kern = vos.VOSKernel(PARAMS)
    for t, u, i, a in tiny_stream_pdf.itertuples(index=False):
        kern.update(u, i, a)
    return kern


class TestBatchBuild:
    def test_final_bit_array_equals_sequential(self, tiny_stream_sdf, tiny_stream_pdf, kernel_ref):
        T = int(tiny_stream_pdf["t"].max())
        A, betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, [T])
        assert (A[0] == kernel_ref.A).all()
        assert betas[0] == pytest.approx(kernel_ref.beta)

    def test_checkpoint_prefixes(self, tiny_stream_sdf, tiny_stream_pdf):
        """Each checkpoint row equals a sequential replay of the prefix."""
        T = int(tiny_stream_pdf["t"].max())
        cps = [T // 4, T // 2, T]
        A, betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, cps)
        for row, c in enumerate(cps):
            kern = vos.VOSKernel(PARAMS)
            prefix = tiny_stream_pdf[tiny_stream_pdf["t"] <= c]
            for t, u, i, a in prefix.itertuples(index=False):
                kern.update(u, i, a)
            assert (A[row] == kern.A).all(), f"checkpoint {c}"
            assert betas[row] == pytest.approx(kern.beta)

    def test_depends_only_on_net_state(self, spark, tiny_stream_pdf):
        """xor cancellation: A from the full history equals A built from
        the net present edges only (each as a single insertion)."""
        T = int(tiny_stream_pdf["t"].max())
        sdf = generator.to_spark(spark, tiny_stream_pdf)
        A_hist, _ = vos.build_bit_arrays(sdf, PARAMS, [T])
        ns = generator.net_state(tiny_stream_pdf).copy()
        ns["t"] = np.arange(1, len(ns) + 1)
        ns["action"] = 1
        sdf_net = generator.to_spark(spark, ns[["t", "user", "item", "action"]])
        A_net, _ = vos.build_bit_arrays(sdf_net, PARAMS, [len(ns)])
        assert (A_hist[0] == A_net[0]).all()

    def test_parity_agg_vs_duckdb_oracle(self, tiny_stream_sdf, tiny_stream_pdf):
        """The Catalyst parity aggregation == the same SQL on DuckDB."""
        pos_sdf = vos.with_positions(tiny_stream_sdf, PARAMS)
        spark_parity = (
            pos_sdf.groupBy("pos")
            .agg((F.count(F.lit(1)) % 2).alias("bit"))
            .select("pos", "bit")
        )
        from repro.common import hashing

        pos_pdf = tiny_stream_pdf.copy()
        pos_pdf["pos"] = hashing.vos_positions(
            pos_pdf["user"].to_numpy(np.int64),
            pos_pdf["item"].to_numpy(np.int64),
            PARAMS.k,
            PARAMS.m,
            PARAMS.seed,
        )
        assert_equivalent(
            spark_parity,
            "SELECT pos, CAST(COUNT(*) % 2 AS BIGINT) AS bit FROM posed GROUP BY pos",
            posed=pos_pdf,
        )

    def test_beta_is_mean_of_bits(self, tiny_stream_sdf, tiny_stream_pdf):
        T = int(tiny_stream_pdf["t"].max())
        A, betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, [T])
        assert betas[0] == pytest.approx(A[0].mean())

    def test_many_checkpoints(self, tiny_stream_sdf, tiny_stream_pdf):
        """70 checkpoints, more than 63 (one long's worth of bits), the
        first before the first edge: each row is the flip-count parity of
        its prefix."""
        from repro.common import hashing

        t = tiny_stream_pdf["t"].to_numpy(np.int64)
        cps = np.linspace(t.min() - 1, t.max(), 70).round().astype(np.int64).tolist()
        A, betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, cps)
        assert A.shape == (70, PARAMS.m)
        for row, c in enumerate(cps):
            prefix = tiny_stream_pdf[t <= c]
            pos = hashing.vos_positions(
                prefix["user"].to_numpy(np.int64),
                prefix["item"].to_numpy(np.int64),
                PARAMS.k,
                PARAMS.m,
                PARAMS.seed,
            )
            expect = np.bincount(pos, minlength=PARAMS.m) & 1
            assert (A[row] == expect).all(), f"checkpoint {c}"
            assert betas[row] == A[row].mean()
        assert not A[0].any()


class TestSparseBuild:
    """``build_bit_arrays(..., at=…)``: A at the requested positions only,
    with β still counted over the whole array."""

    @pytest.fixture(scope="class")
    def cps(self, tiny_stream_pdf):
        T = int(tiny_stream_pdf["t"].max())
        return [T // 4, T // 2, (3 * T) // 4, T]

    @pytest.fixture(scope="class")
    def dense(self, tiny_stream_sdf, cps):
        return vos.build_bit_arrays(tiny_stream_sdf, PARAMS, cps)

    @pytest.fixture(scope="class")
    def touched(self, tiny_stream_pdf):
        from repro.common import hashing

        return np.unique(
            hashing.vos_positions(
                tiny_stream_pdf["user"].to_numpy(np.int64),
                tiny_stream_pdf["item"].to_numpy(np.int64),
                PARAMS.k,
                PARAMS.m,
                PARAMS.seed,
            )
        )

    def test_rows_equal_dense_rows_at_positions(self, tiny_stream_sdf, cps, dense, touched):
        A, betas = dense
        rng = np.random.default_rng(0)
        # Touched and untouched positions, both ends of A included.
        at = np.unique(np.r_[0, PARAMS.m - 1, touched[::3], rng.integers(0, PARAMS.m, 300)])
        bits, sparse_betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, cps, at=at)
        assert bits.shape == (len(cps), len(at)) and bits.dtype == np.uint8
        for row in range(len(cps)):
            assert (bits[row] == A[row, at]).all(), f"checkpoint {cps[row]}"
        assert (sparse_betas == betas).all()

    def test_every_position_equals_dense(self, tiny_stream_sdf, cps, dense):
        A, betas = dense
        bits, sparse_betas = vos.build_bit_arrays(
            tiny_stream_sdf, PARAMS, cps, at=np.arange(PARAMS.m)
        )
        assert (bits == A).all()
        assert (sparse_betas == betas).all()

    def test_untouched_positions_read_zero(self, tiny_stream_sdf, cps, dense, touched):
        untouched = np.setdiff1d(np.arange(PARAMS.m), touched)
        assert len(untouched) > 0
        bits, betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, cps, at=untouched)
        assert bits.shape == (len(cps), len(untouched))
        assert not bits.any()
        assert (betas == dense[1]).all()

    def test_checkpoint_before_first_edge(self, tiny_stream_sdf, tiny_stream_pdf, touched):
        before = int(tiny_stream_pdf["t"].min()) - 1
        for at in (None, touched):
            bits, betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, [before], at=at)
            assert not bits.any()
            assert betas[0] == 0.0

    def test_empty_stream(self, spark, tiny_stream_sdf, touched):
        empty = spark.createDataFrame([], tiny_stream_sdf.schema)
        for at in (None, touched):
            bits, betas = vos.build_bit_arrays(empty, PARAMS, [0, 10], at=at)
            width = PARAMS.m if at is None else len(touched)
            assert bits.shape == (2, width)
            assert not bits.any()
            assert (betas == 0.0).all()

    def test_beta_is_exactly_dense_mean(self, tiny_stream_sdf, cps, dense, touched):
        A, betas = dense
        _, sparse_betas = vos.build_bit_arrays(tiny_stream_sdf, PARAMS, cps, at=touched[:10])
        for row in range(len(cps)):
            assert betas[row] == A[row].mean()
            assert sparse_betas[row] == A[row].mean()

    @pytest.mark.parametrize("at", [[5, 3, 9], [3, 3, 9], [[1, 2], [3, 4]]])
    def test_rejects_unsorted_or_duplicate_positions(self, tiny_stream_sdf, at):
        with pytest.raises(ValueError):
            vos.build_bit_arrays(tiny_stream_sdf, PARAMS, [1], at=at)


class TestPandasInput:
    """A pandas frame of stream rows, hashed on the driver, builds the same
    bits and β as the same stream given to Spark."""

    @pytest.fixture(scope="class")
    def touched(self, tiny_stream_pdf):
        from repro.common import hashing

        return np.unique(
            hashing.vos_positions(
                tiny_stream_pdf["user"].to_numpy(np.int64),
                tiny_stream_pdf["item"].to_numpy(np.int64),
                PARAMS.k,
                PARAMS.m,
                PARAMS.seed,
            )
        )

    @pytest.mark.parametrize("case", ["dense", "at", "before_first_edge", "empty"])
    def test_equals_spark_input(self, spark, tiny_stream_pdf, tiny_stream_sdf, touched, case):
        T = int(tiny_stream_pdf["t"].max())
        pdf, sdf = tiny_stream_pdf, tiny_stream_sdf
        cps, at = [T // 4, T // 2, T], None
        if case == "at":
            at = touched[::2]
        elif case == "before_first_edge":
            cps = [int(tiny_stream_pdf["t"].min()) - 1, T]
        elif case == "empty":
            pdf = tiny_stream_pdf.iloc[:0]
            sdf = spark.createDataFrame([], tiny_stream_sdf.schema)
            at = touched
        before = pdf.copy()
        bits, betas = vos.build_bit_arrays(pdf, PARAMS, cps, at=at)
        ref_bits, ref_betas = vos.build_bit_arrays(sdf, PARAMS, cps, at=at)
        assert bits.dtype == ref_bits.dtype and bits.shape == ref_bits.shape
        assert (bits == ref_bits).all()
        assert (betas == ref_betas).all()
        if case == "before_first_edge":
            assert not bits[0].any() and betas[0] == 0.0
        if case == "empty":
            assert not bits.any() and (betas == 0.0).all()
        pd.testing.assert_frame_equal(pdf, before)

    def test_one_job_of_one_stage(self, spark, tiny_stream_pdf, touched):
        """The driver routes the rows by position, so the build shuffles
        nothing: one Spark job of one stage."""
        T = int(tiny_stream_pdf["t"].max())
        sc = spark.sparkContext
        group = f"vos-build-{uuid.uuid4().hex}"
        sc.setJobGroup(group, group)
        try:
            vos.build_bit_arrays(tiny_stream_pdf, PARAMS, [T], at=touched)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        # The status tracker is fed by the listener bus, which runs behind.
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = sc.statusTracker()
        stages = [list(tracker.getJobInfo(j).stageIds) for j in tracker.getJobIdsForGroup(group)]
        assert len(stages) == 1 and len(stages[0]) == 1, stages

    @pytest.mark.parametrize("n_parts", [1, 3, 7, "above_distinct"])
    def test_routing(self, spark, monkeypatch, tiny_stream_pdf, n_parts):
        """Every edge lands in exactly one position class, no position in
        two, and the build over any number of classes (empty ones included)
        equals the Spark-input build."""
        from repro.common import hashing

        pdf = tiny_stream_pdf
        if n_parts == "above_distinct":
            pdf = tiny_stream_pdf.iloc[:40]
        pos = hashing.vos_positions(
            pdf["user"].to_numpy(np.int64),
            pdf["item"].to_numpy(np.int64),
            PARAMS.k,
            PARAMS.m,
            PARAMS.seed,
        )
        t = pdf["t"].to_numpy(np.int64)
        if n_parts == "above_distinct":
            n_parts = len(np.unique(pos)) + 5

        chunks = vos._route_by_position(pos, t, n_parts)
        assert chunks.num_rows == n_parts
        chunk_pos = [np.asarray(p, np.int64) for p in chunks.column("pos").to_pylist()]
        chunk_t = [np.asarray(c, np.int64) for c in chunks.column("t").to_pylist()]
        got = np.concatenate([np.c_[p, c] for p, c in zip(chunk_pos, chunk_t)])
        want = np.c_[pos, t]
        assert (got[np.lexsort(got.T)] == want[np.lexsort(want.T)]).all()
        distinct = np.concatenate([np.unique(p) for p in chunk_pos])
        assert len(distinct) == len(np.unique(distinct)), "a position in two chunks"

        route = vos._route_by_position
        monkeypatch.setattr(vos, "_route_by_position", lambda pos, t, _: route(pos, t, n_parts))
        T = int(t.max())
        cps = [T // 3, T]
        bits, betas = vos.build_bit_arrays(pdf, PARAMS, cps)
        ref_bits, ref_betas = vos.build_bit_arrays(generator.to_spark(spark, pdf), PARAMS, cps)
        assert (bits == ref_bits).all()
        assert (betas == ref_betas).all()

    def test_never_hashes_in_spark(self, monkeypatch, tiny_stream_pdf):
        def fail(*args, **kwargs):
            raise AssertionError("with_positions called for a pandas input")

        monkeypatch.setattr(vos, "with_positions", fail)
        T = int(tiny_stream_pdf["t"].max())
        bits, _ = vos.build_bit_arrays(tiny_stream_pdf, PARAMS, [T])
        assert bits.any()


class TestRebuild:
    def test_matches_kernel_sketch(self, kernel_ref):
        users = [1, 2, 5, 17]
        mat = vos.rebuild_user_sketches(users, kernel_ref.A, PARAMS)
        for row, u in enumerate(users):
            assert (mat[row] == kernel_ref.sketch(u)).all()

    def test_shape_and_dtype(self, kernel_ref):
        mat = vos.rebuild_user_sketches([1, 2], kernel_ref.A, PARAMS)
        assert mat.shape == (2, PARAMS.k)
        assert set(np.unique(mat)) <= {0, 1}


class TestUserCounts:
    def test_counter_vs_duckdb_oracle(self, tiny_stream_sdf, tiny_stream_pdf):
        """n_u as running action sum == DuckDB aggregate."""
        spark_n = tiny_stream_sdf.groupBy("user").agg(
            F.sum("action").alias("n")
        )
        assert_equivalent(
            spark_n,
            'SELECT "user", SUM(action) AS n FROM stream GROUP BY "user"',
            stream=tiny_stream_pdf,
        )


class TestKernel:
    def test_beta_bounds(self, kernel_ref):
        assert 0 <= kernel_ref.beta < 0.5

    def test_insert_delete_roundtrip(self):
        kern = vos.VOSKernel(PARAMS)
        kern.update(3, 14, 1)
        kern.update(3, 14, -1)
        assert kern.A.sum() == 0
        assert kern.beta == 0.0
        assert kern.n[3] == 0

    def test_each_update_flips_one_bit(self):
        kern = vos.VOSKernel(PARAMS)
        prev = kern.A.copy()
        for i in range(50):
            kern.update(1, i, 1)
            assert (kern.A != prev).sum() == 1
            prev = kern.A.copy()

    def test_paper_budget(self):
        p = vos.VOSParams.paper_budget(1000, k_reg=100, lam=2)
        assert p.m == 32 * 100 * 1000
        assert p.k == 2 * 32 * 100


class TestEndToEndAccuracy:
    def test_similarity_estimate_tracks_truth(self, spark):
        """Full VOS chain on a controlled stream with deletions: the
        estimate lands near the true s (well within the odd-sketch
        error band for these parameters)."""
        params = vos.VOSParams(k=2048, m=1 << 18, seed=3)
        n, s_true = 300, 150
        su = list(range(n))
        sv = list(range(n - s_true, 2 * n - s_true))
        rows = []
        t = 1
        # interleave insertions plus some insert+delete churn noise
        for i in su:
            rows.append((t, 1, i, 1)); t += 1
        for i in sv:
            rows.append((t, 2, i, 1)); t += 1
        for i in range(5000, 5200):  # churn on another user
            rows.append((t, 3, i, 1)); t += 1
            rows.append((t, 3, i, -1)); t += 1
        pdf = pd.DataFrame(rows, columns=["t", "user", "item", "action"])
        sdf = generator.to_spark(spark, pdf)
        A, betas = vos.build_bit_arrays(sdf, params, [t])
        sk = vos.rebuild_user_sketches([1, 2], A[0], params)
        alpha = float((sk[0] != sk[1]).mean())
        s_hat = float(estimator.estimate_common(n, n, alpha, betas[0], params.k))
        assert abs(s_hat - s_true) < 35
