"""Tests for the Structured Streaming VOS operator (repro.core.streaming).

The invariant: whatever micro-batch boundaries the engine picks, the
assembled bit array is bit-exact equal to the batch (and hence the
sequential) build — xor order-independence made operational.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.common import hashing
from repro.core import streaming, vos
from repro.oracle import assert_equivalent
from repro.streams import generator

PARAMS = vos.VOSParams(k=64, m=4096, seed=7)


def _positions(pdf: pd.DataFrame) -> np.ndarray:
    return hashing.vos_positions(
        pdf["user"].to_numpy(np.int64),
        pdf["item"].to_numpy(np.int64),
        PARAMS.k,
        PARAMS.m,
        PARAMS.seed,
    )


@pytest.fixture
def state_partitions(spark):
    """Shuffle partitions of the query's state store: the session default
    unless a test parametrizes it."""
    return int(spark.conf.get("spark.sql.shuffle.partitions"))


@pytest.fixture
def stream_query(spark, tmp_path, request, state_partitions):
    """Start a query on an empty input dir with ``state_partitions``
    shuffle partitions; yield (query, input dir, sink name)."""
    indir = tmp_path / "in"
    indir.mkdir()
    name = "vos_" + "".join(c if c.isalnum() else "_" for c in request.node.name)
    default = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(state_partitions))
    q = streaming.start_query(spark, str(indir), str(tmp_path / "ck"), PARAMS, query_name=name)
    try:
        yield q, indir, name
    finally:
        q.stop()
        spark.conf.set("spark.sql.shuffle.partitions", default)


def _split(pdf: pd.DataFrame, n: int) -> list[pd.DataFrame]:
    return [pdf.iloc[idx] for idx in np.array_split(np.arange(len(pdf)), n)]


def _drop_and_drain(spark, query, indir, name, pdf, fname):
    pdf.to_parquet(indir / fname)
    query.processAllAvailable()
    return streaming.assemble_bit_array(spark, name, PARAMS)


def _assert_state_partitions(query, state_partitions):
    assert query.lastProgress["stateOperators"][0]["numShufflePartitions"] == state_partitions


class TestStreamEqualsBatch:
    @pytest.mark.parametrize("state_partitions", [8, 64])
    def test_single_drain(self, spark, tiny_stream_pdf, stream_query, state_partitions):
        """Drop every file, then drain once; the state store's partition
        count does not change the result."""
        q, indir, name = stream_query
        for i, chunk in enumerate(_split(tiny_stream_pdf, 7)):
            chunk.to_parquet(indir / f"f{i}.parquet")
        q.processAllAvailable()
        _assert_state_partitions(q, state_partitions)
        A, beta = streaming.assemble_bit_array(spark, name, PARAMS)
        T = int(tiny_stream_pdf["t"].max())
        A_batch, betas = vos.build_bit_arrays(
            generator.to_spark(spark, tiny_stream_pdf), PARAMS, [T]
        )
        assert (A == A_batch[0]).all()
        assert beta == betas[0]

    @pytest.mark.parametrize("state_partitions", [8, 64])
    def test_incremental_batches(self, spark, tiny_stream_pdf, stream_query, state_partitions):
        """Drain after each of three file drops; every intermediate state
        must equal the batch build of that prefix."""
        q, indir, name = stream_query
        self._check_prefixes(spark, tiny_stream_pdf, q, indir, name, 3)
        _assert_state_partitions(q, state_partitions)

    @pytest.mark.parametrize("n_files", [1, 3, 7])
    def test_file_splits(self, spark, tiny_stream_pdf, stream_query, n_files):
        """However the stream is split into files, draining after each
        file gives the batch build of that prefix."""
        q, indir, name = stream_query
        self._check_prefixes(spark, tiny_stream_pdf, q, indir, name, n_files)

    @staticmethod
    def _check_prefixes(spark, pdf, q, indir, name, n_files):
        T = int(pdf["t"].max())
        cuts = [round(T * (i + 1) / n_files) for i in range(n_files)]
        A_batch, betas = vos.build_bit_arrays(generator.to_spark(spark, pdf), PARAMS, cuts)
        t = pdf["t"]
        lo = 0
        for bi, hi in enumerate(cuts):
            chunk = pdf[(t > lo) & (t <= hi)]
            A, beta = _drop_and_drain(spark, q, indir, name, chunk, f"b{bi}.parquet")
            lo = hi
            assert (A == A_batch[bi]).all(), f"prefix t<={hi}"
            assert beta == betas[bi]


class TestDegenerateBatches:
    def test_empty_file_changes_nothing(self, spark, tiny_stream_pdf, stream_query):
        q, indir, name = stream_query
        half = tiny_stream_pdf.iloc[: len(tiny_stream_pdf) // 2]
        A0, beta0 = _drop_and_drain(spark, q, indir, name, half, "b0.parquet")
        assert A0.any()
        A1, beta1 = _drop_and_drain(spark, q, indir, name, half.iloc[:0], "b1.parquet")
        assert (A1 == A0).all() and beta1 == beta0

    def test_position_flipped_in_two_batches_reads_zero(
        self, spark, tiny_stream_pdf, stream_query
    ):
        """A position flipped once in each of two micro-batches reads 1
        after the first and 0 after the second: the sink holds one row
        for it, the current count 2, not the history of its counts."""
        q, indir, name = stream_query
        pos = _positions(tiny_stream_pdf)
        t = tiny_stream_pdf["t"].to_numpy()
        total = np.bincount(pos, minlength=PARAMS.m)
        # Cut just after the first flip of a position flipped exactly twice.
        p = int(np.flatnonzero(total == 2)[0])
        cut = int(t[pos == p][0])
        first = tiny_stream_pdf[t <= cut]
        assert np.count_nonzero(pos[t <= cut] == p) == 1

        A0, _ = _drop_and_drain(spark, q, indir, name, first, "b0.parquet")
        assert A0[p] == 1
        A1, beta1 = _drop_and_drain(spark, q, indir, name, tiny_stream_pdf[t > cut], "b1.parquet")
        sink = spark.table(name).where(F.col("pos") == p).toPandas()
        assert sorted(sink["flips"]) == [2]
        assert A1[p] == 0

        A_batch, betas = vos.build_bit_arrays(
            generator.to_spark(spark, tiny_stream_pdf), PARAMS, [int(t.max())]
        )
        assert (A1 == A_batch[0]).all() and beta1 == betas[0]


class TestStreamingStateOracle:
    def test_sink_vs_duckdb_oracle(self, spark, tiny_stream_pdf, stream_query):
        """After three drains, the raw sink == the flip count per position
        in DuckDB: one row per touched position, no history to fold."""
        q, indir, name = stream_query
        for i, chunk in enumerate(_split(tiny_stream_pdf, 3)):
            chunk.to_parquet(indir / f"b{i}.parquet")
            q.processAllAvailable()
        posed = tiny_stream_pdf.assign(pos=_positions(tiny_stream_pdf))
        assert_equivalent(
            spark.table(name),
            "SELECT pos, count(*) AS flips FROM posed GROUP BY pos",
            posed=posed,
        )


class TestRestart:
    def test_restart_resumes_from_checkpoint(self, spark, tiny_stream_pdf, tmp_path):
        """Drain two of three files, stop, drop the third, start again on
        the same checkpoint and name: the query reads only the new file,
        and A and β equal the batch build of the whole stream."""
        indir, ckdir, name = tmp_path / "in", str(tmp_path / "ck"), "vos_restart"
        indir.mkdir()
        chunks = _split(tiny_stream_pdf, 3)
        cuts = [int(chunks[1]["t"].max()), int(tiny_stream_pdf["t"].max())]
        A_batch, betas = vos.build_bit_arrays(
            generator.to_spark(spark, tiny_stream_pdf), PARAMS, cuts
        )

        q = streaming.start_query(spark, str(indir), ckdir, PARAMS, query_name=name)
        try:
            for i in range(2):
                chunks[i].to_parquet(indir / f"b{i}.parquet")
            q.processAllAvailable()
            A, beta = streaming.assemble_bit_array(spark, name, PARAMS)
            assert (A == A_batch[0]).all() and beta == betas[0]
        finally:
            q.stop()

        chunks[2].to_parquet(indir / "b2.parquet")
        q = streaming.start_query(spark, str(indir), ckdir, PARAMS, query_name=name)
        try:
            q.processAllAvailable()
            A, beta = streaming.assemble_bit_array(spark, name, PARAMS)
            assert (A == A_batch[1]).all() and beta == betas[1]
            assert q.lastProgress["numInputRows"] == len(chunks[2])
        finally:
            q.stop()


    def test_restart_without_new_file_raises(self, spark, tiny_stream_pdf, tmp_path):
        """Started again with no new file, the query runs no batch, so
        the complete-mode sink is empty while the state is not: reading
        it raises instead of returning A = 0, β = 0. A new file (even an
        empty one) runs a batch that refills the sink with the state."""
        indir, ckdir, name = tmp_path / "in", str(tmp_path / "ck"), "vos_idle_restart"
        indir.mkdir()
        q = streaming.start_query(spark, str(indir), ckdir, PARAMS, query_name=name)
        try:
            A0, beta0 = _drop_and_drain(spark, q, indir, name, tiny_stream_pdf, "b0.parquet")
            assert A0.any()
        finally:
            q.stop()

        q = streaming.start_query(spark, str(indir), ckdir, PARAMS, query_name=name)
        try:
            q.processAllAvailable()
            with pytest.raises(RuntimeError, match=name):
                streaming.assemble_bit_array(spark, name, PARAMS)
            empty = tiny_stream_pdf.iloc[:0]
            A1, beta1 = _drop_and_drain(spark, q, indir, name, empty, "b1.parquet")
            assert (A1 == A0).all() and beta1 == beta0
        finally:
            q.stop()


class TestAssemble:
    def test_empty_table_gives_zero_array(self, spark, stream_query):
        q, _, name = stream_query
        q.processAllAvailable()
        A, beta = streaming.assemble_bit_array(spark, name, PARAMS)
        assert A.sum() == 0 and beta == 0.0
