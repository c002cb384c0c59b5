"""VOS as a Structured Streaming aggregation.

This is the distributed-dataflow form of the paper's algorithm: edge
events (user, item, action) arrive on a stream; each event must be
absorbed into the shared bit array A with O(1) work and the sketch must
be queryable at any time.

Every edge flips one bit, A[f_ψ(item)(user)], and flips commute, so A at
any time is the parity of the number of flips each position has seen —
the same argument the paper makes for order-independence of A, and the
one the batch build uses (``prefix.prefix_parity``). The stream is
hashed to positions with the same ``pandas_udf`` the batch build uses
for a Spark stream (``vos.with_positions``) and fed through Spark's
built-in streaming ``groupBy("pos").count()``:
its state is one row per touched position holding that position's flip
count, a micro-batch with e edges updates at most e state rows, and the
stateful stage runs no Python. The result is bit-exact equal to the
sequential algorithm regardless of how the engine batches or orders
events.

Output. In ``complete`` mode each micro-batch rewrites the memory sink
with the whole state, one (pos, flips) row per touched position, so the
sink is the state and not its history. ``assemble_bit_array`` scatters
it into A[pos] = flips & 1 and β = A.mean(), the 1-bit fraction the
paper's running β counter tracks. Complete mode is also the one in which
the memory sink recovers from its checkpoint, so a stopped query can be
started again on the same checkpoint and resumes where it stopped.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..streams.generator import STREAM_SCHEMA
from . import vos


def start_query(
    spark: SparkSession,
    input_dir: str,
    checkpoint_dir: str,
    params: vos.VOSParams,
    *,
    n_buckets: int = 64,
    query_name: str = "vos_updates",
):
    """Start the streaming VOS build over a parquet file source.

    New parquet files dropped into ``input_dir`` (STREAM_SCHEMA rows)
    update the per-position flip counts; call
    ``query.processAllAvailable()`` to drain, then
    ``assemble_bit_array`` to materialise (A, β). Started again with the
    same ``checkpoint_dir`` and ``query_name`` after a stop, the query
    resumes from its checkpoint and reads only files it has not seen.
    The restarted sink is empty until the first new micro-batch refills
    it with the whole state. ``n_buckets`` has no effect; it is accepted
    so existing callers keep working.
    """
    edges = spark.readStream.schema(STREAM_SCHEMA).parquet(input_dir)
    flips = (
        vos.with_positions(edges, params)
        .groupBy("pos")
        .agg(F.count(F.lit(1)).alias("flips"))
    )
    return (
        flips.writeStream.format("memory")
        .queryName(query_name)
        .outputMode("complete")
        .option("checkpointLocation", checkpoint_dir)
        .start()
    )


def assemble_bit_array(
    spark: SparkSession, query_name: str, params: vos.VOSParams, n_buckets: int = 64
) -> tuple[np.ndarray, float]:
    """Scatter the memory sink, one (pos, flips) row per touched position,
    into (A, β) with A[pos] = flips & 1. ``n_buckets`` has no effect; it
    is accepted so existing callers keep working."""
    sink = spark.table(query_name).toPandas()
    A = np.zeros(params.m, dtype=np.uint8)
    A[sink["pos"].to_numpy(np.int64)] = sink["flips"].to_numpy(np.int64) & 1
    return A, float(A.mean())
