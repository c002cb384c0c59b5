"""spark-submit entrypoint: VOS as a live Structured Streaming operator.

Generates a dataset's fully dynamic stream, feeds it to the stateful
VOS operator in micro-batches of parquet files, and after each drain
prints the query's last progress (input rows, trigger time, state rows
and bytes), β and the VOS similarity estimates of the top tracked pair —
the "estimate similarities over time from the sketch built on-the-fly"
workflow of the paper.

Usage: spark-submit jobs/stream_demo.py [--dataset tiny] [--batches 5]
"""
import argparse
import os
import sys
import tempfile


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="tiny")
    ap.add_argument("--batches", type=int, default=5)
    ap.add_argument("--k-reg", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    from pyspark.sql import SparkSession

    from repro.baselines import exact
    from repro.core import estimator, streaming, vos
    from repro.streams import datasets

    # A running session (a caller's, or the tests') is used as it is; the
    # job's settings go only on a session it starts itself.
    spark = SparkSession.getActiveSession()
    if spark is None:
        spark = (
            SparkSession.builder.appName("vos-stream-demo")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.shuffle.partitions", "16")
            .getOrCreate()
        )
        spark.sparkContext.setLogLevel("ERROR")

    stream, spec = datasets.make_stream(args.dataset, seed=args.seed)
    total = len(stream)
    params = vos.VOSParams.paper_budget(spec.n_users, k_reg=args.k_reg)
    # The tracked users' rows, filtered from the driver's frame, feed the
    # selection and the truth; the streaming query is the only Spark work.
    rows = exact.tracked_rows(stream, exact.top_users(stream, 10))
    users, pairs = exact.select_tracked(rows, top_n=10)
    pairs = pairs.sort_values("s_final", ascending=False)
    u, v = int(pairs.iloc[0]["u"]), int(pairs.iloc[0]["v"])
    print(f"[demo] dataset={args.dataset} stream={total} edges, "
          f"m={params.m} bits, k={params.k}; tracking pair ({u},{v})")

    with tempfile.TemporaryDirectory() as tmp:
        indir, ckdir = f"{tmp}/in", f"{tmp}/ck"
        os.makedirs(indir)
        query = streaming.start_query(spark, indir, ckdir, params, query_name="vos_demo")
        cuts = [round(total * (i + 1) / args.batches) for i in range(args.batches)]
        truths = exact.exact_over_time(rows, [u, v], pairs.iloc[[0]], cuts)
        lo = 0
        for bi, hi in enumerate(cuts):
            chunk = stream[(stream["t"] > lo) & (stream["t"] <= hi)]
            chunk.to_parquet(f"{indir}/batch{bi:03d}.parquet")
            lo = hi
            query.processAllAvailable()
            prog = query.lastProgress
            state = prog.stateOperators[0]
            print(
                f"[demo] progress input_rows={prog.numInputRows} "
                f"trigger_ms={prog.durationMs['triggerExecution']} "
                f"state_rows={state.numRowsTotal} "
                f"state_bytes={state.memoryUsedBytes}"
            )
            A, beta = streaming.assemble_bit_array(spark, "vos_demo", params)
            truth = truths.iloc[bi]
            sk = vos.rebuild_user_sketches([u, v], A, params)
            alpha = float(estimator.pair_alpha(sk[0], sk[1]))
            s_hat = float(
                estimator.estimate_common(truth["n_u"], truth["n_v"], alpha, beta, params.k)
            )
            print(
                f"[demo] t={hi:>8} beta={beta:.4f} "
                f"s_true={int(truth['s']):>5} s_hat={s_hat:8.1f} "
                f"J_true={truth['j']:.3f} "
                f"J_hat={float(estimator.jaccard_from_common(s_hat, truth['n_u'], truth['n_v'])):.3f}"
            )
        query.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
