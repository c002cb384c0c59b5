"""spark-submit entrypoint reproducing Figure 3 (Tables F3a–F3d).

Runs the accuracy experiment (AAPE of ŝ, ARMSE of Ĵ; k_reg = 100,
λ = 2, m = 32·k_reg·|U| bits) over time on one dataset and at final
time across all datasets. Prints the four tables and writes
results/fig3_accuracy.csv.

Usage: spark-submit jobs/fig3_accuracy.py [--datasets youtube,flickr,orkut,livejournal]
       [--k-reg 100] [--top-n 50] [--checkpoints 10] [--seed 0] [--out results]
"""
import argparse
import pathlib
import sys

import pandas as pd


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--datasets", default="youtube,flickr,orkut,livejournal")
    ap.add_argument("--k-reg", type=int, default=100)
    ap.add_argument("--top-n", type=int, default=50)
    ap.add_argument("--checkpoints", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results")
    args = ap.parse_args(argv)

    from pyspark.sql import SparkSession

    from repro.eval import harness

    spark = (
        SparkSession.builder.appName("fig3-accuracy")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", "16")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")

    names = args.datasets.split(",")
    frames = [
        harness.run_accuracy(
            spark,
            name,
            k_reg=args.k_reg,
            n_checkpoints=args.checkpoints,
            top_n=args.top_n,
            seed=args.seed,
        )
        for name in names
    ]
    full = pd.concat(frames, ignore_index=True)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    full.to_csv(out / "fig3_accuracy.csv", index=False)

    print(harness.fig3_tables(full))
    return 0


if __name__ == "__main__":
    sys.exit(main())
