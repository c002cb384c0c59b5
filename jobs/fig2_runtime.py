"""spark-submit entrypoint reproducing Figure 2 (Tables F2a/F2b).

Per-edge sketch-update time for VOS / OPH / MinHash / RP as the sketch
size k sweeps 1..10^5 on the youtube-lite dynamic stream. Prints both
tables and writes results/fig2_runtime.csv.

Usage: spark-submit jobs/fig2_runtime.py [--dataset youtube]
       [--ks 1,10,100,1000,10000,100000] [--out results]

(The measurement itself is single-threaded on the driver — the paper's
quantity is per-edge update complexity, not cluster throughput — but
the entrypoint keeps the standard spark-submit shape.)
"""
import argparse
import pathlib
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="youtube")
    ap.add_argument("--ks", default="1,10,100,1000,10000,100000")
    ap.add_argument("--out", default="results")
    args = ap.parse_args(argv)

    from repro.eval import runtime

    ks = [int(x) for x in args.ks.split(",")]
    table = runtime.runtime_sweep(ks=ks, dataset=args.dataset)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "fig2_runtime.csv", index=False)

    print(runtime.fig2_tables(table, args.dataset))
    return 0


if __name__ == "__main__":
    sys.exit(main())
