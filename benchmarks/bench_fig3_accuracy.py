"""Benchmark reproducing Figure 3 (Tables F3a–F3d): estimation accuracy.

One benchmarked run per dataset (the full pipeline: stream generation,
exact truth, all four methods' sketches, metrics). A collector test
prints the four tables and writes results/fig3_accuracy.csv — running

    pytest benchmarks/bench_fig3_accuracy.py --benchmark-only

regenerates the Fig 3 numbers recorded in EXPERIMENTS.md. The paper's
qualitative claims are asserted on the measured numbers: at final time
VOS has the lowest AAPE and ARMSE on every dataset and RP the highest.
"""
import pathlib

import pandas as pd
import pytest

from repro.eval import harness

DATASETS = ["youtube", "flickr", "orkut", "livejournal"]
RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

_cache: dict[str, pd.DataFrame] = {}


def _run(spark, name: str) -> pd.DataFrame:
    if name not in _cache:
        _cache[name] = harness.run_accuracy(
            spark, name, k_reg=100, n_checkpoints=10, top_n=50, seed=0
        )
    return _cache[name]


@pytest.mark.parametrize("dataset", DATASETS)
def test_accuracy_experiment(benchmark, spark, dataset):
    """Benchmarks the full per-dataset experiment (1 round — it is a
    multi-stage Spark pipeline, not a microbenchmark)."""
    out = benchmark.pedantic(_run, args=(spark, dataset), rounds=1, iterations=1)
    final = out[out["ckpt"] == out["ckpt"].max()].set_index("method")
    benchmark.extra_info["final_aape_vos"] = float(final.loc["vos", "aape"])
    # Paper shape, per dataset: VOS most accurate at final time, RP worst.
    for metric in ("aape", "armse"):
        assert final.loc["vos", metric] == final[metric].min(), (
            f"{dataset}: VOS not best on {metric}:\n{final[metric]}"
        )
        assert final.loc["rp", metric] == final[metric].max(), (
            f"{dataset}: RP not worst on {metric}:\n{final[metric]}"
        )


def test_fig3_tables(benchmark, spark, capsys):
    """Collector: assemble Tables F3a–F3d from the cached runs (the
    benchmark fixture keeps it in --benchmark-only runs; datasets are
    cached so this adds no re-computation)."""
    full = benchmark.pedantic(
        lambda: pd.concat([_run(spark, d) for d in DATASETS], ignore_index=True),
        rounds=1, iterations=1,
    )
    RESULTS.mkdir(exist_ok=True)
    full.to_csv(RESULTS / "fig3_accuracy.csv", index=False)
    last = full[full["ckpt"] == full.groupby("dataset")["ckpt"].transform("max")]
    with capsys.disabled():
        print("\n" + harness.fig3_tables(full))
    # cross-dataset shape: VOS best everywhere at final time
    pivot = last.pivot(index="dataset", columns="method", values="aape")
    assert (pivot["vos"] <= pivot.min(axis=1) + 1e-12).all()
