"""Benchmark entry point: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload fig3-livejournal --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke            # every workload once on 'tiny'

Run from anywhere inside a checkout that has ``src/repro``; the program is
imported from that source tree and everything the run writes goes under
``.bench_build/perfbench`` in the checkout.

A run: start the Spark session (this launches the JVM); prepare the
workload's inputs several times and take the median; run the untimed
warm-up; then run timed operations until ``--seconds`` have
passed (at least one); check every operation's output. ``setup_s`` is
session start plus median preparation plus warm-up: the median keeps one
slow preparation on a loaded host out of it; the cold first preparation
is reported per layer as ``setup.prep_cold_s``. With ``--trace 1`` the
timed loop runs once untraced and once more under the span tracer, and
per-layer metrics are reported instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name → value and unit).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 3
KERNEL_PROBE_S = 3  # seconds of kernel rounds in a traced run
VOS_KMS = (6400, 1 << 21, 7)  # VOS k, m, seed as runtime.make_runner sets it up
DRIVER_MEMORY = "2g"
# As jobs/stream_demo.py sets it: the stream workload's micro-batch time
# depends mostly on this count.
SHUFFLE_PARTITIONS = 16


def master() -> str:
    return f"local[{len(os.sched_getaffinity(0))}]"


def spark_settings() -> dict[str, str]:
    """The pinned session settings (recorded in the README)."""
    return {
        "spark.master": master(),
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.driver.host": "127.0.0.1",
        "spark.local.dir": str(OUT / "spark-local"),
        "spark.sql.warehouse.dir": str(OUT / "warehouse"),
    }


def pin_environment() -> None:
    """Point the JVM, the Python workers and temp files at the checkout.

    Must run before pyspark launches the JVM: master, driver memory and
    JVM options are read only at launch.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # No bytecode caches next to the sources: a run leaves src/ untouched.
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master()} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "pyspark-shell"
    )
    sys.path.insert(0, str(ROOT / "src"))


def start_spark():
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in spark_settings().items():
        if key not in ("spark.master", "spark.driver.memory"):
            builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway server exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def median(values) -> float:
    return float(statistics.median(values))


# End-to-end metrics, reported by every untraced run.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "edges_per_s": "1/s",
    "driver_rss_peak_mb": "MB",
}

# Per-layer metrics, reported by every traced run; 0 where the workload
# bypasses the layer.
PER_LAYER = {
    "setup.session_s": "s",
    "setup.prep_s": "s",
    "setup.prep_cold_s": "s",
    "setup.warmup_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "streams.make_stream_s": "s",
    "streams.to_spark_s": "s",
    "driver.sketch_snapshots_s.minhash": "s",
    "driver.sketch_snapshots_s.oph": "s",
    "driver.sketch_snapshots_s.rp": "s",
    "driver.snapshots_to_matrix_s": "s",
    "driver.collect_rows": "count",
    "driver.collect_bytes": "B",
    "baselines.estimate_pairs_s": "s",
    "exact.select_tracked_s": "s",
    "exact.exact_over_time_s": "s",
    "exact.collect_rows": "count",
    "exact.collect_bytes": "B",
    "vos.build_bit_arrays_s": "s",
    "vos.collect_rows": "count",
    "vos.collect_bytes": "B",
    "vos.bit_matrix_bytes": "B",
    "vos.rebuild_user_sketches_s": "s",
    "estimator.estimate_common_s": "s",
    "estimator.pair_alpha_s": "s",
    "estimator.clamped_share": "ratio",
    "estimator.eps_floor_share": "ratio",
    "harness.run_accuracy_self_s": "s",
    "harness.estimate_vos_self_s": "s",
    "harness.estimate_baseline_self_s": "s",
    "streaming.start_query_s": "s",
    "streaming.drain_s": "s",
    "streaming.add_batch_ms": "ms",
    "streaming.trigger_ms": "ms",
    "streaming.wal_commit_ms": "ms",
    "streaming.input_rows": "count",
    "streaming.rows_updated": "count",
    "streaming.state_rows": "count",
    "streaming.state_bytes": "B",
    "streaming.sink_rows": "count",
    "streaming.assemble_s": "s",
    "streaming.assemble_collect_bytes": "B",
    "batch_p50_ms": "ms",
    "query_p50_ms": "ms",
    "batches": "count",
    "hashing.vos_positions_ns_per_edge": "ns",
    "kernel.vos.hash_us": "us",
    "kernel.vos.rest_us": "us",
    "kernel.minhash.hash_us": "us",
    "update_us.vos": "us",
    "update_us.oph": "us",
    "update_us.minhash": "us",
    "update_us.rp": "us",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "vos_aape_final": "ratio",
    "vos_armse_final": "ratio",
    "signed_err.vos": "items",
    "signed_err.minhash": "items",
    "signed_err.oph": "items",
    "signed_err.rp": "items",
}


def run_ops(wl, spark, seconds: float, errors: list, tracer=None) -> list[dict]:
    """Timed operations until ``seconds`` have passed; stop at the first error."""
    ops: list[dict] = []
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < seconds:
        # Each operation starts on collected heaps, so a collection left
        # over from earlier work does not land in some runs and not others.
        gc.collect()
        spark._jvm.System.gc()
        try:
            ops.append(wl.run_op(spark, tracer))
        except Exception:  # one failed operation; report it, keep what ran
            errors.append(traceback.format_exc())
            break
    return ops


def loop_us(fn, args) -> float:
    """One loop of ``fn`` over zipped ``args``, µs per call."""
    t0 = time.perf_counter()
    for a in zip(*args):
        fn(*a)
    return 1e6 * (time.perf_counter() - t0) / len(args[0])


def kernel_probe(args, errors: list) -> tuple[dict, list[list[str]]]:
    """The per-edge kernel layer, single-threaded and without Spark.

    ``runtime.make_runner`` loops (VOS at k = 6400; OPH, MinHash, RP at
    k = 100) over a youtube prefix from the run's seed, as the fastest of
    several short rounds, plus the hash costs inside them. Returns the
    per-layer metrics and one failure list per kernel loop.
    """
    import workloads

    from repro.common import hashing
    from repro.eval import runtime

    arrays = runtime.stream_arrays(
        "tiny" if args.smoke else "youtube", n_edges=300 if args.smoke else 600, seed=args.seed
    )
    users, items, _ = (a.tolist() for a in arrays)
    k, m, seed = VOS_KMS
    # Each round also times the scalar hash call VOSKernel.update makes and
    # MinHash's O(k) hash vector, so the hash and the rest of the update
    # (bit flip, counters) come from the same stretch of time.
    rounds, vos_hash, minhash_hash = [], [], []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < (0 if args.smoke else KERNEL_PROBE_S):
        try:
            rounds.append(workloads.kernel_round(arrays))
        except Exception:  # a failed kernel loop; report it
            errors.append(traceback.format_exc())
            return {}, []
        vos_hash.append(loop_us(lambda u, i: hashing.vos_positions([u], [i], k, m, seed), [users, items]))
        minhash_hash.append(
            loop_us(lambda i: hashing.minhash_values(i, workloads.KERNEL_SIZES["minhash"], seed), [items])
        )
    # Fastest loop per method: single-threaded loops swing with the host's
    # load, and the fastest of many short rounds is the stable estimate.
    out = {f"update_us.{m}": min(r["update_us"][m] for r in rounds) for m in workloads.KERNEL_SIZES}
    out["kernel.vos.hash_us"] = min(vos_hash)
    out["kernel.vos.rest_us"] = out["update_us.vos"] - min(vos_hash)
    out["kernel.minhash.hash_us"] = min(minhash_hash)
    return out, workloads.kernel_failures(arrays, rounds)


def vectorised_hash_ns(stream) -> float:
    """Vectorised ``hashing.vos_positions`` over the workload's edges, ns/edge."""
    import numpy as np

    from repro.common import hashing

    users = stream["user"].to_numpy(np.int64)
    items = stream["item"].to_numpy(np.int64)
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        hashing.vos_positions(users, items, *VOS_KMS)
        runs.append(time.perf_counter() - t0)
    return 1e9 * min(runs) / users.size


def layer_metrics(wl, traced: list[dict], tracer, spark) -> dict:
    """Per-layer metrics of the traced operations."""
    import tracing

    spans = tracer.spans
    by_name = tracing.span_totals(spans)
    out = {name: 0.0 for name in PER_LAYER}

    def total(prefix: str, suffix: str) -> float:
        return sum(v for k, v in by_name.items() if k.startswith(prefix) and k.endswith(suffix))

    for name in (
        "streams.make_stream_s", "streams.to_spark_s", "driver.snapshots_to_matrix_s",
        "exact.select_tracked_s", "exact.exact_over_time_s", "vos.build_bit_arrays_s",
        "vos.rebuild_user_sketches_s", "estimator.estimate_common_s", "estimator.pair_alpha_s",
        "harness.run_accuracy_self_s", "harness.estimate_vos_self_s",
        "streaming.start_query_s", "streaming.drain_s",
    ):
        out[name] = by_name.get(name, 0.0)
    for method in ("minhash", "oph", "rp"):
        out[f"driver.sketch_snapshots_s.{method}"] = by_name.get(f"driver.sketch_snapshots.{method}_s", 0.0)
    out["harness.estimate_baseline_self_s"] = total("harness.estimate_baseline.", "_self_s")
    out["baselines.estimate_pairs_s"] = total("baselines.", ".estimate_pairs_s")
    for layer in ("driver", "exact", "vos"):
        for what in ("collect_rows", "collect_bytes"):
            out[f"{layer}.{what}"] = total(f"{layer}.", f".{what}")
    out["vos.bit_matrix_bytes"] = by_name.get("vos.build_bit_arrays.bit_matrix_bytes", 0)
    pairs = by_name.get("estimator.estimate_common.pairs", 0)
    if pairs:
        out["estimator.clamped_share"] = by_name["estimator.estimate_common.clamped"] / pairs
        out["estimator.eps_floor_share"] = by_name["estimator.estimate_common.eps_floor"] / pairs
    assemble = [s for s in spans if s["name"] == "streaming.assemble_bit_array"]
    if assemble:
        out["streaming.assemble_s"] = median(tracing.duration(s) for s in assemble)
        out["streaming.assemble_collect_bytes"] = median(s.get("collect_bytes", 0) for s in assemble)
    op = traced[-1]
    if "progress" in op:
        prog = [p for p in op["progress"] if p.numInputRows > 0]
        out["streaming.add_batch_ms"] = median(p.durationMs.get("addBatch", 0) for p in prog)
        out["streaming.trigger_ms"] = median(p.durationMs.get("triggerExecution", 0) for p in prog)
        out["streaming.wal_commit_ms"] = median(p.durationMs.get("walCommit", 0) for p in prog)
        out["streaming.input_rows"] = sum(p.numInputRows for p in prog)
        out["streaming.rows_updated"] = sum(p.stateOperators[0].numRowsUpdated for p in prog)
        out["streaming.state_rows"] = prog[-1].stateOperators[0].numRowsTotal
        out["streaming.state_bytes"] = prog[-1].stateOperators[0].memoryUsedBytes
        out["streaming.sink_rows"] = op["sink_rows"]
    out.update(wl.report(traced))
    methods = getattr(wl, "methods", ())
    if tracer.signed_errors and methods:
        n = wl.n_checkpoints
        for mi, method in enumerate(methods):
            out[f"signed_err.{method}"] = tracer.signed_errors[mi * n + n - 1]
    out.update(tracing.spark_counts(spark.sparkContext, [tracer.run_id] + op.get("job_groups", [])))
    out["trace.spans"] = len(spans)
    return out


def run_one(args) -> int:
    import tracing
    import workloads

    workdir = OUT / f"run-{os.getpid()}"
    wl = workloads.make(args.workload, args.smoke, workdir, ROOT / "results" / "fig3_accuracy.csv")
    reps = 1 if args.smoke else SETUP_REPS

    t0 = time.perf_counter()
    spark = start_spark()
    try:
        session_s = time.perf_counter() - t0
        preps = []
        for _ in range(reps):
            t0 = time.perf_counter()
            wl.prepare(spark, args.seed)
            preps.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.warmup(spark)
        warmup_s = time.perf_counter() - t0
        setup_s = session_s + median(preps) + warmup_s

        errors: list[str] = []
        traced: list[dict] = []
        ops = run_ops(wl, spark, args.seconds, errors)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace and not errors:
            # The same loop again under the tracer; the untraced loop above
            # is the baseline for the tracing overhead.
            tracer = tracing.Tracer()
            spark.sparkContext.setJobGroup(tracer.run_id, args.workload)
            tracer.install()
            try:
                traced = run_ops(wl, spark, args.seconds, errors, tracer)
            finally:
                tracer.restore()
                spark.sparkContext.setLocalProperty("spark.jobGroup.id", None)

        checked = ops + traced
        failures = wl.check(spark, checked) if checked else []
        if args.trace and not errors:
            kernels, kernel_failures = kernel_probe(args, errors)
            failures += kernel_failures
        attempted = len(failures) + len(errors)
        failed = sum(1 for f in failures if f) + len(errors)
        for msg in errors + [m for f in failures for m in f]:
            print(f"perfbench: FAILED: {msg}", file=sys.stderr)

        if args.trace and traced and not errors:
            metrics = layer_metrics(wl, traced, tracer, spark)
            metrics["setup.session_s"] = session_s
            metrics["setup.prep_s"] = median(preps)
            metrics["setup.prep_cold_s"] = preps[0]
            metrics["setup.warmup_s"] = warmup_s
            untraced_wall = wl.end_to_end(ops)["wall_s"]
            traced_wall = wl.end_to_end(traced)["wall_s"]
            metrics["trace.untraced_wall_s"] = untraced_wall
            metrics["trace.traced_wall_s"] = traced_wall
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
            metrics.update(kernels)
            metrics["hashing.vos_positions_ns_per_edge"] = vectorised_hash_ns(wl.stream)
            tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}-{tracer.run_id}.json")
            print_self_times(tracer.spans)
            units = PER_LAYER
        elif ops and not args.trace:
            metrics = {"setup_s": setup_s, **wl.end_to_end(ops), "driver_rss_peak_mb": rss_mb}
            units = END_TO_END
            report = wl.report(ops)
            report["error_rate"] = failed / attempted
            report["operations"] = len(ops)
            print(f"perfbench: {args.workload} seed={args.seed} workload numbers:")
            for key, value in report.items():
                print(f"  {key:<28} {value:.6g}")
        else:
            metrics, units = {}, {}
    finally:
        stop_spark(spark)
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace}:")
    for key, value in metrics.items():
        print(f"  {key:<36} {value:.6g} {units[key]}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def print_self_times(spans) -> None:
    """Self time per span name: where the traced operation's time went."""
    import tracing

    selfs = tracing.self_times(spans)
    per: dict[str, float] = {}
    for s in spans:
        per[s["name"]] = per.get(s["name"], 0.0) + selfs[s["id"]]
    print("perfbench: self time by span")
    for name, secs in sorted(per.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<44} {secs:9.4f} s")


def run_smoke() -> int:
    """Every workload once on the tiny dataset, untraced and traced."""
    import workloads

    bad = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", "0",
                   "--seconds", "0", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            ok = proc.returncode == 0 and last.startswith("{") and json.loads(last)["correct"]
            bad += not ok
            print(f"{name} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                print(proc.stdout[-2000:], proc.stderr[-4000:], sep="\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny dataset, one set-up")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    pin_environment()
    if args.workload is None:
        if not args.smoke:
            ap.error("--workload is required (or --smoke to run all on 'tiny')")
        return run_smoke()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
