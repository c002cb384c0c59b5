"""Driver-side spans around the public layer functions, installed from outside.

``Tracer.install`` replaces module attributes (``vos.build_bit_arrays``,
``exact.select_tracked``, ...) with wrappers that open a span per call.
The program calls these functions through their modules, so the wrappers
see every driver-side call; executor work (UDF and ``applyInPandas``
bodies) runs in Python workers that import the modules afresh and is
seen only as Spark job counts and the bytes collected back.

A span records name, start, end, parent span and the run id. Spans stay
in memory until ``write``. Besides timing, three wrappers record counts;
the time they spend on it is the tracer's, not the program's, so it is
taken out of every open span (``paused``) and shows only as overhead:

* ``DataFrame.toPandas`` adds the rows and bytes it brings to the driver
  to the innermost open span (collect accounting per layer);
* ``estimator.estimate_common`` recomputes with ``clamp=False`` and
  counts pairs the clamp changed and pairs whose α or β hit the ε-floor;
* ``metrics.aape`` keeps the signed mean error of ŝ for each call.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
import uuid
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span recorder; active only between ``install`` and ``restore``."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[dict] = []
        self.signed_errors: list[float] = []
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    @contextmanager
    def span(self, name: str):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "paused": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def untimed(self):
        """Tracer bookkeeping: its time is taken out of every open span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            for rec in self._stack:
                rec["paused"] += dt

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def wrap(self, owner, attr: str, layer: str, by: str | None = None, record=None) -> None:
        """Span every call of ``owner.attr`` as ``layer.attr``.

        ``by`` names an argument whose value is appended to the span name;
        ``record`` maps the return value to counts stored on the span.
        """
        sig = inspect.signature(getattr(owner, attr))
        tracer = self

        def wrapper(fn):
            def call(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                name = f"{layer}.{attr}"
                if by is not None:
                    name += "." + str(sig.bind(*args, **kwargs).arguments[by])
                with tracer.span(name) as rec:
                    out = fn(*args, **kwargs)
                    if record is not None:
                        rec.update(record(out))
                    return out

            return call

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer function the benchmark reports on."""
        from pyspark.sql.classic.dataframe import DataFrame

        from repro.baselines import driver, exact, minhash, oph, rp
        from repro.core import estimator, streaming, vos
        from repro.eval import harness, metrics
        from repro.streams import datasets, generator

        self.wrap(datasets, "make_stream", "streams")
        self.wrap(generator, "to_spark", "streams")
        self.wrap(exact, "select_tracked", "exact")
        self.wrap(exact, "exact_over_time", "exact")
        self.wrap(driver, "sketch_snapshots", "driver", by="method")
        self.wrap(driver, "snapshots_to_matrix", "driver")
        self.wrap(vos, "build_bit_arrays", "vos", record=lambda out: {"bit_matrix_bytes": out[0].nbytes})
        self.wrap(vos, "rebuild_user_sketches", "vos")
        self.wrap(estimator, "pair_alpha", "estimator")
        self.wrap(streaming, "start_query", "streaming")
        self.wrap(streaming, "assemble_bit_array", "streaming")
        self.wrap(harness, "run_accuracy", "harness")
        self.wrap(harness, "estimate_vos", "harness")
        self.wrap(harness, "estimate_baseline", "harness", by="method")
        # The harness looks the baseline estimators up in a dict filled at
        # import time, so the dict entries are what must be replaced.
        for method, mod in (("minhash", minhash), ("oph", oph), ("rp", rp)):
            original = mod.estimate_pairs
            self.wrap(mod, "estimate_pairs", f"baselines.{method}")
            harness._BASELINE_ESTIMATORS[method] = mod.estimate_pairs
            self._patches.append((harness._BASELINE_ESTIMATORS, method, original))
        self._wrap_estimate_common(estimator)
        self._wrap_aape(metrics)
        self._wrap_collect(DataFrame)
        self.active = True

    def _wrap_estimate_common(self, estimator) -> None:
        tracer = self

        def wrapper(fn):
            def call(n_u, n_v, alpha, beta, k, *, clamp=True):
                if not tracer.active:
                    return fn(n_u, n_v, alpha, beta, k, clamp=clamp)
                with tracer.span("estimator.estimate_common") as rec:
                    out = fn(n_u, n_v, alpha, beta, k, clamp=clamp)
                with tracer.untimed():
                    raw = fn(n_u, n_v, alpha, beta, k, clamp=False)
                    a = np.abs(1.0 - 2.0 * np.asarray(alpha, np.float64))
                    b = np.abs(1.0 - 2.0 * np.asarray(beta, np.float64))
                    floor = (a < estimator._EPS) | (b < estimator._EPS)
                    rec["pairs"] = int(np.size(out))
                    rec["clamped"] = int(np.sum(raw != out))  # NaN counts as clamped
                    rec["eps_floor"] = int(np.sum(np.broadcast_to(floor, np.shape(out))))
                    return out

            return call

        self._patch(estimator, "estimate_common", wrapper)

    def _wrap_aape(self, metrics) -> None:
        tracer = self

        def wrapper(fn):
            def call(true_s, est_s):
                if tracer.active:
                    with tracer.untimed():
                        t = np.asarray(true_s, np.float64)
                        e = np.asarray(est_s, np.float64)
                        tracer.signed_errors.append(float(np.mean(e - t)) if t.size else 0.0)
                return fn(true_s, est_s)

            return call

        self._patch(metrics, "aape", wrapper)

    def _wrap_collect(self, DataFrame) -> None:
        tracer = self

        def wrapper(fn):
            def call(df, *args, **kwargs):
                pdf = fn(df, *args, **kwargs)
                if tracer.active and tracer._stack:
                    with tracer.untimed():
                        rec = tracer._stack[-1]
                        rec["collect_rows"] = rec.get("collect_rows", 0) + len(pdf)
                        rec["collect_bytes"] = rec.get("collect_bytes", 0) + frame_bytes(pdf)
                return pdf

            return call

        self._patch(DataFrame, "toPandas", wrapper)

    def restore(self) -> None:
        """Put every original attribute back (reverse order)."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}, indent=0))


def frame_bytes(pdf) -> int:
    """Data bytes of a collected frame, counting array cells by their data
    (Arrow-backed arrays are views, so ``memory_usage`` sees only headers)."""
    total = 0
    for col in pdf.columns:
        values = pdf[col].to_numpy()
        if values.dtype == object:
            total += sum(int(np.asarray(v).nbytes) for v in values)
        else:
            total += values.nbytes
    return total


def duration(span: dict) -> float:
    """The program's time in a span: end − start minus the tracer's own work."""
    return span["end"] - span["start"] - span["paused"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → duration minus the durations of its direct children.

    Children run nested in the same thread, so their intervals are
    disjoint and summing them gives the covered time.
    """
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - child[s["id"]] for s in spans}


def span_totals(spans: list[dict]) -> dict[str, float]:
    """Per-name totals: ``<name>_s`` (inclusive), ``<name>_self_s``, and the
    collect rows/bytes and other counts summed over spans of each name."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        n = s["name"]
        out[f"{n}_s"] = out.get(f"{n}_s", 0.0) + duration(s)
        out[f"{n}_self_s"] = out.get(f"{n}_self_s", 0.0) + selfs[s["id"]]
        for key in ("collect_rows", "collect_bytes", "bit_matrix_bytes", "pairs", "clamped", "eps_floor"):
            if key in s:
                out[f"{n}.{key}"] = out.get(f"{n}.{key}", 0) + s[key]
    return out


def spark_counts(sc, groups) -> dict[str, int]:
    """Jobs, stages and tasks the status tracker knows for these job groups."""
    tracker = sc.statusTracker()
    jobs = stages = tasks = 0
    for g in groups:
        for jid in tracker.getJobIdsForGroup(g):
            info = tracker.getJobInfo(jid)
            if info is None:
                continue
            jobs += 1
            for sid in info.stageIds:
                st = tracker.getStageInfo(sid)
                if st is not None:
                    stages += 1
                    tasks += st.numTasks
    return {"spark.jobs": jobs, "spark.stages": stages, "spark.tasks": tasks}
