"""The benchmark's workloads: repeatable set-up, one timed operation, checks.

Each workload object has

* ``prepare(spark, seed)`` — builds the inputs from the seed; run several
  times during set-up;
* ``warmup(spark)`` — untimed calls that warm the operation's code paths;
* ``run_op(spark, tracer)`` — one timed operation; returns its record;
* ``end_to_end(ops)`` — ``wall_s`` and ``edges_per_s`` over the run's
  operations, as this workload defines them;
* ``check(spark, ops)`` — correctness outside the timed region; returns
  one list of failure messages per counted operation;
* ``report(ops)`` — the workload's own user-visible numbers, printed by
  name and exported as per-layer metrics.

``kernel_round`` and ``kernel_failures`` serve the per-edge kernel probe of
traced runs, which is a layer, not a workload.

Workloads call the program only through its public module functions.
"""
from __future__ import annotations

import hashlib
import inspect
import itertools
import os
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pandas as pd

from repro import oracle
from repro.baselines import exact
from repro.common import hashing
from repro.core import estimator, streaming, vos
from repro.eval import harness, metrics, runtime
from repro.streams import datasets, generator

K_REG = 100
LAM = 2
TOP_N = 50
N_BUCKETS = 64


def median(values) -> float:
    return float(statistics.median(values))


@contextmanager
def capturing(owner, attr: str, store: dict):
    """Keep the last return value of ``owner.attr`` in ``store`` (no timing)."""
    fn = getattr(owner, attr)

    def call(*args, **kwargs):
        out = fn(*args, **kwargs)
        store[attr] = out
        return out

    setattr(owner, attr, call)
    try:
        yield
    finally:
        setattr(owner, attr, fn)


def span(tracer, name: str):
    """A tracer span in traced runs, nothing otherwise."""
    return nullcontext() if tracer is None else tracer.span(name)


def final_truth_sql(t_end: int) -> str:
    """DuckDB: exact s, n_u, n_v at time ``t_end`` for every row of ``pairs``."""
    return f"""
    WITH tracked AS (SELECT u AS "user" FROM pairs UNION SELECT v FROM pairs),
    p AS (
        SELECT "user", item FROM stream
        WHERE t <= {int(t_end)} AND "user" IN (SELECT "user" FROM tracked)
        GROUP BY "user", item HAVING count(*) % 2 = 1),
    n AS (SELECT "user", count(*) AS n FROM p GROUP BY "user"),
    s AS (
        SELECT a."user" AS u, b."user" AS v, count(*) AS s
        FROM p a JOIN p b ON a.item = b.item AND a."user" < b."user"
        GROUP BY a."user", b."user")
    SELECT pairs.u, pairs.v, coalesce(s.s, 0) AS s,
           coalesce(nu.n, 0) AS n_u, coalesce(nv.n, 0) AS n_v
    FROM pairs
    LEFT JOIN s ON s.u = pairs.u AND s.v = pairs.v
    LEFT JOIN n nu ON nu."user" = pairs.u
    LEFT JOIN n nv ON nv."user" = pairs.v
    """


def oracle_failures(spark, got: pd.DataFrame, stream: pd.DataFrame, t_end: int) -> list[str]:
    """Exact (u, v, s, n_u, n_v) rows checked against DuckDB."""
    cols = ["u", "v", "s", "n_u", "n_v"]
    try:
        oracle.assert_equivalent(
            spark.createDataFrame(got[cols].astype(np.int64)),
            final_truth_sql(t_end),
            stream=stream,
            pairs=got[["u", "v"]],
        )
    except AssertionError as exc:
        return [f"exact truth differs from DuckDB at t={t_end}: {exc}"]
    return []


def reference_selection(stream: pd.DataFrame, top_n: int):
    """Pandas §V selection: top-n users by final |S_u|, pairs with s ≥ 1."""
    pres = generator.net_state(stream)
    card = pres.groupby("user").size().rename("n").reset_index()
    card = card.sort_values(["n", "user"], ascending=[False, True])
    users = np.sort(card["user"].to_numpy(np.int64)[:top_n])
    sets = {int(u): set(g) for u, g in pres[pres["user"].isin(users)].groupby("user")["item"]}
    rows = [
        (int(u), int(v), len(sets[int(u)] & sets[int(v)]))
        for u, v in itertools.combinations(users, 2)
        if sets[int(u)] & sets[int(v)]
    ]
    return users, pd.DataFrame(rows, columns=["u", "v", "s_final"])


def digest(A: np.ndarray) -> bytes:
    return hashlib.blake2b(A.tobytes(), digest_size=16).digest()


def parity_array(users, items, params: vos.VOSParams) -> np.ndarray:
    """A as the parity of per-position flip counts (vectorised reference)."""
    pos = hashing.vos_positions(users, items, params.k, params.m, params.seed)
    return (np.bincount(pos, minlength=params.m) & 1).astype(np.uint8)


def vos_final_accuracy(A, params, users, truth: pd.DataFrame) -> tuple[float, float]:
    """(AAPE, ARMSE) of VOS on bit array ``A``.

    ``truth`` has columns u, v, s, n_u, n_v, j for the tracked pairs.
    """
    sk = vos.rebuild_user_sketches(users, A, params)
    iu = np.searchsorted(users, truth["u"].to_numpy(np.int64))
    iv = np.searchsorted(users, truth["v"].to_numpy(np.int64))
    nu = truth["n_u"].to_numpy(np.float64)
    nv = truth["n_v"].to_numpy(np.float64)
    s_hat = estimator.estimate_common(
        nu, nv, estimator.pair_alpha(sk[iu], sk[iv]), float(A.mean()), params.k
    )
    j_hat = estimator.jaccard_from_common(s_hat, nu, nv)
    return metrics.aape(truth["s"], s_hat), metrics.armse(truth["j"], j_hat)


class Fig3:
    """``harness.run_accuracy`` with all four methods: the paper's Fig 3."""

    methods = harness.METHODS
    n_checkpoints = 10

    def __init__(self, dataset, *, paper_scale, csv=None):
        self.dataset = dataset
        # The method ordering is the paper's claim at its memory budget on
        # the full-size datasets; on 'tiny' the sets are too small for it.
        self.paper_scale = paper_scale
        self.csv = csv  # Fig 3 table recorded for seed 0, or None

    def prepare(self, spark, seed: int) -> None:
        # run_accuracy builds its own stream from the seed; the driver keeps
        # a copy for the edge count and the checks.
        self.seed = seed
        self.stream, self.spec = datasets.make_stream(self.dataset, seed=seed)

    def warmup(self, spark) -> None:
        # The first call pays the cold start (~2x a warm call). After it the
        # replay is warm, but the next call's Spark SQL stages (tracked-user
        # selection, exact truth, bit-array build) still ran 10-25% slow. A
        # VOS-only call repeats those stages without the replay.
        self.run_op(spark)
        self._run_accuracy(spark, ("vos",))

    def _run_accuracy(self, spark, methods) -> pd.DataFrame:
        return harness.run_accuracy(
            spark,
            self.dataset,
            k_reg=K_REG,
            lam=LAM,
            n_checkpoints=self.n_checkpoints,
            top_n=TOP_N,
            seed=self.seed,
            methods=methods,
        )

    def run_op(self, spark, tracer=None) -> dict:
        captured: dict = {}
        with capturing(exact, "select_tracked", captured), capturing(
            exact, "exact_over_time", captured
        ):
            t0 = time.perf_counter()
            table = self._run_accuracy(spark, self.methods)
            wall = time.perf_counter() - t0
        users, pairs = captured["select_tracked"]
        return {
            "wall_s": wall,
            "edges": len(self.stream),
            "table": table,
            "users": users,
            "pairs": pairs,
            "truth": captured["exact_over_time"],
        }

    def end_to_end(self, ops) -> dict:
        """One ``run_accuracy`` call; edges are the stream's."""
        return {
            "wall_s": median(op["wall_s"] for op in ops),
            "edges_per_s": median(op["edges"] / op["wall_s"] for op in ops),
        }

    def _final(self, table: pd.DataFrame) -> pd.DataFrame:
        return table[table["ckpt"] == self.n_checkpoints - 1].set_index("method")

    def check(self, spark, ops) -> list[list[str]]:
        ref_users, ref_pairs = reference_selection(self.stream, TOP_N)
        params = vos.VOSParams.paper_budget(
            self.spec.n_users, k_reg=K_REG, lam=LAM, seed=self.seed + 7
        )
        A = parity_array(self.stream["user"], self.stream["item"], params)
        out = []
        for op in ops:
            fails = []
            if not np.array_equal(op["users"], ref_users):
                fails.append("tracked users differ from the pandas selection")
            if not op["pairs"][["u", "v", "s_final"]].reset_index(drop=True).equals(ref_pairs):
                fails.append("tracked pairs differ from the pandas selection")
            truth = op["truth"]
            final = truth[truth["ckpt"] == self.n_checkpoints - 1]
            fails += oracle_failures(spark, final, self.stream, len(self.stream))
            aape, armse = vos_final_accuracy(A, params, op["users"], final)
            last = self._final(op["table"])
            got = last.loc["vos", ["aape", "armse"]].to_numpy(np.float64)
            if not np.allclose(got, [aape, armse], rtol=1e-9, atol=0):
                fails.append(f"final VOS (aape, armse) {tuple(got)} != parity-array reference {(aape, armse)}")
            if self.paper_scale:
                for col in ("aape", "armse"):
                    if last[col].idxmin() != "vos" or last[col].idxmax() != "rp":
                        fails.append(f"final {col}: VOS must be best and RP worst: {last[col].to_dict()}")
            if self.csv is not None and self.seed == 0:
                fails += self._csv_failures(op["table"])
            out.append(fails)
        return out

    def _csv_failures(self, table: pd.DataFrame) -> list[str]:
        ref = pd.read_csv(self.csv)
        ref = ref[ref["dataset"] == self.dataset].sort_values(["method", "ckpt"])
        got = table.sort_values(["method", "ckpt"])
        keys = ["dataset", "method", "ckpt", "t", "n_pairs"]
        same_keys = ref[keys].reset_index(drop=True).equals(got[keys].reset_index(drop=True))
        same_vals = same_keys and np.allclose(
            got[["aape", "armse"]].to_numpy(), ref[["aape", "armse"]].to_numpy(), rtol=1e-9, atol=0
        )
        return [] if same_vals else [f"table differs from {self.csv.name} for seed 0"]

    def report(self, ops) -> dict:
        finals = [self._final(op["table"]).loc["vos"] for op in ops]
        return {
            "vos_aape_final": median(f["aape"] for f in finals),
            "vos_armse_final": median(f["armse"] for f in finals),
        }


class Stream:
    """Closed loop over ``streaming.start_query``: drop a file, drain, query."""

    def __init__(self, dataset, n_batches, workdir: Path):
        self.dataset = dataset
        self.n_batches = n_batches
        self.workdir = workdir
        self.passes = 0

    def prepare(self, spark, seed: int) -> None:
        self.stream, spec = datasets.make_stream(self.dataset, seed=seed)
        self.params = vos.VOSParams.paper_budget(spec.n_users, k_reg=K_REG, lam=LAM, seed=seed + 7)
        sdf = generator.to_spark(spark, self.stream)
        self.users, self.pairs = exact.select_tracked(sdf, TOP_N)
        total = len(self.stream)
        self.cuts = [round(total * (i + 1) / self.n_batches) for i in range(self.n_batches)]
        self.stage = self.workdir / "stage"
        shutil.rmtree(self.stage, ignore_errors=True)
        self.stage.mkdir(parents=True)
        t = self.stream["t"].to_numpy()
        tracked = self.stream[self.stream["user"].isin(self.users)]
        counts, lo = [], 0
        for b, hi in enumerate(self.cuts):
            self.stream[(t > lo) & (t <= hi)].to_parquet(self.stage / f"batch{b:04d}.parquet")
            # The paper's exact per-user counters n_u at this cut.
            n = tracked[tracked["t"] <= hi].groupby("user")["action"].sum()
            counts.append(n.reindex(self.users, fill_value=0).to_numpy(np.float64))
            lo = hi
        self.counts = np.stack(counts)
        self.iu = np.searchsorted(self.users, self.pairs["u"].to_numpy(np.int64))
        self.iv = np.searchsorted(self.users, self.pairs["v"].to_numpy(np.int64))

    def warmup(self, spark) -> None:
        # A short pass warms the same code paths; a full cold pass would
        # cost ~25 s of the run budget.
        self.run_op(spark, n_batches=2)

    def run_op(self, spark, tracer=None, n_batches=None) -> dict:
        self.passes += 1
        name = f"vos_pass{self.passes}"
        pdir = self.workdir / name
        shutil.rmtree(pdir, ignore_errors=True)
        indir = pdir / "in"
        indir.mkdir(parents=True)
        query = streaming.start_query(
            spark, str(indir), str(pdir / "ck"), self.params, n_buckets=N_BUCKETS, query_name=name
        )
        batch_s, query_s, digests, betas = [], [], [], []
        try:
            for b in range(n_batches or self.n_batches):
                f = f"batch{b:04d}.parquet"
                t0 = time.perf_counter()
                with span(tracer, "streaming.drain"):
                    os.link(self.stage / f, indir / f)
                    query.processAllAvailable()
                t1 = time.perf_counter()
                A, beta = streaming.assemble_bit_array(spark, name, self.params, N_BUCKETS)
                sk = vos.rebuild_user_sketches(self.users, A, self.params)
                alpha = estimator.pair_alpha(sk[self.iu], sk[self.iv])
                n = self.counts[b]
                s_hat = estimator.estimate_common(n[self.iu], n[self.iv], alpha, beta, self.params.k)
                t2 = time.perf_counter()
                batch_s.append(t1 - t0)
                query_s.append(t2 - t1)
                digests.append(digest(A))
                betas.append(beta)
            progress = list(query.recentProgress)
            run_id = str(query.runId)
        finally:
            query.stop()
        sink_rows = spark.table(name).count()
        return {
            "batch_s": batch_s,
            "query_s": query_s,
            "digests": digests,
            "betas": betas,
            "s_hat": s_hat,
            "progress": progress,
            "job_groups": [run_id],
            "sink_rows": sink_rows,
        }

    def end_to_end(self, ops) -> dict:
        """Per operation (one batch plus its query): median cycle time, and
        median edges absorbed per second of drain time."""
        sizes = np.diff([0] + self.cuts)
        return {
            "wall_s": median(b + q for op in ops for b, q in zip(op["batch_s"], op["query_s"])),
            "edges_per_s": median(e / b for op in ops for e, b in zip(sizes, op["batch_s"])),
        }

    def check(self, spark, ops) -> list[list[str]]:
        """Every batch's (A, β) bit-exact with the batch build at its cut."""
        fails = []
        pairs = self.pairs.rename(columns={"s_final": "s"})
        n = self.counts[-1]
        pairs["n_u"] = n[self.iu].astype(np.int64)
        pairs["n_v"] = n[self.iv].astype(np.int64)
        fails += oracle_failures(spark, pairs, self.stream, len(self.stream))
        ref_A, ref_beta = vos.build_bit_arrays(
            generator.to_spark(spark, self.stream), self.params, self.cuts
        )
        ref = [digest(row) for row in ref_A]
        out = []
        for op in ops:
            for b in range(self.n_batches):
                bad = list(fails)
                if op["digests"][b] != ref[b] or not np.isclose(op["betas"][b], ref_beta[b], rtol=1e-12):
                    bad.append(f"batch {b}: streamed (A, beta) differs from build_bit_arrays")
                out.append(bad)
        return out

    def report(self, ops) -> dict:
        truth = self.pairs.rename(columns={"s_final": "s"})
        nu, nv = self.counts[-1][self.iu], self.counts[-1][self.iv]
        s = truth["s"].to_numpy(np.float64)
        j = estimator.jaccard_from_common(s, nu, nv)
        s_hat = ops[-1]["s_hat"]
        return {
            "batch_p50_ms": 1e3 * median(b for op in ops for b in op["batch_s"]),
            "query_p50_ms": 1e3 * median(q for op in ops for q in op["query_s"]),
            "batches": sum(len(op["batch_s"]) for op in ops),
            "vos_aape_final": metrics.aape(s, s_hat),
            "vos_armse_final": metrics.armse(j, estimator.jaccard_from_common(s_hat, nu, nv)),
            "signed_err.vos": float(np.mean(s_hat - s)),
        }


KERNEL_SIZES = {"vos": 6400, "oph": K_REG, "minhash": K_REG, "rp": K_REG}


def kernel_round(arrays) -> dict:
    """One single-threaded ``runtime.make_runner`` loop per method over
    ``arrays`` (users, items, actions): µs per edge, and the VOS kernel's
    final state, kept small so RSS does not grow with rounds."""
    times, vos_kernel = {}, None
    for method, k in KERNEL_SIZES.items():
        run = runtime.make_runner(method, k)
        if method == "vos":
            vos_kernel = inspect.getclosurevars(run).nonlocals["kern"]
        t0 = time.perf_counter()
        run(*arrays)
        times[method] = time.perf_counter() - t0
    n = arrays[0].size
    return {
        "update_us": {m: 1e6 * t / n for m, t in times.items()},
        "vos_state": (vos_kernel.params, digest(vos_kernel.A), vos_kernel.ones, dict(vos_kernel.n)),
    }


def kernel_failures(arrays, rounds) -> list[list[str]]:
    """VOS kernel state equals the vectorised parity and signed sums.

    One operation per kernel loop; the VOS loop carries the checks.
    """
    users, items, actions = arrays
    signed = pd.Series(actions).groupby(users).sum()
    n_ref = {int(u): int(c) for u, c in signed.items()}
    refs: dict = {}
    out = []
    for r in rounds:
        params, a_digest, ones, n = r["vos_state"]
        if params not in refs:
            refs[params] = parity_array(users, items, params)
        A = refs[params]
        fails = []
        if a_digest != digest(A):
            fails.append("VOSKernel.A differs from the parity of the position counts")
        if ones != int(A.sum()):
            fails.append("VOSKernel.ones differs from the 1-bits of A")
        if n != n_ref:
            fails.append("VOSKernel.n differs from the signed action sums")
        out += [fails] + [[] for _ in range(len(KERNEL_SIZES) - 1)]
    return out


def make(name: str, smoke: bool, workdir: Path, csv: Path):
    """The named workload at full size, or on the tiny dataset for smoke runs."""
    big = (lambda full: "tiny" if smoke else full)
    if name == "fig3-livejournal":
        return Fig3(big("livejournal"), paper_scale=not smoke, csv=None if smoke else csv)
    if name == "stream-youtube":
        return Stream(big("youtube"), 4 if smoke else 6, workdir / "stream")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fig3-livejournal", "stream-youtube")
