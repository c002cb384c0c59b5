"""Accuracy experiment harness — reproduces Figure 3 as numeric tables.

Protocol (paper §V): generate a dataset's fully dynamic stream, track
the pairs among the largest-cardinality users that share ≥ 1 item at
the end, give every method the same memory budget m = 32·k_reg·|U| bits
(k_reg 32-bit registers per user for MinHash/OPH/RP; VOS gets the
shared bit array of that length with per-user virtual sketch size
k_vos = λ·32·k_reg, λ = 2), and report AAPE(ŝ) and ARMSE(Ĵ) at
checkpoint times spread over the stream. Exact n_u counters are
available to all methods, as in the paper.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..baselines import driver, exact, minhash, oph, rp
from ..core import estimator, vos
from ..streams import datasets, generator
from . import metrics

METHODS = ("vos", "minhash", "oph", "rp")


def _pair_indices(users: np.ndarray, pairs: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of each pair's two users in the sorted ``users`` array."""
    iu = np.searchsorted(users, pairs["u"].to_numpy(np.int64))
    iv = np.searchsorted(users, pairs["v"].to_numpy(np.int64))
    return iu, iv


def _pair_counts(
    truth: pd.DataFrame, pairs: pd.DataFrame, n_checkpoints: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (n_u, n_v) as (n_checkpoints, n_pairs) float arrays, with
    columns in the row order of ``pairs`` — one lookup for the whole run."""
    keys = pd.MultiIndex.from_arrays(
        [
            np.repeat(np.arange(n_checkpoints), len(pairs)),
            np.tile(pairs["u"].to_numpy(np.int64), n_checkpoints),
            np.tile(pairs["v"].to_numpy(np.int64), n_checkpoints),
        ]
    )
    counts = truth.set_index(["ckpt", "u", "v"]).loc[keys]
    shape = (n_checkpoints, len(pairs))
    return (
        counts["n_u"].to_numpy(np.float64).reshape(shape),
        counts["n_v"].to_numpy(np.float64).reshape(shape),
    )


def _estimates_frame(pairs: pd.DataFrame, per_ckpt) -> pd.DataFrame:
    """Long (u, v, ckpt, s_hat, j_hat) table from one (ŝ, Ĵ) per checkpoint."""
    return pd.concat(
        [
            pd.DataFrame(
                {"u": pairs["u"], "v": pairs["v"], "ckpt": ci, "s_hat": s_hat, "j_hat": j_hat}
            )
            for ci, (s_hat, j_hat) in enumerate(per_ckpt)
        ],
        ignore_index=True,
    )


def estimate_vos(
    edges,
    users: np.ndarray,
    pairs: pd.DataFrame,
    n_u: np.ndarray,
    n_v: np.ndarray,
    checkpoints: Sequence[int],
    params: vos.VOSParams,
) -> pd.DataFrame:
    """VOS (ŝ, Ĵ) for every tracked pair at every checkpoint.

    ``n_u``/``n_v`` are the exact counters from ``_pair_counts``."""
    A, betas = vos.build_bit_arrays(edges, params, checkpoints)
    iu, iv = _pair_indices(users, pairs)
    per_ckpt = []
    for ci in range(len(checkpoints)):
        sk = vos.rebuild_user_sketches(users, A[ci], params)
        alpha = estimator.pair_alpha(sk[iu], sk[iv])
        s_hat = estimator.estimate_common(n_u[ci], n_v[ci], alpha, betas[ci], params.k)
        per_ckpt.append((s_hat, estimator.jaccard_from_common(s_hat, n_u[ci], n_v[ci])))
    return _estimates_frame(pairs, per_ckpt)


_BASELINE_ESTIMATORS = {
    "minhash": minhash.estimate_pairs,
    "oph": oph.estimate_pairs,
    "rp": rp.estimate_pairs,
}


def estimate_baseline(
    snaps: pd.DataFrame,
    users: np.ndarray,
    pairs: pd.DataFrame,
    n_u: np.ndarray,
    n_v: np.ndarray,
    method: str,
    k_reg: int,
) -> pd.DataFrame:
    """MinHash/OPH/RP (ŝ, Ĵ) for every tracked pair at every checkpoint.

    ``snaps`` is a ``driver.sketch_snapshots`` frame holding ``method``
    (and possibly other methods); ``n_u``/``n_v`` come from ``_pair_counts``."""
    mine = snaps[snaps["method"] == method]
    est = _BASELINE_ESTIMATORS[method]
    iu, iv = _pair_indices(users, pairs)
    per_ckpt = []
    for ci in range(len(n_u)):
        mat = driver.snapshots_to_matrix(mine, users, ci, k_reg)
        per_ckpt.append(est(mat[iu], mat[iv], n_u[ci], n_v[ci]))
    return _estimates_frame(pairs, per_ckpt)


def run_accuracy(
    spark: SparkSession,
    dataset: str = "youtube",
    *,
    k_reg: int = 100,
    lam: int = 2,
    n_checkpoints: int = 10,
    top_n: int = 50,
    seed: int = 0,
    methods: Sequence[str] = METHODS,
) -> pd.DataFrame:
    """Full Fig 3-style experiment on one dataset.

    Returns a long table: dataset, method, ckpt, t, n_pairs, aape,
    armse. Checkpoint times are i/n_checkpoints of the stream length.
    """
    stream_pdf, spec = datasets.make_stream(dataset, seed=seed)
    total = len(stream_pdf)
    checkpoints = [round(total * (i + 1) / n_checkpoints) for i in range(n_checkpoints)]
    edges = generator.to_spark(spark, stream_pdf).cache()
    try:
        users, pairs = exact.select_tracked(edges, top_n)
        truth = exact.exact_over_time(edges, users, pairs, checkpoints)
        n_u, n_v = _pair_counts(truth, pairs, len(checkpoints))
        params = vos.VOSParams.paper_budget(spec.n_users, k_reg=k_reg, lam=lam, seed=seed + 7)
        # One Spark pass replays every requested baseline.
        baselines = tuple(m for m in methods if m != "vos")
        snaps = (
            driver.sketch_snapshots(edges, users, checkpoints, baselines, k_reg, seed + 13)
            if baselines
            else None
        )

        rows = []
        for method in methods:
            if method == "vos":
                ests = estimate_vos(edges, users, pairs, n_u, n_v, checkpoints, params)
            else:
                ests = estimate_baseline(snaps, users, pairs, n_u, n_v, method, k_reg)
            merged = truth.merge(ests, on=["u", "v", "ckpt"], validate="1:1")
            for ci, grp in merged.groupby("ckpt"):
                rows.append(
                    {
                        "dataset": dataset,
                        "method": method,
                        "ckpt": int(ci),
                        "t": checkpoints[int(ci)],
                        "n_pairs": len(grp),
                        "aape": metrics.aape(grp["s"], grp["s_hat"]),
                        "armse": metrics.armse(grp["j"], grp["j_hat"]),
                    }
                )
        return pd.DataFrame(rows).sort_values(["method", "ckpt"]).reset_index(drop=True)
    finally:
        edges.unpersist()
