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
from ..streams import datasets
from . import metrics

METHODS = ("vos", "minhash", "oph", "rp")


def estimate_vos(
    edges: exact.Edges,
    users: np.ndarray,
    pairs: pd.DataFrame,
    n_u: np.ndarray,
    n_v: np.ndarray,
    checkpoints: Sequence[int],
    params: vos.VOSParams,
) -> tuple[np.ndarray, np.ndarray]:
    """VOS (ŝ, Ĵ) for every tracked pair at every checkpoint, each a
    (n_checkpoints, n_pairs) array with columns in the row order of
    ``pairs``.

    ``edges`` is a Spark stream or a pandas frame of stream rows, as
    ``vos.build_bit_arrays`` takes it. ``n_u``/``n_v`` are the exact
    counters in that shape. Only the tracked users' positions are built,
    so the sketches are read through the index of each f_j(u) into those
    positions."""
    pos = vos.user_positions(users, params)
    at, slot = np.unique(pos, return_inverse=True)
    bits, betas = vos.build_bit_arrays(edges, params, checkpoints, at=at)
    slot = slot.reshape(pos.shape)
    iu, iv = exact.pair_indices(users, pairs)
    s_hat = np.empty(n_u.shape)
    j_hat = np.empty(n_u.shape)
    for ci in range(len(checkpoints)):
        sk = bits[ci][slot]
        alpha = estimator.pair_alpha(sk[iu], sk[iv])
        s_hat[ci] = estimator.estimate_common(n_u[ci], n_v[ci], alpha, betas[ci], params.k)
        j_hat[ci] = estimator.jaccard_from_common(s_hat[ci], n_u[ci], n_v[ci])
    return s_hat, j_hat


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
) -> tuple[np.ndarray, np.ndarray]:
    """MinHash/OPH/RP (ŝ, Ĵ) for every tracked pair at every checkpoint,
    shaped like ``estimate_vos``'s.

    ``snaps`` is a ``driver.sketch_snapshots`` frame holding ``method``
    (and possibly other methods); ``n_u``/``n_v`` are the exact counters
    as (n_checkpoints, n_pairs) arrays."""
    mine = snaps[snaps["method"] == method]
    est = _BASELINE_ESTIMATORS[method]
    iu, iv = exact.pair_indices(users, pairs)
    s_hat = np.empty(n_u.shape)
    j_hat = np.empty(n_u.shape)
    for ci in range(len(n_u)):
        mat = driver.snapshots_to_matrix(mine, users, ci, k_reg)
        s_hat[ci], j_hat[ci] = est(mat[iu], mat[iv], n_u[ci], n_v[ci])
    return s_hat, j_hat


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
    The VOS build runs in the active Spark session, which ``spark``
    names; with ``methods`` free of ``"vos"`` no Spark job runs.
    """
    stream_pdf, spec = datasets.make_stream(dataset, seed=seed)
    total = len(stream_pdf)
    checkpoints = [round(total * (i + 1) / n_checkpoints) for i in range(n_checkpoints)]
    # The parity rule picks the top-n over every user, so the whole stream
    # must be feasible, not only the tracked users' rows.
    bad = exact.infeasible_events(stream_pdf)
    if len(bad):
        first = bad.iloc[0]
        raise ValueError(
            f"{len(bad)} infeasible events in the stream; first at "
            f"user {first['user']}, item {first['item']}, t {first['t']}"
        )
    # The stream is already a frame on the driver: the top-n and the
    # tracked users' rows come from it, and those rows feed the exact
    # truth and the baseline replay. Only the VOS build runs in Spark:
    # it hashes the frame here and ships each edge's (pos, t).
    rows = exact.tracked_rows(stream_pdf, exact.top_users(stream_pdf, top_n))
    users, pairs = exact.select_tracked(rows, top_n)
    truth = exact.exact_over_time(rows, users, pairs, checkpoints)
    # Truth rows come in (ckpt, pairs row) order.
    s, n_u, n_v, j = (
        truth[c].to_numpy(np.float64).reshape(len(checkpoints), len(pairs))
        for c in ("s", "n_u", "n_v", "j")
    )
    params = vos.VOSParams.paper_budget(spec.n_users, k_reg=k_reg, lam=lam, seed=seed + 7)
    # One pass over the tracked rows replays every requested baseline.
    baselines = tuple(m for m in methods if m != "vos")
    snaps = (
        driver.sketch_snapshots(rows, users, checkpoints, baselines, k_reg, seed + 13)
        if baselines
        else None
    )

    table = []
    for method in methods:
        if method == "vos":
            s_hat, j_hat = estimate_vos(stream_pdf, users, pairs, n_u, n_v, checkpoints, params)
        else:
            s_hat, j_hat = estimate_baseline(snaps, users, pairs, n_u, n_v, method, k_reg)
        for ci, t in enumerate(checkpoints):
            table.append(
                {
                    "dataset": dataset,
                    "method": method,
                    "ckpt": ci,
                    "t": t,
                    "n_pairs": len(pairs),
                    "aape": metrics.aape(s[ci], s_hat[ci]),
                    "armse": metrics.armse(j[ci], j_hat[ci]),
                }
            )
    return pd.DataFrame(table).sort_values(["method", "ckpt"]).reset_index(drop=True)


def fig3_tables(full: pd.DataFrame) -> str:
    """Tables F3a–F3d from concatenated ``run_accuracy`` frames: AAPE of ŝ
    and ARMSE of Ĵ over time on the first dataset, then both at final
    time on every dataset."""
    name = full["dataset"].iloc[0]
    first = full[full["dataset"] == name]
    last = full[full["ckpt"] == full.groupby("dataset")["ckpt"].transform("max")]
    tables = [
        (f"F3a — AAPE of s over time [{name}]", first, "t", "aape", 3),
        (f"F3c — ARMSE of J over time [{name}]", first, "t", "armse", 4),
        ("F3b — AAPE of s at final time, all datasets", last, "dataset", "aape", 3),
        ("F3d — ARMSE of J at final time, all datasets", last, "dataset", "armse", 4),
    ]
    return "\n".join(
        f"\nTable {title}:\n\n"
        f"{frame.pivot(index=index, columns='method', values=col).round(digits).to_string()}"
        for title, frame, index, col, digits in tables
    )
