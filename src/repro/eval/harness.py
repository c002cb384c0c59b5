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


def _estimate_checkpoints(stack, users, pairs, n_u, n_v, estimate, *extra):
    """(ŝ, Ĵ) at every checkpoint c of a (n_checkpoints, len(users), k)
    sketch stack: ``estimate`` maps the pairs' two (n_pairs, k) sketch
    matrices, counters and c-th entry of each ``extra`` to (ŝ, Ĵ)."""
    iu, iv = exact.pair_indices(users, pairs)
    s_hat = np.empty(n_u.shape)
    j_hat = np.empty(n_u.shape)
    for ci, sk in enumerate(stack):
        s_hat[ci], j_hat[ci] = estimate(sk[iu], sk[iv], n_u[ci], n_v[ci], *(x[ci] for x in extra))
    return s_hat, j_hat


def estimate_vos(
    edges: pd.DataFrame,
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

    ``edges`` is a pandas frame of stream rows, which
    ``vos.build_bit_arrays`` hashes on the driver. ``n_u``/``n_v`` are
    the exact counters in that shape. Only the tracked users' positions
    are built, so indexing the bits with each f_j(u)'s index into them
    gives the users' Ô_u as a (n_checkpoints, len(users), k) uint8
    stack."""
    pos = vos.user_positions(users, params)
    at, slot = np.unique(pos, return_inverse=True)
    bits, betas = vos.build_bit_arrays(edges, params, checkpoints, at=at)

    def pair_estimates(sk_u, sk_v, nu, nv, beta):
        alpha = estimator.pair_alpha(sk_u, sk_v)
        s_hat = estimator.estimate_common(nu, nv, alpha, beta, params.k)
        return s_hat, estimator.jaccard_from_common(s_hat, nu, nv)

    # Unlike bits[:, slot], take keeps the stack C-contiguous for the row gathers.
    stack = np.take(bits, slot.reshape(pos.shape), axis=1)
    return _estimate_checkpoints(stack, users, pairs, n_u, n_v, pair_estimates, betas)


_BASELINE_ESTIMATORS = {
    "minhash": minhash.estimate_pairs,
    "oph": oph.estimate_pairs,
    "rp": rp.estimate_pairs,
}


def estimate_baseline(
    regs: np.ndarray,
    users: np.ndarray,
    pairs: pd.DataFrame,
    n_u: np.ndarray,
    n_v: np.ndarray,
    method: str,
) -> tuple[np.ndarray, np.ndarray]:
    """MinHash/OPH/RP (ŝ, Ĵ) for every tracked pair at every checkpoint,
    shaped like ``estimate_vos``'s.

    ``regs`` is ``method``'s (n_checkpoints, len(users), k) register stack
    from ``driver.sketch_snapshots``; ``n_u``/``n_v`` are the exact
    counters as (n_checkpoints, n_pairs) arrays."""
    return _estimate_checkpoints(regs, users, pairs, n_u, n_v, _BASELINE_ESTIMATORS[method])


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
    names; with ``methods`` free of ``"vos"`` no Spark job runs. Raises
    ``ValueError`` if ``k_reg``, ``lam`` or ``n_checkpoints`` is below 1
    or ``top_n`` below 0.
    """
    for name, value in (("k_reg", k_reg), ("lam", lam), ("n_checkpoints", n_checkpoints)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
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
    # The stream is already a frame on the driver: the selection and the
    # tracked users' rows come from it, and those rows feed the exact
    # truth and the baseline replay. Only the VOS build runs in Spark:
    # it hashes the frame here and ships each edge's (pos, t).
    users, pairs = exact.select_tracked(stream_pdf, top_n)
    rows = exact.tracked_rows(stream_pdf, users)
    truth = exact.exact_over_time(rows, users, pairs, checkpoints)
    # Truth rows come in (ckpt, pairs row) order.
    s, n_u, n_v, j = (
        truth[c].to_numpy(np.float64).reshape(len(checkpoints), len(pairs))
        for c in ("s", "n_u", "n_v", "j")
    )
    params = vos.VOSParams.paper_budget(spec.n_users, k_reg=k_reg, lam=lam, seed=seed + 7)
    # One call replays every requested baseline over the tracked rows.
    baselines = [m for m in methods if m != "vos"]
    snaps = driver.sketch_snapshots(rows, users, checkpoints, baselines, k_reg, seed + 13)

    table = []
    for method in methods:
        if method == "vos":
            s_hat, j_hat = estimate_vos(stream_pdf, users, pairs, n_u, n_v, checkpoints, params)
        else:
            s_hat, j_hat = estimate_baseline(snaps[method], users, pairs, n_u, n_v, method)
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
