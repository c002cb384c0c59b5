"""Distributed per-user sequential sketching via ``applyInPandas``.

MinHash/OPH/RP state evolves *sequentially* along each user's edge
sub-stream (deletions make the update order-dependent — that is the
paper's point), but users are independent of each other. So the natural
Spark layout is: group the stream by user, replay each user's edges in
arrival order inside an ``applyInPandas`` kernel, and emit register
snapshots at the requested checkpoint times. Only tracked users (the
paper's largest-cardinality selection) need sketches for estimation, so
the stream is semi-filtered first.

All requested methods replay in one pass: a single filter → shuffle →
``applyInPandas`` job hands each user's sorted sub-stream to every
method's kernel in turn. Each kernel's ``replay`` draws the user's hash
inputs (RP: uniforms) in one vectorised call and then applies its rule
to one run of same-action edges at a time (inserts, a deletion burst,
inserts again), so the snapshots are bit-identical to a per-edge
``update`` loop with far fewer numpy calls. The checkpoint cuts are
edge counts, ``searchsorted(t, checkpoints, side="right")``: the
snapshot at checkpoint c holds the edges with t ≤ c; a cut inside a
run splits it.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from . import minhash, oph, rp
from .replay import EMPTY

SNAPSHOT_SCHEMA = T.StructType(
    [
        T.StructField("method", T.StringType(), False),
        T.StructField("user", T.LongType(), False),
        T.StructField("ckpt", T.IntegerType(), False),
        T.StructField("regs", T.ArrayType(T.LongType()), False),
    ]
)

METHOD_KERNELS = {
    "minhash": lambda user, k, seed: minhash.MinHashKernel(k, seed),
    "oph": lambda user, k, seed: oph.OPHKernel(k, seed),
    "rp": lambda user, k, seed: rp.RPKernel(k, seed, user=user),
}


def sketch_snapshots(
    edges: DataFrame,
    users: Sequence[int],
    checkpoints: Sequence[int],
    method: str | Sequence[str],
    k: int,
    seed: int,
) -> pd.DataFrame:
    """Register snapshots (method, user, ckpt, regs[k]) at each checkpoint.

    ``method`` is one method name or a sequence of names; every requested
    method is replayed in the same Spark job. ``regs`` holds sampled item
    ids, −1 for an empty register. The snapshot at checkpoint c reflects
    all of the user's edges with t ≤ c.
    """
    methods = (method,) if isinstance(method, str) else tuple(method)
    for name in methods:
        if name not in METHOD_KERNELS:
            raise ValueError(f"unknown method {name!r}; one of {sorted(METHOD_KERNELS)}")
    cps = np.sort(np.asarray(checkpoints, dtype=np.int64))
    ckpts = np.arange(cps.size)
    user_list = [int(u) for u in users]

    def replay(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("t")
        user = int(pdf["user"].iloc[0])
        items = pdf["item"].to_numpy(np.int64)
        actions = pdf["action"].to_numpy(np.int64)
        cuts = np.searchsorted(pdf["t"].to_numpy(), cps, side="right")
        frames = []
        for name in methods:
            snaps = METHOD_KERNELS[name](user, k, seed).replay(items, actions, cuts)
            frames.append(
                pd.DataFrame(
                    {"method": name, "user": user, "ckpt": ckpts, "regs": [s.tolist() for s in snaps]}
                )
            )
        return pd.concat(frames, ignore_index=True)

    out = (
        edges.where(F.col("user").isin(user_list))
        .groupBy("user")
        .applyInPandas(replay, SNAPSHOT_SCHEMA)
        .toPandas()
    )
    # Users with no edges at all still need (empty) snapshots.
    missing = sorted(set(user_list) - set(out["user"].unique()))
    if missing:
        empty = np.full(k, EMPTY, dtype=np.int64).tolist()
        out = pd.concat(
            [out]
            + [
                pd.DataFrame({"method": name, "user": u, "ckpt": ckpts, "regs": [empty] * cps.size})
                for name in methods
                for u in missing
            ],
            ignore_index=True,
        )
    return out.sort_values(["method", "user", "ckpt"]).reset_index(drop=True)


def snapshots_to_matrix(
    snaps: pd.DataFrame, users: Sequence[int], ckpt: int, k: int
) -> np.ndarray:
    """(len(users), k) int64 register matrix for one checkpoint of one
    method's snapshots."""
    sel = snaps[snaps["ckpt"] == ckpt].set_index("user")["regs"]
    rows = sel.loc[np.asarray(users, dtype=np.int64)]
    return np.asarray(rows.tolist(), dtype=np.int64).reshape(len(users), k)
