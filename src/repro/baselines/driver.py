"""Per-user sequential sketching of the tracked users, on the driver.

MinHash/OPH/RP state evolves *sequentially* along each user's edge
sub-stream (deletions make the update order-dependent — that is the
paper's point), but users are independent of each other. Only tracked
users (the paper's largest-cardinality selection) need sketches for
estimation, and their rows are few: the harness filters them once from
the generated stream's frame on the driver (``exact.tracked_rows``), and
the same rows feed the exact truth and this replay. A Spark stream is
read through the same function, collected once by ``exact.stream_rows``.

``sketch_snapshots`` sorts the rows by (user, t) and hands each user's
sub-stream to every requested method's kernel in turn. Each kernel's
``replay`` draws the user's hash inputs (RP: uniforms) in one vectorised
call and then applies its rule to one run of same-action edges at a time
(inserts, a deletion burst, inserts again), so the snapshots are
bit-identical to a per-edge ``update`` loop with far fewer numpy calls.
The checkpoint cuts are edge counts,
``searchsorted(t, checkpoints, side="right")``: the snapshot at
checkpoint c holds the edges with t ≤ c; a cut inside a run splits it. A
user with no edges replays an empty sub-stream.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd

from ..common import prefix
from . import exact, minhash, oph, rp

METHOD_KERNELS = {
    "minhash": lambda user, k, seed: minhash.MinHashKernel(k, seed),
    "oph": lambda user, k, seed: oph.OPHKernel(k, seed),
    "rp": lambda user, k, seed: rp.RPKernel(k, seed, user=user),
}


def sketch_snapshots(
    edges: exact.Edges,
    users: Sequence[int],
    checkpoints: Sequence[int],
    method: str | Sequence[str],
    k: int,
    seed: int,
) -> pd.DataFrame:
    """Register snapshots (method, user, ckpt, regs[k]) at each checkpoint,
    sorted by (method, user, ckpt).

    ``edges`` is a Spark stream or a pandas frame of stream rows; either
    is read through ``exact.tracked_rows``. ``method`` is one method name
    or a sequence of names; every requested method replays each user's
    sub-stream in the same pass. ``regs`` holds sampled item ids, −1 for
    an empty register. The snapshot at checkpoint c reflects all of the
    user's edges with t ≤ c. Raises ``ValueError`` if the checkpoints
    decrease.
    """
    methods = (method,) if isinstance(method, str) else tuple(method)
    for name in methods:
        if name not in METHOD_KERNELS:
            raise ValueError(f"unknown method {name!r}; one of {sorted(METHOD_KERNELS)}")
    methods = sorted(set(methods))
    cps = np.asarray(checkpoints, dtype=np.int64)
    prefix.prefix_parity([], [], cps)  # reject decreasing checkpoints before any replay
    users = np.unique(np.asarray(users, dtype=np.int64))
    rows = exact.tracked_rows(edges, users).sort_values(["user", "t"])
    user_col = rows["user"].to_numpy(np.int64)
    items = rows["item"].to_numpy(np.int64)
    actions = rows["action"].to_numpy(np.int64)
    t = rows["t"].to_numpy(np.int64)
    lo = np.searchsorted(user_col, users, side="left")
    hi = np.searchsorted(user_col, users, side="right")
    regs = []
    for name in methods:
        for user, a, b in zip(users.tolist(), lo.tolist(), hi.tolist()):
            cuts = np.searchsorted(t[a:b], cps, side="right")
            regs += METHOD_KERNELS[name](user, k, seed).replay(items[a:b], actions[a:b], cuts)
    n_cps, n_users = cps.size, users.size
    return pd.DataFrame(
        {
            "method": np.repeat(methods, n_users * n_cps),
            "user": np.tile(np.repeat(users, n_cps), len(methods)),
            "ckpt": np.tile(np.arange(n_cps), len(methods) * n_users),
            "regs": pd.Series(regs, dtype=object),
        }
    )


def snapshots_to_matrix(
    snaps: pd.DataFrame, users: Sequence[int], ckpt: int, k: int
) -> np.ndarray:
    """(len(users), k) int64 register matrix for one checkpoint of one
    method's snapshots."""
    sel = snaps[snaps["ckpt"] == ckpt].set_index("user")["regs"]
    rows = sel.loc[np.asarray(users, dtype=np.int64)]
    return np.asarray(rows.tolist(), dtype=np.int64).reshape(len(users), k)
