"""Per-user sequential sketching of the tracked users, on the driver.

MinHash/OPH/RP state evolves *sequentially* along each user's edge
sub-stream (deletions make the update order-dependent — that is the
paper's point), but users are independent of each other. Only tracked
users (the paper's largest-cardinality selection) need sketches for
estimation, and their rows are few: the harness filters them once from
the generated stream's frame on the driver (``exact.tracked_rows``), and
the same rows feed the exact truth and this replay.

``sketch_snapshots`` sorts the rows by (user, t), hands each user's
sub-stream to every requested method's kernel, and stacks each method's
snapshots into one (checkpoint × user × k) array. Each kernel's
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
    edges: pd.DataFrame,
    users: Sequence[int],
    checkpoints: Sequence[int],
    method: str | Sequence[str],
    k: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """Register snapshots: method name → int64 stack of shape
    (n_checkpoints, len(users), k), row ``[c, i]`` holding ``users[i]``'s
    registers at checkpoint c, in the order ``users`` is given.

    ``edges`` is a pandas frame of stream rows, read through
    ``exact.tracked_rows``. ``method`` is one method name or a sequence
    of names; one call replays each user's sub-stream for every
    requested method. Registers hold sampled item ids,
    ``replay.EMPTY`` (−1) if empty, so an edgeless user's rows are all
    ``EMPTY``. The snapshot at checkpoint c reflects all of the user's
    edges with t ≤ c. Raises ``ValueError`` if the checkpoints decrease.
    """
    methods = (method,) if isinstance(method, str) else tuple(method)
    for name in methods:
        if name not in METHOD_KERNELS:
            raise ValueError(f"unknown method {name!r}; one of {sorted(METHOD_KERNELS)}")
    cps = np.asarray(checkpoints, dtype=np.int64)
    prefix.prefix_parity([], [], cps)  # reject decreasing checkpoints before any replay
    users = np.asarray(users, dtype=np.int64)
    rows = exact.tracked_rows(edges, users).sort_values(["user", "t"])
    user_col = rows["user"].to_numpy(np.int64)
    items = rows["item"].to_numpy(np.int64)
    actions = rows["action"].to_numpy(np.int64)
    t = rows["t"].to_numpy(np.int64)
    lo = np.searchsorted(user_col, users, side="left")
    hi = np.searchsorted(user_col, users, side="right")
    snaps = {}
    for name in methods:
        regs = []
        for user, a, b in zip(users.tolist(), lo.tolist(), hi.tolist()):
            cuts = np.searchsorted(t[a:b], cps, side="right")
            regs.append(METHOD_KERNELS[name](user, k, seed).replay(items[a:b], actions[a:b], cuts))
        snaps[name] = snapshots_to_matrix(regs, cps.size, k)
    return snaps


def snapshots_to_matrix(snaps: list[list[np.ndarray]], n_checkpoints: int, k: int) -> np.ndarray:
    """(n_checkpoints, len(snaps), k) int64 stack of per-user snapshot
    lists: ``snaps[i][c]`` is user i's k registers at checkpoint c."""
    per_user = np.asarray(snaps, dtype=np.int64).reshape(len(snaps), n_checkpoints, k)
    return per_user.transpose(1, 0, 2)
