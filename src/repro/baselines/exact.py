"""Exact ground truth: memberships, cardinalities, and pair similarities.

On a feasible dynamic stream, item i is in S_u at time t iff the number
of (u, i, ·) elements with arrival ≤ t is odd (insertions and deletions
of an edge strictly alternate). Every exact quantity derives from that
parity rule:

* ``top_users`` — the paper's §V users: the largest final cardinalities.
* ``tracked_rows`` — the tracked users' raw (user, item, t, action) rows,
  shared by the exact truth and the baseline replay
  (``driver.sketch_snapshots``). The harness filters them from the
  generated stream's pandas frame, which the driver already holds.
* ``select_tracked`` — the top-n users and the pairs among them sharing
  ≥ 1 item at the end.
* ``exact_over_time`` — the evaluation path: s, n_u, n_v and J of the
  tracked pairs at every checkpoint.
* ``infeasible_events`` — the rows that break the parity rule's premise.

The tracked-user functions take ``edges`` as a pandas frame of stream
rows (the whole stream or ``tracked_rows``' output) or as a Spark
stream, which ``stream_rows`` collects once into such a frame: every
exact result runs the same pandas code. Every checkpoint's membership
comes from ``prefix.prefix_parity`` and every pair overlap from a
membership-matrix product on the driver (``_overlaps``): tracked users
are a few dozen, their distinct items a few thousand.
The DuckDB oracle cross-checks them in the tests.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..common import prefix
from ..core import estimator

# A Spark stream, or a pandas frame of stream rows.
Edges = DataFrame | pd.DataFrame
ROW_COLUMNS = ("user", "item", "t", "action")


def stream_rows(edges: Edges) -> pd.DataFrame:
    """``edges`` as a pandas frame of stream rows: a Spark stream's
    (user, item, t, action) columns in one collect, a pandas frame as it
    is."""
    if isinstance(edges, pd.DataFrame):
        return edges
    return edges.select(*ROW_COLUMNS).toPandas()


def pair_indices(users, pairs: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of each pair's two users in ``users`` (unique ids, any
    order). Raises ``ValueError`` if a pair names a user not in ``users``."""
    index = pd.Index(np.asarray(users, dtype=np.int64))
    iu = index.get_indexer(pairs["u"].to_numpy(np.int64))
    iv = index.get_indexer(pairs["v"].to_numpy(np.int64))
    if (iu < 0).any() or (iv < 0).any():
        raise ValueError("pairs name a user that is not in users")
    return iu, iv


def top_users(edges: Edges, top_n: int) -> np.ndarray:
    """Paper §V users: the ``top_n`` largest final cardinalities, ties
    broken by user id, as ascending int64 ids. Users whose set is empty at
    the end are never chosen."""
    odd = stream_rows(edges).groupby(["user", "item"]).size() % 2 == 1
    card = odd[odd].groupby(level="user").size().rename("n").reset_index()
    top = card.sort_values(["n", "user"], ascending=[False, True]).head(top_n)
    return np.sort(top["user"].to_numpy(np.int64))


def tracked_rows(edges: Edges, users) -> pd.DataFrame:
    """The (user, item, t, action) rows of ``users``, in no set order,
    filtered on the driver from ``stream_rows(edges)``."""
    rows = stream_rows(edges)
    return rows.loc[rows["user"].isin(np.asarray(users, dtype=np.int64)), list(ROW_COLUMNS)]


def infeasible_events(rows: pd.DataFrame) -> pd.DataFrame:
    """Rows a feasible stream cannot hold, in t order: an insert of an
    edge already present, or a delete of an absent one.

    Each (user, item)'s rows are read in t order; an edge is present
    after an insert and absent after a delete (or before its first row).
    The parity rule silently misreads a stream with any such row."""
    rows = rows.sort_values(["user", "item", "t"])
    user, item = rows["user"].to_numpy(), rows["item"].to_numpy()
    ins = rows["action"].to_numpy() > 0
    same_edge = (user[1:] == user[:-1]) & (item[1:] == item[:-1])
    was_present = np.r_[False, ins[:-1] & same_edge]
    return rows[ins == was_present].sort_values("t").reset_index(drop=True)


def _overlaps(
    edges: Edges, users, checkpoints: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Exact n and S of the tracked ``users``, one slice per checkpoint.

    Reads the users' rows through ``tracked_rows``. On the driver,
    M[c, u, i] = 1 iff user u's occurrence count of item i is odd at
    checkpoint c (``prefix.prefix_parity`` over the cell index
    u·n_items + i), over the tracked users × their distinct items.
    Returns int64 ``n = M.sum(-1)``, shape (n_ckpt, n_users), and
    ``S = M @ Mᵀ``, shape (n_ckpt, n_users, n_users), with rows in the
    order of ``users``.
    """
    users = np.asarray(users, dtype=np.int64)
    raw = tracked_rows(edges, users)
    rows = pd.Index(users).get_indexer(raw["user"].to_numpy(np.int64))
    cols, items = pd.factorize(raw["item"])
    cells, odd = prefix.prefix_parity(rows * len(items) + cols, raw["t"], checkpoints)
    # float64 so the product runs in BLAS; sums of 0/1 stay exact far
    # beyond any item count here (< 2^53).
    M = np.zeros((len(checkpoints), len(users) * len(items)))
    M[:, cells] = odd
    M = M.reshape(len(checkpoints), len(users), len(items))
    S = M @ M.transpose(0, 2, 1)
    return M.sum(-1).astype(np.int64), S.astype(np.int64)


def select_tracked(
    edges: Edges, top_n: int
) -> tuple[np.ndarray, pd.DataFrame]:
    """Paper §V selection at final time.

    Returns (tracked user ids ascending, pairs DataFrame with int64
    columns u, v, s_final sorted by (u, v)) — the pairs among the
    ``top_users`` that share at least one item when the whole stream
    has arrived. A Spark stream is collected once, so the top-n and the
    overlaps read the same frame.
    """
    rows = stream_rows(edges)
    users = top_users(rows, top_n)
    _, S = _overlaps(rows, users, [np.iinfo(np.int64).max])
    iu, iv = np.triu_indices(len(users), 1)
    s = S[0, iu, iv]
    keep = s > 0
    pairs = pd.DataFrame({"u": users[iu[keep]], "v": users[iv[keep]], "s_final": s[keep]})
    return users, pairs


def exact_over_time(
    edges: Edges,
    users: Sequence[int],
    pairs: pd.DataFrame,
    checkpoints: Sequence[int],
) -> pd.DataFrame:
    """Exact (u, v, ckpt) → s, n_u, n_v, j for tracked pairs.

    ``users`` may be in any order but must hold every user in ``pairs``.
    Rows come in (ckpt, ``pairs`` row) order: row ``ci·len(pairs) + r``
    is pair ``r`` at checkpoint ``ci``, so each column reshapes to
    (n_checkpoints, n_pairs). Raises ``ValueError`` if the checkpoints
    decrease.
    """
    prefix.prefix_parity([], [], checkpoints)  # reject decreasing checkpoints before reading edges
    n, S = _overlaps(edges, users, checkpoints)
    iu, iv = pair_indices(users, pairs)
    n_ckpt = len(checkpoints)
    out = pd.DataFrame(
        {
            "u": np.tile(pairs["u"].to_numpy(np.int64), n_ckpt),
            "v": np.tile(pairs["v"].to_numpy(np.int64), n_ckpt),
            "ckpt": np.repeat(np.arange(n_ckpt, dtype=np.int64), len(pairs)),
            "s": S[:, iu, iv].ravel(),
            "n_u": n[:, iu].ravel(),
            "n_v": n[:, iv].ravel(),
        }
    )
    out["j"] = estimator.jaccard_from_common(
        out["s"].to_numpy(), out["n_u"].to_numpy(), out["n_v"].to_numpy()
    )
    return out
