"""Exact ground truth: memberships, cardinalities, and pair similarities.

On a feasible dynamic stream, item i is in S_u at time t iff the number
of (u, i, ·) elements with arrival ≤ t is odd (insertions and deletions
of an edge strictly alternate). Every exact quantity derives from that
parity rule:

* ``present`` / ``cardinalities`` — the final state as Spark DataFrames
  (one parity aggregation).
* ``select_tracked`` — the paper's §V selection: users with the largest
  final cardinalities (the top-n is taken in Spark, so only the chosen
  users reach the driver), pairs among them sharing ≥ 1 item at the end.
* ``exact_over_time`` — the evaluation path: s, n_u, n_v and J of the
  tracked pairs at every checkpoint.

Both tracked-user functions collect the tracked users' raw (user, item,
t) rows with a narrow filter, take every checkpoint's membership with
``prefix.prefix_parity`` and compute every pair overlap on the driver as
a membership-matrix product (``_overlaps``): tracked users are a few
dozen, their distinct items a few thousand.
The DuckDB oracle cross-checks all four functions in the tests.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..common import prefix
from ..core import estimator


def present(edges: DataFrame) -> DataFrame:
    """Edges present at the stream end (columns user, item) via parity."""
    return (
        edges.groupBy("user", "item")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .where(F.col("cnt") % 2 == 1)
        .select("user", "item")
    )


def cardinalities(edges: DataFrame) -> DataFrame:
    """|S_u| at the stream end, one row per user with a non-empty set."""
    return present(edges).groupBy("user").agg(F.count(F.lit(1)).alias("n"))


def pair_indices(users, pairs: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of each pair's two users in ``users`` (unique ids, any
    order). Raises ``ValueError`` if a pair names a user not in ``users``."""
    index = pd.Index(np.asarray(users, dtype=np.int64))
    iu = index.get_indexer(pairs["u"].to_numpy(np.int64))
    iv = index.get_indexer(pairs["v"].to_numpy(np.int64))
    if (iu < 0).any() or (iv < 0).any():
        raise ValueError("pairs name a user that is not in users")
    return iu, iv


def _overlaps(
    edges: DataFrame, users, checkpoints: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Exact n and S of the tracked ``users``, one slice per checkpoint.

    One narrow Spark query collects the tracked users' raw (user, item,
    t) rows. On the driver, M[c, u, i] = 1 iff user u's occurrence count
    of item i is odd at checkpoint c (``prefix.prefix_parity`` over the
    cell index u·n_items + i), over the tracked users × their distinct
    items. Returns int64 ``n = M.sum(-1)``, shape (n_ckpt, n_users), and
    ``S = M @ Mᵀ``, shape (n_ckpt, n_users, n_users), with rows in the
    order of ``users``.
    """
    users = np.asarray(users, dtype=np.int64)
    raw = edges.where(F.col("user").isin(users.tolist())).select("user", "item", "t").toPandas()
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
    edges: DataFrame, top_n: int
) -> tuple[np.ndarray, pd.DataFrame]:
    """Paper §V selection at final time.

    Returns (tracked user ids ascending, pairs DataFrame with int64
    columns u, v, s_final sorted by (u, v)) — the pairs among the
    ``top_n`` largest-cardinality users that share at least one item
    when the whole stream has arrived. Ties broken by user id for
    determinism.
    """
    top = cardinalities(edges).orderBy(F.desc("n"), "user").limit(top_n).toPandas()
    users = np.sort(top["user"].to_numpy(np.int64))
    _, S = _overlaps(edges, users, [np.iinfo(np.int64).max])
    iu, iv = np.triu_indices(len(users), 1)
    s = S[0, iu, iv]
    keep = s > 0
    pairs = pd.DataFrame({"u": users[iu[keep]], "v": users[iv[keep]], "s_final": s[keep]})
    return users, pairs


def exact_over_time(
    edges: DataFrame,
    users: Sequence[int],
    pairs: pd.DataFrame,
    checkpoints: Sequence[int],
) -> pd.DataFrame:
    """Exact (u, v, ckpt) → s, n_u, n_v, j for tracked pairs.

    ``users`` may be in any order but must hold every user in ``pairs``.
    Rows come in (ckpt, ``pairs`` row) order: row ``ci·len(pairs) + r``
    is pair ``r`` at checkpoint ``ci``, so each column reshapes to
    (n_checkpoints, n_pairs).
    """
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
