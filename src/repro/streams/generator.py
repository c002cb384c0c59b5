"""Fully dynamic graph stream generator (Trièst-style mass deletion).

The paper evaluates on real OSN bipartite graphs turned into fully
dynamic streams "following the experiment settings in [15] (Trièst)"
with parameters ``q = 2,000,000`` and ``d = 0.5``: the stream is the
graph's edges as insertions, except that once ``q`` insertions have
arrived, a mass-deletion burst deletes each currently-present edge
independently with probability ``d`` (the deletions appear in the
stream in random order), after which the remaining insertions continue.

This module reproduces that model over synthetic Zipf bipartite edge
sets (see ``datasets.py`` for the scaled stand-ins for YouTube / Flickr
/ Orkut / LiveJournal). Streams are *feasible* by construction — an
edge is deleted only while present and never re-inserted — which the
paper assumes and the tests verify.

Schema of a stream (pandas or Spark): ``t`` int64 (1-based arrival
position), ``user`` int64, ``item`` int64, ``action`` int64 (+1 = "+",
−1 = "−").
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

STREAM_SCHEMA = T.StructType(
    [
        T.StructField("t", T.LongType(), False),
        T.StructField("user", T.LongType(), False),
        T.StructField("item", T.LongType(), False),
        T.StructField("action", T.LongType(), False),
    ]
)


def zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Normalised Zipf(alpha) probability vector over ranks 1..n."""
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** alpha
    return w / w.sum()


def bipartite_edges(
    *,
    n_users: int,
    n_items: int,
    n_edges: int,
    alpha_user: float = 0.8,
    alpha_item: float = 0.7,
    seed: int = 0,
) -> pd.DataFrame:
    """Sample ``n_edges`` *distinct* (user, item) edges with Zipf-skewed
    user and item degrees — heavy users with hundreds of subscriptions,
    matching the paper's focus on largest-cardinality users.

    User ids are 1..n_users, item ids 1..n_items (id = popularity rank).
    Rejection-samples duplicates in vectorised rounds; deterministic in
    ``seed``.
    """
    g = np.random.default_rng(seed)
    wu = zipf_weights(n_users, alpha_user)
    wi = zipf_weights(n_items, alpha_item)
    users = np.empty(0, dtype=np.int64)
    items = np.empty(0, dtype=np.int64)
    want = n_edges
    for _ in range(64):  # vectorised rejection rounds; converges fast
        if want <= 0:
            break
        batch = max(1024, int(want * 1.6))
        bu = g.choice(n_users, size=batch, p=wu).astype(np.int64) + 1
        bi = g.choice(n_items, size=batch, p=wi).astype(np.int64) + 1
        key = bu * np.int64(1 << 32) + bi
        # keep each key's first draw in this round, unless already taken
        keep = np.zeros(batch, dtype=bool)
        keep[np.unique(key, return_index=True)[1]] = True
        keep &= ~np.isin(key, users * np.int64(1 << 32) + items)
        new = np.flatnonzero(keep)[:want]
        users = np.concatenate([users, bu[new]])
        items = np.concatenate([items, bi[new]])
        want = n_edges - users.size
    if users.size < n_edges:
        raise ValueError(
            f"could not sample {n_edges} distinct edges from a "
            f"{n_users}x{n_items} bipartite universe (got {users.size})"
        )
    return pd.DataFrame({"user": users, "item": items})


def dynamic_stream(
    edges: pd.DataFrame,
    *,
    q: int,
    d: float = 0.5,
    seed: int = 0,
) -> pd.DataFrame:
    """Turn a distinct-edge set into a fully dynamic stream.

    Insertions arrive in random order. After the first ``q`` insertions,
    each present edge is independently deleted with probability ``d``
    (deletions in random order), then the remaining insertions follow.
    ``q`` is clamped to the number of edges. Feasible by construction.
    """
    g = np.random.default_rng(seed + 1_000_003)
    n = len(edges)
    order = g.permutation(n)
    u = edges["user"].to_numpy(np.int64)[order]
    i = edges["item"].to_numpy(np.int64)[order]
    q = int(min(max(q, 0), n))
    del_mask = g.random(q) < d
    del_idx = np.flatnonzero(del_mask)
    g.shuffle(del_idx)
    users = np.concatenate([u[:q], u[del_idx], u[q:]])
    items = np.concatenate([i[:q], i[del_idx], i[q:]])
    actions = np.concatenate(
        [
            np.ones(q, dtype=np.int64),
            -np.ones(del_idx.size, dtype=np.int64),
            np.ones(n - q, dtype=np.int64),
        ]
    )
    return pd.DataFrame(
        {
            "t": np.arange(1, users.size + 1, dtype=np.int64),
            "user": users,
            "item": items,
            "action": actions,
        }
    )


def to_spark(spark: SparkSession, stream: pd.DataFrame) -> DataFrame:
    """Stream pandas → Spark with the canonical schema."""
    return spark.createDataFrame(stream, schema=STREAM_SCHEMA)


def net_state(stream: pd.DataFrame, t: int | None = None) -> pd.DataFrame:
    """Exact present-edge set at time ``t`` (pandas reference).

    Membership is the parity of each (user, item)'s occurrence count —
    valid exactly because feasible streams alternate +/− per edge.
    """
    s = stream if t is None else stream[stream["t"] <= t]
    cnt = s.groupby(["user", "item"], as_index=False).size()
    present = cnt[cnt["size"] % 2 == 1]
    return present[["user", "item"]].reset_index(drop=True)
