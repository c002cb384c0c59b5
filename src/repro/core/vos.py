"""VOS — virtual odd sketch over a shared bit array (paper §IV).

Structure: a shared bit array ``A`` of ``m`` bits, ``ψ`` mapping items
to {0..k−1}, and ``f_1..f_k`` mapping users to positions in A. Each
edge (u, i, ±) flips the single bit ``A[f_ψ(i)(u)]`` — identical O(1)
work for insertions and deletions, which is exactly why VOS is unbiased
on fully dynamic streams.

Because xor is commutative and associative, the state of A at time t is
the *parity of the flip count per position* over all edges with
arrival ≤ t. So ``build_bit_arrays`` only routes each edge's (pos, t)
to the partition that owns its position, and there
``prefix.prefix_parity`` gives A at every checkpoint in one pass. Its
edges come as a Spark stream, hashed in a ``pandas_udf``
(``with_positions``), or as a pandas frame of stream rows already on the
driver, hashed there in one vectorised call so that Spark receives only
(pos, t) and runs a single Python stage. The estimator reads only β and
the tracked users' bits Ô_u[j] = A[f_j(u)], so the build counts the
1-bits on the executors and, given the positions it should return,
sends the driver bits at those positions only: the bytes collected
scale with tracked users × k, not with m.
``VOSKernel`` is the paper's sequential O(1) update loop, used for the
runtime experiment (Fig 2) and as the reference the distributed builds
are tested against; the Structured Streaming operator lives in
``streaming.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..common import hashing, prefix


@dataclass(frozen=True)
class VOSParams:
    """VOS configuration.

    ``k``: virtual sketch bits per user (the paper sets k = λ·32·k_reg,
    λ = 2 against baselines with k_reg 32-bit registers).
    ``m``: shared bit-array length (paper: m = 32·k_reg·|U| bits, the
    same total memory the baselines use).
    """

    k: int
    m: int
    seed: int = 7

    @staticmethod
    def paper_budget(n_users: int, k_reg: int = 100, lam: int = 2, seed: int = 7) -> "VOSParams":
        """The paper's §V memory accounting: m = 32·k_reg·|U|, k = λ·32·k_reg."""
        return VOSParams(k=lam * 32 * k_reg, m=32 * k_reg * n_users, seed=seed)


def with_positions(edges: DataFrame, params: VOSParams) -> DataFrame:
    """Append the flipped bit position ``pos = f_ψ(item)(user)`` per edge."""
    k, m, seed = params.k, params.m, params.seed

    @F.pandas_udf(T.LongType())
    def pos_udf(user: pd.Series, item: pd.Series) -> pd.Series:
        return pd.Series(
            hashing.vos_positions(
                user.to_numpy(np.int64), item.to_numpy(np.int64), k, m, seed
            )
        )

    return edges.withColumn("pos", pos_udf("user", "item"))


def _positions_and_times(edges: DataFrame | pd.DataFrame, params: VOSParams) -> DataFrame:
    """The (pos, t) rows of ``edges`` as a Spark frame. A pandas frame is
    hashed on the driver and its two columns go to the active session as
    one Arrow table over the numpy arrays, which the driver drops once
    they are shipped. A Spark stream is hashed in its own Python stage by
    ``with_positions``."""
    if not isinstance(edges, pd.DataFrame):
        return with_positions(edges, params).select("pos", "t")
    pos = hashing.vos_positions(
        edges["user"].to_numpy(np.int64),
        edges["item"].to_numpy(np.int64),
        params.k,
        params.m,
        params.seed,
    )
    pos_t = pa.table({"pos": pos, "t": edges["t"].to_numpy(np.int64)})
    return SparkSession.active().createDataFrame(pos_t)


def build_bit_arrays(
    edges: DataFrame | pd.DataFrame,
    params: VOSParams,
    checkpoints: Sequence[int],
    at: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Build A at each checkpoint time in one distributed pass.

    ``edges`` is a Spark stream or a pandas frame of stream rows (the
    ``exact.Edges`` convention). A pandas frame is hashed on the driver
    and only its (pos, t) go to Spark, in the active session, so the
    build runs one Python stage; a Spark stream is hashed in a
    ``pandas_udf`` stage before the shuffle.

    Returns ``(bits, beta)``. ``beta[c]`` is the fraction of 1-bits in
    A at checkpoint c. ``bits`` is a uint8 matrix with one row per
    checkpoint: the whole of A, (n_checkpoints, m), or, when ``at`` (a
    sorted array of unique positions) is given, A at those positions
    only, (n_checkpoints, len(at)).

    One shuffle routes each edge's (pos, t) by position. A
    ``mapInPandas`` step after it takes every checkpoint's parities of its
    partition's positions with ``prefix.prefix_parity``, counts the
    partition's 1-bits per checkpoint, and emits that partial count plus
    the rows that have a 1-bit at a requested position (any position
    when ``at`` is None). The driver sums the partials into β and
    receives no other position, so with ``at`` it never allocates an
    m-sized array. Raises ``ValueError`` if the checkpoints decrease.
    """
    cps = [int(c) for c in checkpoints]
    prefix.prefix_parity([], [], cps)  # reject decreasing checkpoints before any Spark job
    keep = None if at is None else np.asarray(at, dtype=np.int64)
    if keep is not None and (keep.ndim != 1 or np.any(np.diff(keep) <= 0)):
        raise ValueError("at must be a sorted 1-D array of unique positions")
    cols = [f"c{i}" for i in range(len(cps))]
    schema = T.StructType(
        [T.StructField(name, T.LongType()) for name in ["pos", *cols]]
    )

    def emit(batches):
        pos_t = np.concatenate(
            [np.empty((0, 2), np.int64), *(pdf.to_numpy(np.int64) for pdf in batches)]
        )
        pos, bits = prefix.prefix_parity(pos_t[:, 0], pos_t[:, 1], cps)
        hit = bits.any(axis=0)
        if keep is not None:
            hit &= np.isin(pos, keep)
        out = pd.DataFrame(bits[:, hit].T, columns=cols)
        out.insert(0, "pos", pos[hit])
        yield out
        # A row with pos = -1 carries this partition's 1-bit count per checkpoint.
        yield pd.DataFrame([[-1, *bits.sum(axis=1)]], columns=["pos", *cols])

    rows = (
        _positions_and_times(edges, params)
        .repartition("pos")  # every row of a position lands in one partition
        .mapInPandas(emit, schema)
        .toPandas()
    )
    pos = rows["pos"].to_numpy(np.int64)
    vals = rows[cols].to_numpy(np.int64)
    partial = pos < 0
    bits = np.zeros((len(cps), params.m if keep is None else len(keep)), dtype=np.uint8)
    slot = pos[~partial] if keep is None else np.searchsorted(keep, pos[~partial])
    bits[:, slot] = vals[~partial].T
    return bits, vals[partial].sum(axis=0) / params.m


def user_positions(users, params: VOSParams) -> np.ndarray:
    """f_j(u) for j = 0..k−1 per user — (n_users, k) int64 positions in A."""
    us = np.asarray(users, dtype=np.int64)
    j = np.arange(params.k, dtype=np.int64)
    return hashing.f_positions(us[:, None], j[None, :], params.m, params.seed)


def rebuild_user_sketches(users, A_row: np.ndarray, params: VOSParams) -> np.ndarray:
    """Ô_u[j] = A[f_j(u)] for each user — (n_users, k) uint8 matrix."""
    return A_row[user_positions(users, params)]


class VOSKernel:
    """Sequential O(1)-per-edge VOS update — the paper's Algorithm.

    Maintains A, the running 1-bit fraction β (the paper's incremental
    counter), and per-user item counters n_u. Used by the Fig 2 runtime
    harness and as the ground truth for the distributed builds.
    """

    def __init__(self, params: VOSParams):
        self.params = params
        self.A = np.zeros(params.m, dtype=np.uint8)
        self.ones = 0
        self.n: dict[int, int] = {}

    @property
    def beta(self) -> float:
        return self.ones / self.params.m

    def update(self, user: int, item: int, action: int) -> None:
        """Process one edge: one hash, one bit flip, two counter bumps."""
        p = self.params
        pos = int(hashing.vos_positions([user], [item], p.k, p.m, p.seed)[0])
        new = self.A[pos] ^ 1
        self.A[pos] = new
        # β ← β ± 1/m, the paper's running-fraction update, kept exact
        # as an integer 1-bit count.
        self.ones += 1 if new else -1
        self.n[user] = self.n.get(user, 0) + (1 if action > 0 else -1)

    def sketch(self, user: int) -> np.ndarray:
        """Rebuilt virtual sketch Ô_u of one user."""
        return rebuild_user_sketches([user], self.A, self.params)[0]
