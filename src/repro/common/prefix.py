"""Prefix aggregates over arrival time, one column per checkpoint.

Every time-indexed quantity in the reproduction is a sum over the edges
that arrived by a checkpoint: a flip count per position (VOS), an
occurrence count per (user, item) (exact membership), a running action
sum per user (n_u). ``prefix_sums`` builds those aggregates for all
checkpoints at once, so one ``groupBy`` pass serves every checkpoint.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import Column
from pyspark.sql import functions as F


def prefix_sums(checkpoints: Sequence[int], value: Column | None = None) -> list[Column]:
    """One aggregate per checkpoint: the sum of ``value`` over the rows
    with arrival ``t ≤ c``, aliased ``c0, c1, …`` in checkpoint order.

    ``value`` defaults to 1, which makes each column a row count; its
    parity is the xor state at that checkpoint.
    """
    v = F.lit(1) if value is None else value
    return [
        F.sum(F.when(F.col("t") <= int(c), v).otherwise(F.lit(0))).alias(f"c{i}")
        for i, c in enumerate(checkpoints)
    ]
