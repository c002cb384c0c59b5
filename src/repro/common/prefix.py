"""Prefix counts over arrival time, one column per checkpoint.

Every time-indexed quantity in the reproduction is a count of the edges
that arrived by a checkpoint: a flip count per position (VOS), an
occurrence count per (user, item) (exact membership, and from it n_u).
``prefix_sums`` builds those aggregates for all checkpoints at once, so
one ``groupBy`` pass serves every checkpoint.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import Column
from pyspark.sql import functions as F


def prefix_sums(checkpoints: Sequence[int]) -> list[Column]:
    """One aggregate per checkpoint: the number of rows with arrival
    ``t ≤ c``, aliased ``c0, c1, …`` in checkpoint order. Its parity is
    the xor state at that checkpoint.
    """
    return [
        F.sum(F.when(F.col("t") <= int(c), F.lit(1)).otherwise(F.lit(0))).alias(f"c{i}")
        for i, c in enumerate(checkpoints)
    ]
