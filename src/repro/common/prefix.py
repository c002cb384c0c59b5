"""Prefix parity over arrival time, for every checkpoint in one pass.

Every time-indexed quantity in the reproduction is the parity of a count
of the rows that arrived by a checkpoint: a flip count per position
(VOS), an occurrence count per (user, item) (exact membership, and from
it n_u). xor is order-independent, so each row's key and arrival time
are all ``prefix_parity`` needs.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


def prefix_parity(keys, t, checkpoints: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` (ascending) and, per checkpoint c, the parity
    of each key's number of rows with arrival ``t ≤ c``: an int64 0/1
    matrix, (n_checkpoints, n_keys). A key with no row by the last
    checkpoint reads 0. Raises ``ValueError`` if the checkpoints decrease.
    """
    cps = np.asarray(checkpoints, dtype=np.int64)
    if np.any(np.diff(cps) < 0):
        raise ValueError("checkpoints must be non-decreasing")
    uniq, col = np.unique(np.asarray(keys, dtype=np.int64), return_inverse=True)
    first = np.searchsorted(cps, np.asarray(t, dtype=np.int64))  # first checkpoint counting the row
    counts = np.bincount(first * len(uniq) + col, minlength=(len(cps) + 1) * len(uniq))
    return uniq, counts.reshape(len(cps) + 1, len(uniq))[:-1].cumsum(axis=0) & 1
