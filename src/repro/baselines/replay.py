"""Snapshot loop shared by the baseline kernels' ``replay``.

A kernel's ``replay`` draws one user's hash inputs (or RP's uniforms) for
the whole edge sub-stream in one vectorised call, then hands this loop
one argument tuple per edge for the same ``_step`` its per-edge
``update`` runs. So the per-edge rule exists once, and the snapshots are
the ones an ``update`` loop would take at the same cuts.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

# Register sentinels of the baseline kernels: an empty register's item,
# and the hash an empty MinHash/OPH register compares against.
EMPTY = np.int64(-1)
_MAXH = np.uint64(0xFFFFFFFFFFFFFFFF)


def replay_steps(
    step: Callable[..., None],
    snapshot: Callable[[], np.ndarray],
    steps: Iterable[tuple],
    cuts: Sequence[int],
) -> list[np.ndarray]:
    """Call ``step(*args)`` for each edge's ``args`` in order.

    Returns one snapshot per cut c (non-decreasing edge counts): the state
    after the first c edges. Cuts past the last edge see the final state.
    """
    cuts = [int(c) for c in cuts]
    snaps: list[np.ndarray] = []
    for e, args in enumerate(steps):
        while len(snaps) < len(cuts) and cuts[len(snaps)] <= e:
            snaps.append(snapshot())
        step(*args)
    while len(snaps) < len(cuts):
        snaps.append(snapshot())
    return snaps
