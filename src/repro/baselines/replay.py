"""Run-at-a-time snapshot loop shared by the baseline kernels' ``replay``.

A kernel's ``replay`` draws one user's hash inputs (or RP's uniforms) for
the whole edge sub-stream in one vectorised call. This loop then splits
the sub-stream into runs, maximal stretches of same-action edges that no
checkpoint cut splits, and hands each run to the kernel's insert-run or
delete-run rule. Each rule leaves the state that its per-edge ``update``
loop over the same run would leave, so the snapshots are the ones an
``update`` loop takes at the same cuts.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# Register sentinels of the baseline kernels: an empty register's item,
# and the hash an empty MinHash/OPH register compares against.
EMPTY = np.int64(-1)
_MAXH = np.uint64(0xFFFFFFFFFFFFFFFF)


def replay_runs(
    actions,
    cuts: Sequence[int],
    snapshot: Callable[[], np.ndarray],
    insert: Callable[[int, int], None],
    delete: Callable[[int, int], None],
) -> list[np.ndarray]:
    """Call ``insert(a, b)`` or ``delete(a, b)`` for each run of edges
    ``a..b-1`` in order (``actions > 0`` inserts, else deletes).

    Returns one snapshot per cut c (non-decreasing edge counts): the state
    after the first c edges. Cuts past the last edge see the final state.
    """
    ins = np.asarray(actions) > 0
    n = ins.size
    cuts = np.minimum(np.asarray(cuts, dtype=np.int64), n)
    turns = np.flatnonzero(ins[1:] != ins[:-1]) + 1
    bounds = np.unique(np.concatenate(([0, n], turns, cuts))).tolist()
    cuts = cuts.tolist()
    snaps: list[np.ndarray] = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        while len(snaps) < len(cuts) and cuts[len(snaps)] <= a:
            snaps.append(snapshot())
        (insert if ins[a] else delete)(a, b)
    while len(snaps) < len(cuts):
        snaps.append(snapshot())
    return snaps
