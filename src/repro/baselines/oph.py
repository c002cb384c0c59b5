"""One Permutation Hashing extended to fully dynamic streams (paper §III).

One hash h over the item universe; its range is split into k contiguous
bins. An item only competes inside its own bin, so each edge touches
exactly one register — O(1) per edge. Empty bins stay empty (densified
variants are out of the paper's comparison). The deletion extension
mirrors MinHash's: deleting the bin's current minimum empties the bin —
same sampling bias on dynamic streams.

Estimator: Ĵ = Σ_j 1(oph_j(S_u) = oph_j(S_v) ≠ ∅) /
Σ_j 1(oph_j(S_u) ≠ ∅ ∨ oph_j(S_v) ≠ ∅), then ŝ = Ĵ·(n_u+n_v)/(1+Ĵ).
"""
from __future__ import annotations

import numpy as np

from ..common import hashing
from ..core import estimator
from .replay import replay_steps

EMPTY = np.int64(-1)
_MAXH = np.uint64(0xFFFFFFFFFFFFFFFF)


class OPHKernel:
    """Per-user dynamic OPH state: k binned (item, hash) registers."""

    def __init__(self, k: int, seed: int):
        self.k = k
        self.seed = seed
        self.items = np.full(k, EMPTY, dtype=np.int64)
        self.hashes = np.full(k, _MAXH, dtype=np.uint64)

    def update(self, item: int, action: int) -> None:
        h = hashing.oph_values([item], self.seed)[0]
        b = int(hashing.oph_bins([h], self.k)[0])
        self._step(item, action, h, b)

    def replay(self, items, actions, cuts) -> list[np.ndarray]:
        """One user's edges in order; the snapshot after the first c edges
        for each c in ``cuts``. Equals an ``update`` loop, but h and the
        bin of every edge come from one ``oph_values``/``oph_bins`` call."""
        items = np.asarray(items, dtype=np.int64)
        h = hashing.oph_values(items, self.seed)
        bins = hashing.oph_bins(h, self.k)
        actions = np.asarray(actions, dtype=np.int64)
        steps = zip(items.tolist(), actions.tolist(), h, bins.tolist())
        return replay_steps(self._step, self.snapshot, steps, cuts)

    def _step(self, item: int, action: int, h: np.uint64, b: int) -> None:
        """One edge against its bin ``b``: keep the bin minimum, empty on its deletion."""
        if action > 0:
            if self.items[b] == EMPTY or h < self.hashes[b]:
                self.items[b] = item
                self.hashes[b] = h
        elif self.items[b] == item:
            self.items[b] = EMPTY
            self.hashes[b] = _MAXH

    def snapshot(self) -> np.ndarray:
        return self.items.copy()


def static_sketch(items, k: int, seed: int) -> np.ndarray:
    """Reference OPH of a static set (vectorised min per bin)."""
    regs = np.full(k, EMPTY, dtype=np.int64)
    it = np.asarray(items, dtype=np.int64)
    if it.size == 0:
        return regs
    h = hashing.oph_values(it, seed)
    b = hashing.oph_bins(h, k)
    order = np.lexsort((h, b))  # per bin ascending hash; first wins
    bs, first = np.unique(b[order], return_index=True)
    regs[bs] = it[order][first]
    return regs


def estimate_pairs(regs_u: np.ndarray, regs_v: np.ndarray, n_u, n_v):
    """(ŝ, Ĵ) for (n_pairs, k) register matrices."""
    match = (regs_u == regs_v) & (regs_u != EMPTY)
    filled = (regs_u != EMPTY) | (regs_v != EMPTY)
    denom = filled.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        j_hat = np.where(denom > 0, match.sum(axis=-1) / np.maximum(denom, 1), 0.0)
    s_hat = estimator.clamp_common(
        estimator.common_from_jaccard(j_hat, n_u, n_v), n_u, n_v
    )
    return s_hat, np.clip(j_hat, 0.0, 1.0)
