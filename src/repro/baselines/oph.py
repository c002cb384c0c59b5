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
from .replay import _MAXH, EMPTY, replay_runs


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
        bin of every edge come from one ``oph_values``/``oph_bins`` call,
        and each run of same-action edges is applied at once."""
        items = np.asarray(items, dtype=np.int64)
        h = hashing.oph_values(items, self.seed)
        bins = hashing.oph_bins(h, self.k)
        return replay_runs(
            actions,
            cuts,
            self.snapshot,
            insert=lambda a, b: self._insert_run(items[a:b], h[a:b], bins[a:b]),
            delete=lambda a, b: self._delete_run(items[a:b], bins[a:b]),
        )

    def _insert_run(self, items: np.ndarray, h: np.ndarray, bins: np.ndarray) -> None:
        """A run of inserts: per bin, the run's earliest strict minimum
        enters an empty bin, or beats a filled one only if strictly smaller."""
        bs, rows = _bin_minima(h, bins)
        take = (self.items[bs] == EMPTY) | (h[rows] < self.hashes[bs])
        self.items[bs[take]] = items[rows[take]]
        self.hashes[bs[take]] = h[rows[take]]

    def _delete_run(self, items: np.ndarray, bins: np.ndarray) -> None:
        """A run of deletes: a bin empties if the run deletes its item."""
        hit = bins[self.items[bins] == items]
        self.items[hit] = EMPTY
        self.hashes[hit] = _MAXH

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
    bs, rows = _bin_minima(h, hashing.oph_bins(h, k))
    regs[bs] = it[rows]
    return regs


def _bin_minima(h: np.ndarray, bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bins hit, row of each bin's minimum hash); of tied rows, the first."""
    order = np.lexsort((h, bins))  # stable: tied rows keep their order
    bs, first = np.unique(bins[order], return_index=True)
    return bs, order[first]


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
