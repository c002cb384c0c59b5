"""MinHash extended to fully dynamic streams (paper §III, cases 1–3).

k independent hash functions; register j holds ``φ_j(S_u)``, the item
with minimum ``h_j`` seen so far. The paper's dynamic extension:

* case 1, insert i: take i if the register is empty or ``h_j(i)`` beats
  the current minimum — O(k) per edge;
* case 2, delete i when ``φ_j = i``: register becomes ∅ (the sketch
  cannot know the runner-up — this is the *sampling bias* the paper
  exposes: the register stays empty, or is refilled only by later
  insertions, so it no longer holds a uniform sample of S_u);
* case 3, delete i when ``φ_j ≠ i``: no-op.

Estimator: Ĵ = (1/k)·Σ_j 1(φ_j(S_u) = φ_j(S_v) ≠ ∅), then
ŝ = Ĵ·(n_u + n_v)/(1 + Ĵ) using the exact n_u counters.
"""
from __future__ import annotations

import numpy as np

from ..common import hashing
from ..core import estimator
from .replay import _MAXH, EMPTY, replay_runs


class MinHashKernel:
    """Per-user dynamic MinHash state: k (item, hash) registers."""

    def __init__(self, k: int, seed: int):
        self.k = k
        self.seed = seed
        self.items = np.full(k, EMPTY, dtype=np.int64)
        self.hashes = np.full(k, _MAXH, dtype=np.uint64)

    def update(self, item: int, action: int) -> None:
        h = hashing.minhash_values(item, self.k, self.seed) if action > 0 else None
        self._step(item, action, h)

    def replay(self, items, actions, cuts) -> list[np.ndarray]:
        """One user's edges in order; the snapshot after the first c edges
        for each c in ``cuts``. Equals an ``update`` loop, but the hashes
        of all inserted items come from one ``minhash_matrix`` call, and
        each run of same-action edges is applied at once."""
        items = np.asarray(items, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        inserted = actions > 0
        h = np.zeros((items.size, self.k), dtype=np.uint64)  # rows of deletes unused
        h[inserted] = hashing.minhash_matrix(items[inserted], self.k, self.seed)
        return replay_runs(
            actions,
            cuts,
            self.snapshot,
            insert=lambda a, b: self._insert_run(items[a:b], h[a:b]),
            delete=lambda a, b: self._delete_run(items[a:b]),
        )

    def _insert_run(self, items: np.ndarray, h: np.ndarray) -> None:
        """Case 1 for a run of inserts with (L, k) hashes ``h``. Per
        register, the run's earliest strict minimum is what a per-edge
        loop keeps; it enters an empty register, or beats a filled one
        only if strictly smaller."""
        first = np.argmin(h, axis=0)
        hmin = h[first, np.arange(self.k)]
        take = (self.items == EMPTY) | (hmin < self.hashes)
        self.items[take] = items[first[take]]
        self.hashes[take] = hmin[take]

    def _delete_run(self, items: np.ndarray) -> None:
        """Cases 2–3 for a run of deletes: a register whose item the run
        deletes becomes empty; later deletes in the run cannot refill it."""
        gone = np.isin(self.items, items)
        self.items[gone] = EMPTY
        self.hashes[gone] = _MAXH

    def _step(self, item: int, action: int, h: np.ndarray | None) -> None:
        """The paper's cases 1–3 for one edge; ``h`` = h_1..h_k(item) on insert."""
        if action > 0:
            take = (self.items == EMPTY) | (h < self.hashes)
            self.items[take] = item
            self.hashes[take] = h[take]
        else:
            gone = self.items == item
            self.items[gone] = EMPTY
            self.hashes[gone] = _MAXH

    def snapshot(self) -> np.ndarray:
        return self.items.copy()


def static_sketch(items, k: int, seed: int) -> np.ndarray:
    """Reference MinHash of a static set (argmin over the hash matrix)."""
    it = np.asarray(items, dtype=np.int64)
    if it.size == 0:
        return np.full(k, EMPTY, dtype=np.int64)
    mat = hashing.minhash_matrix(it, k, seed)
    return it[np.argmin(mat, axis=0)]


def estimate_pairs(regs_u: np.ndarray, regs_v: np.ndarray, n_u, n_v):
    """(ŝ, Ĵ) for (n_pairs, k) register matrices of the two pair sides."""
    match = (regs_u == regs_v) & (regs_u != EMPTY)
    j_hat = match.mean(axis=-1)
    s_hat = estimator.clamp_common(
        estimator.common_from_jaccard(j_hat, n_u, n_v), n_u, n_v
    )
    return s_hat, np.clip(j_hat, 0.0, 1.0)
