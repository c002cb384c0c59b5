"""Random Pairing (Gemulla et al., VLDBJ'08) as a similarity baseline.

The paper's third baseline: k *independent* bounded-size-1 RP samplers
per user, each maintaining a uniform random sample of S_u under both
insertions and deletions. RP is unbiased on dynamic streams — unlike
the MinHash/OPH extensions — but because the k samples of u and of v
are drawn independently (not min-wise coordinated), a per-register
match happens only with probability 1/(|S_u|·|S_v|), giving the
high-variance estimator

    ŝ = n_u · n_v · (1/k) · Σ_j 1(φ_j(S_u) = φ_j(S_v) ≠ ∅).

RP bookkeeping per sampler: counters of uncompensated deletions —
``c_b`` ("bad": the deleted item was the sample) and ``c_g`` ("good").
A deletion increments one of them (and voids the sample if bad). An
insertion, while c_b + c_g > 0, is *paired* with a previous deletion:
with probability c_b/(c_b+c_g) it replaces a bad deletion and enters
the sample, else it consumes a good one and is discarded. With no
pending deletions it is a standard size-1 reservoir step (enter with
probability 1/(n+1)). Each edge draws k uniforms → O(k) per edge.
"""
from __future__ import annotations

import numpy as np

from ..common import hashing
from ..core import estimator
from .replay import EMPTY, replay_runs


class RPKernel:
    """Per-user state: k independent RP samplers of sample size 1."""

    def __init__(self, k: int, seed: int, user: int = 0):
        self.k = k
        # Per-(user, seed) deterministic RNG stream, independent across
        # users and of every hash family.
        self.rng = np.random.default_rng(
            int(hashing.hash_pair_u64([user], [seed], 937)[0])
        )
        self.items = np.full(k, EMPTY, dtype=np.int64)
        self.c_bad = np.zeros(k, dtype=np.int64)
        self.c_good = np.zeros(k, dtype=np.int64)
        self.n = 0  # |S_u|, shared by all k samplers

    def update(self, item: int, action: int) -> None:
        self._step(item, action, self.rng.random(self.k) if action > 0 else None)

    def replay(self, items, actions, cuts) -> list[np.ndarray]:
        """One user's edges in order; the snapshot after the first c edges
        for each c in ``cuts``. Equals an ``update`` loop: one
        ``random((n_inserts, k))`` call yields the numbers of n_inserts
        sequential ``random(k)`` draws, in the same order, and each run
        of same-action edges is applied at once."""
        items = np.asarray(items, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        inserted = actions > 0
        r = np.zeros((items.size, self.k))  # rows of deletes unused
        r[inserted] = self.rng.random((int(inserted.sum()), self.k))
        return replay_runs(
            actions,
            cuts,
            self.snapshot,
            insert=lambda a, b: self._insert_run(items[a:b], r[a:b]),
            delete=lambda a, b: self._delete_run(items[a:b]),
        )

    def _insert_run(self, items: np.ndarray, r: np.ndarray) -> None:
        """A run of inserts with (L, k) uniforms ``r``.

        Every deletion adds 1 to each sampler's c_b or c_g and every
        paired insertion takes 1 away, so the pending count c_b + c_g is
        the same P for all k samplers. The first min(L, P) inserts are
        pairing steps, one k-vector step each; the rest are reservoir
        steps. A sampler's sample is the last row that entered it.
        """
        pend = int(self.c_bad[0] + self.c_good[0])
        paired = min(len(items), pend)
        steps = np.arange(len(items))
        enter = np.empty(r.shape, dtype=bool)
        # pairing step i: compensate a bad deletion w.p. c_b/(P − i)
        thresholds = r[:paired] * (pend - steps[:paired])[:, None]
        for i in range(paired):
            np.less(thresholds[i], self.c_bad, out=enter[i])
            self.c_bad -= enter[i]
        self.c_good -= paired - enter[:paired].sum(axis=0)
        # reservoir step i: enter w.p. 1/(n + i + 1), n before the run
        enter[paired:] = r[paired:] * (self.n + 1 + steps[paired:])[:, None] < 1.0
        hit = enter.any(axis=0)
        last = len(items) - 1 - np.argmax(enter[::-1], axis=0)
        self.items[hit] = items[last[hit]]
        self.n += len(items)

    def _delete_run(self, items: np.ndarray) -> None:
        """A run of deletes: a sampler whose sample the run deletes counts
        one bad deletion and L − 1 good ones; every other sampler L good."""
        was_sample = np.isin(self.items, items)
        self.items[was_sample] = EMPTY
        self.c_bad += was_sample
        self.c_good += len(items) - was_sample
        self.n -= len(items)

    def _step(self, item: int, action: int, r: np.ndarray | None) -> None:
        """One edge; ``r`` holds the k samplers' uniforms on insert."""
        if action > 0:
            pend = self.c_bad + self.c_good
            fresh = pend == 0
            # reservoir step where no deletions are pending
            enter = fresh & (r * (self.n + 1) < 1.0)
            self.items[enter] = item
            # pairing step: compensate a bad deletion w.p. c_b/(c_b+c_g)
            paired = ~fresh
            comp = paired & (r * pend < self.c_bad)
            self.items[comp] = item
            self.c_bad[comp] -= 1
            good = paired & ~comp
            self.c_good[good] -= 1
            self.n += 1
        else:
            was_sample = self.items == item
            self.items[was_sample] = EMPTY
            self.c_bad[was_sample] += 1
            self.c_good[~was_sample] += 1
            self.n -= 1

    def snapshot(self) -> np.ndarray:
        return self.items.copy()


def estimate_pairs(regs_u: np.ndarray, regs_v: np.ndarray, n_u, n_v):
    """(ŝ, Ĵ) from independent-sample match counts."""
    match = (regs_u == regs_v) & (regs_u != EMPTY)
    nu = np.asarray(n_u, dtype=np.float64)
    nv = np.asarray(n_v, dtype=np.float64)
    s_raw = nu * nv * match.mean(axis=-1)
    s_hat = estimator.clamp_common(s_raw, nu, nv)
    return s_hat, estimator.jaccard_from_common(s_hat, nu, nv)
