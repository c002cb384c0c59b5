"""Deterministic, vectorised 64-bit hash families for every sketch.

All sketches in this reproduction (VOS, MinHash, OPH) need hash
functions that are (a) deterministic across Spark workers — a pure
function of ``(value, seed)``, never process-local state — and
(b) vectorised, because they run over whole numpy arrays, inside
``pandas_udf`` bodies or on the driver. We use splitmix64, a
well-mixed 64-bit finaliser whose collision probability over the id
ranges used here (< 2^24 ids) is negligible, so a hash value stands in
for the paper's "random permutation" of the item universe.

Families provided:

* ``psi(items, k, seed)`` — the paper's ψ: items → {0..k−1} (VOS/odd
  sketch bit index).
* ``f_positions(users, j, m, seed)`` — the paper's f_j: users →
  {0..m−1} (bit position in the shared array A), indexed by register j.
* ``vos_positions(users, items, k, m, seed)`` — fused
  ``f_{ψ(i)}(u)``, the single O(1) per-edge position computation.
* ``minhash_values(item, k, seed)`` / ``minhash_matrix`` — the k
  independent MinHash functions h_1..h_k.
* ``oph_values`` / ``oph_bins`` — OPH's single hash h and its k
  contiguous range bins.
"""
from __future__ import annotations

import contextlib

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_PAIR_MULT = np.uint64(0x2545F4914F6CDD1D)


def _wrapping(z: np.ndarray):
    """Context in which arithmetic on ``z`` may wrap around 2^64 silently.

    The wrap-around is intended. Only numpy scalar arithmetic (0-d
    operands) reports it, as a RuntimeWarning; array arithmetic wraps
    without one. So only 0-d input enters ``np.errstate``, which costs
    microseconds per call on the per-edge paths.
    """
    return np.errstate(over="ignore") if z.ndim == 0 else contextlib.nullcontext()


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over a uint64 array (or scalar)."""
    z = np.asarray(x, dtype=np.uint64)
    with _wrapping(z):
        z = z + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _as_u64(values) -> np.ndarray:
    """Reinterpret integer input (possibly signed / python ints) as uint64."""
    return np.asarray(values, dtype=np.int64).astype(np.uint64)


def _seed_mix(seed: int) -> np.uint64:
    """One well-mixed word derived from a small integer seed."""
    return splitmix64(np.asarray([seed], dtype=np.uint64))[0]


def hash_u64(values, seed: int) -> np.ndarray:
    """Seeded 64-bit hash of an integer array; uniform over [0, 2^64)."""
    return splitmix64(_as_u64(values) ^ _seed_mix(seed))


def hash_pair_u64(a, b, seed: int) -> np.ndarray:
    """Seeded 64-bit hash of a pair of integer arrays (broadcastable).

    Used where a hash family is indexed by a register number: the family
    index ``b`` is mixed through splitmix before combining, so families
    with adjacent indices are decorrelated.
    """
    av = _as_u64(a)
    bv = splitmix64(_as_u64(b) ^ _seed_mix(seed))
    with _wrapping(av):
        return splitmix64(av * _PAIR_MULT ^ bv)


def psi(items, k: int, seed: int) -> np.ndarray:
    """VOS ψ: map item ids to bit indices {0..k−1}."""
    return (hash_u64(items, seed) % np.uint64(k)).astype(np.int64)


def f_positions(users, j, m: int, seed: int) -> np.ndarray:
    """VOS f_j: map user ids to positions {0..m−1} in the shared array A.

    ``users`` and ``j`` broadcast against each other, so this serves both
    the per-edge case (vector of users, vector of j) and the rebuild case
    (one user, j = 0..k−1).
    """
    return (hash_pair_u64(users, j, seed) % np.uint64(m)).astype(np.int64)


def vos_positions(users, items, k: int, m: int, seed: int) -> np.ndarray:
    """Fused ``f_{ψ(i)}(u)`` — the one bit each edge flips. O(1)/edge."""
    j = psi(items, k, seed)
    return f_positions(users, j, m, seed)


# --- MinHash ---------------------------------------------------------------

def minhash_values(item: int, k: int, seed: int) -> np.ndarray:
    """h_1(i)..h_k(i) for a single item — the O(k) per-edge MinHash work."""
    return hash_pair_u64(np.full(k, item, dtype=np.int64), np.arange(k), seed)


def minhash_matrix(items, k: int, seed: int) -> np.ndarray:
    """(len(items), k) matrix of h_j(i) — for set-at-once reference builds."""
    it = np.asarray(items, dtype=np.int64)
    return hash_pair_u64(it[:, None], np.arange(k)[None, :], seed)


# --- OPH -------------------------------------------------------------------

def oph_values(items, seed: int) -> np.ndarray:
    """OPH's single hash h over the full 64-bit range."""
    return hash_u64(items, seed)


def oph_bins(hash_values: np.ndarray, k: int) -> np.ndarray:
    """Contiguous range bin of a 64-bit hash: floor(k·h / 2^64).

    Computed from the top 32 bits in integer arithmetic to avoid float
    rounding at the bin boundaries; exact for k ≤ 2^32.
    """
    top = np.asarray(hash_values, dtype=np.uint64) >> np.uint64(32)
    return ((top * np.uint64(k)) >> np.uint64(32)).astype(np.int64)
