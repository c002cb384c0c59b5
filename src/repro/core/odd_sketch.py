"""Plain odd sketch (Mitzenmacher et al., WWW'14) — numpy reference.

The odd sketch of a set S under hash ψ is the k-bit array
``O[j] = ⊕_{i∈S} 1(ψ(i) = j)`` — the parity of the number of items
hashing to bit j. Two properties the paper builds on, both tested:

* insert/delete of the same item cancel (xor), so O is a function of
  the *net* set only — the key to handling fully dynamic streams;
* ``O(S_u) ⊕ O(S_v) = O(S_u Δ S_v)``, and the expected fraction of
  1-bits in that xor is ``(1 − (1−2/k)^{|S_u Δ S_v|})/2``, inverted to
  estimate the symmetric-difference size. That inversion is
  ``estimator.estimate_n_delta`` at β = 0: a clean odd sketch is a VOS
  sketch with no contamination.

VOS (``vos.py``) virtualises this sketch into a shared bit array; this
module is the uncontaminated reference the VOS tests compare against.
"""
from __future__ import annotations

import numpy as np

from ..common import hashing


def odd_sketch(items, k: int, seed: int) -> np.ndarray:
    """Odd sketch bits (uint8[k]) of an item collection (net parity)."""
    it = np.asarray(items, dtype=np.int64)
    if it.size == 0:
        return np.zeros(k, dtype=np.uint8)
    j = hashing.psi(it, k, seed)
    return (np.bincount(j, minlength=k) % 2).astype(np.uint8)

