"""``replay`` of each baseline kernel against the per-edge ``update`` loop.

``replay`` draws a user's hash inputs (RP: uniforms) in one vectorised
call; it must give the snapshots an ``update`` loop gives, bit for bit,
at checkpoint cuts computed the way ``driver.sketch_snapshots`` does.
"""
import numpy as np
import pytest

from repro.baselines import driver, rp

K, SEED, USER = 8, 5, 42
METHODS = ["minhash", "oph", "rp"]


def user_stream(seed, n_edges=300, universe=12):
    """A feasible sub-stream (t, items, actions) on a small item universe.

    Deletes only present items and inserts only absent ones; the small
    universe makes deletions of register minima and re-inserts common.
    Times increase with gaps, as a user's edges do inside the full stream.
    """
    rng = np.random.default_rng(seed)
    present: set[int] = set()
    items, actions = [], []
    while len(items) < n_edges:
        item = int(rng.integers(universe))
        if item in present:
            if rng.random() < 0.5:
                present.discard(item)
                items.append(item)
                actions.append(-1)
        else:
            present.add(item)
            items.append(item)
            actions.append(1)
    t = 100 + np.cumsum(rng.integers(1, 4, size=n_edges))
    return t, np.asarray(items, np.int64), np.asarray(actions, np.int64)


def checkpoints_for(t, seed):
    """Sorted checkpoints: one before the first edge, one equal to an
    edge's t and one just before the next edge (the same cut), a few at
    random times, one after the last edge."""
    rng = np.random.default_rng(seed + 1)
    mid = len(t) // 2
    inner = rng.integers(t[0], t[-1], size=3)
    fixed = [t[0] - 1, t[mid], t[mid + 1] - 1, t[-1] + 10]
    return np.sort(np.concatenate([fixed, inner]))


def update_loop(kern, t, items, actions, checkpoints, events):
    """Per-edge reference: snapshot at checkpoint c before the first edge
    with t > c (the loop ``sketch_snapshots`` ran edge by edge)."""
    snaps, ci = [], 0
    cps = list(checkpoints)
    seen: set[int] = set()
    for tt, item, action in zip(t.tolist(), items.tolist(), actions.tolist()):
        while ci < len(cps) and tt > cps[ci]:
            snaps.append(kern.snapshot())
            ci += 1
        if action > 0:
            events["reinsert"] += item in seen
            seen.add(item)
            if isinstance(kern, rp.RPKernel):
                events["pairing"] += bool((kern.c_bad + kern.c_good).any())
        elif (kern.items == item).any():
            events["case2"] += 1
        else:
            events["case3"] += 1
        kern.update(item, action)
    while ci < len(cps):
        snaps.append(kern.snapshot())
        ci += 1
    return snaps


def kernel(method):
    return driver.METHOD_KERNELS[method](USER, K, SEED)


@pytest.mark.parametrize("method", METHODS)
def test_replay_equals_update_loop(method):
    events = {"case2": 0, "case3": 0, "reinsert": 0, "pairing": 0}
    for seed in range(6):
        t, items, actions = user_stream(seed)
        cps = checkpoints_for(t, seed)
        ref_kern = kernel(method)
        ref = update_loop(ref_kern, t, items, actions, cps, events)
        cuts = np.searchsorted(t, cps, side="right")
        assert cuts[0] == 0 and cuts[-1] == len(t)
        rep_kern = kernel(method)
        got = rep_kern.replay(items, actions, cuts)
        assert len(got) == len(ref) == len(cps)
        for ci, (a, b) in enumerate(zip(got, ref)):
            assert a.dtype == b.dtype and (a == b).all(), f"seed {seed} ckpt {ci}"
        if method == "rp":
            # replay consumed exactly the uniforms the update loop drew
            assert rep_kern.rng.random() == ref_kern.rng.random()
    # the streams exercise every branch of the update rules
    assert events["case2"] > 0 and events["case3"] > 0 and events["reinsert"] > 0
    if method == "rp":
        assert events["pairing"] > 0


@pytest.mark.parametrize("method", METHODS)
def test_replay_empty_substream(method):
    snaps = kernel(method).replay([], [], [0, 0, 0])
    assert len(snaps) == 3
    for s in snaps:
        assert (s == kernel(method).snapshot()).all()
