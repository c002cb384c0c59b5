"""``replay`` of each baseline kernel against the per-edge ``update`` loop.

``replay`` draws a user's hash inputs (RP: uniforms) in one vectorised
call and applies each run of same-action edges at once; it must give the
snapshots and leave the state an ``update`` loop gives, bit for bit, at
checkpoint cuts computed the way ``driver.sketch_snapshots`` does.
"""
import numpy as np
import pytest

from repro.baselines import driver, minhash, rp
from repro.baselines.replay import EMPTY
from repro.common import hashing

K, SEED, USER = 8, 5, 42
METHODS = ["minhash", "oph", "rp"]
# The whole kernel state an ``update`` loop leaves behind.
STATE = {
    "minhash": ("items", "hashes"),
    "oph": ("items", "hashes"),
    "rp": ("items", "c_bad", "c_good", "n"),
}
EVENTS = (
    "case2", "case3", "reinsert", "pairing", "tie",
    "cut_in_insert_run", "cut_in_delete_run", "pending_runs_out", "pending_left",
)


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


def triest_stream(seed, n_insert, n_delete, n_reinsert, universe=60):
    """A Trièst-shaped sub-stream (t, items, actions): a run of n_insert
    inserts, a burst of n_delete deletions of them, then a run of
    n_reinsert inserts of absent items (re-inserts and new ones)."""
    rng = np.random.default_rng(seed)
    first = rng.choice(universe, n_insert, replace=False)
    burst = rng.choice(first, n_delete, replace=False)
    absent = np.setdiff1d(np.arange(universe), np.setdiff1d(first, burst))
    again = rng.choice(absent, n_reinsert, replace=False)
    items = np.concatenate([first, burst, again]).astype(np.int64)
    actions = np.repeat(np.array([1, -1, 1], np.int64), [n_insert, n_delete, n_reinsert])
    t = 100 + np.cumsum(rng.integers(1, 4, size=items.size))
    return t, items, actions


def triest_checkpoints(t, n_insert, n_delete):
    """Checkpoints before the first edge, inside each run, at the end of
    the first insert run (twice), and after the last edge."""
    burst_end = n_insert + n_delete
    inside = [n_insert // 2, n_insert + n_delete // 2, (burst_end + len(t)) // 2]
    ends = [n_insert - 1, n_insert - 1]
    return np.sort(np.concatenate([[t[0] - 1], t[inside], t[ends], [t[-1] + 10]]))


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
            else:
                events["tie"] += tied(kern, item)
        elif (kern.items == item).any():
            events["case2"] += 1
        else:
            events["case3"] += 1
        kern.update(item, action)
    while ci < len(cps):
        snaps.append(kern.snapshot())
        ci += 1
    return snaps


def tied(kern, item):
    """Whether inserting ``item`` meets a filled MinHash/OPH register whose
    hash equals the item's: the strict rule keeps the register's item."""
    if isinstance(kern, minhash.MinHashKernel):
        h = hashing.minhash_values(item, kern.k, kern.seed)
        return bool(((kern.items != EMPTY) & (kern.hashes == h)).any())
    h = hashing.oph_values([item], kern.seed)
    b = hashing.oph_bins(h, kern.k)[0]
    return bool(kern.items[b] != EMPTY and kern.hashes[b] == h[0])


def run_events(actions, cuts, events):
    """Count the run shapes ``replay`` meets: cuts that split a run of
    inserts or of deletes, and insert runs (split at the cuts) in which
    RP's pending-deletion count runs out or does not."""
    n, cut_set = len(actions), set(cuts.tolist())
    for c in cut_set:
        if 0 < c < n and actions[c - 1] == actions[c]:
            events["cut_in_insert_run" if actions[c] > 0 else "cut_in_delete_run"] += 1
    pending, start = 0, 0
    for e in range(1, n + 1):
        if e < n and actions[e] == actions[e - 1] and e not in cut_set:
            continue
        length, start = e - start, e
        if actions[e - 1] < 0:
            pending += length
        elif pending:
            events["pending_runs_out" if pending < length else "pending_left"] += 1
            pending = max(pending - length, 0)


def kernel(method):
    return driver.METHOD_KERNELS[method](USER, K, SEED)


def assert_replay_matches(method, t, items, actions, cps, events, label):
    """``replay`` at the cuts of ``cps`` gives the update loop's snapshots
    and leaves its whole state; counts the events both paths met."""
    ref_kern = kernel(method)
    ref = update_loop(ref_kern, t, items, actions, cps, events)
    cuts = np.searchsorted(t, cps, side="right")
    assert cuts[0] == 0 and cuts[-1] == len(t)
    run_events(actions, cuts, events)
    rep_kern = kernel(method)
    got = rep_kern.replay(items, actions, cuts)
    assert len(got) == len(ref) == len(cps)
    for ci, (a, b) in enumerate(zip(got, ref)):
        assert a.dtype == b.dtype and (a == b).all(), f"{label} ckpt {ci}"
    for name in STATE[method]:
        a, b = np.asarray(getattr(rep_kern, name)), np.asarray(getattr(ref_kern, name))
        assert a.dtype == b.dtype and np.array_equal(a, b), f"{label} {name}"
    if method == "rp":
        # replay consumed exactly the uniforms the update loop drew
        assert rep_kern.rng.random() == ref_kern.rng.random()


# (n_insert, n_delete, n_reinsert): RP's pending count runs out inside
# the last insert run, or is still left when the stream ends.
TRIEST_SHAPES = [(30, 20, 30), (30, 20, 10)]


def random_streams():
    """(label, t, items, actions, checkpoints) of the random sub-streams."""
    for seed in range(6):
        t, items, actions = user_stream(seed)
        yield f"seed {seed}", t, items, actions, checkpoints_for(t, seed)


def triest_streams():
    """The same for the Trièst-shaped sub-streams, cut inside every run."""
    for shape in TRIEST_SHAPES:
        for seed in range(3):
            t, items, actions = triest_stream(seed, *shape)
            yield f"{shape} seed {seed}", t, items, actions, triest_checkpoints(t, *shape[:2])


@pytest.mark.parametrize("method", METHODS)
def test_replay_equals_update_loop(method):
    events = dict.fromkeys(EVENTS, 0)
    for label, t, items, actions, cps in random_streams():
        assert_replay_matches(method, t, items, actions, cps, events, label)
    # the streams exercise every branch of the update rules
    assert events["case2"] > 0 and events["case3"] > 0 and events["reinsert"] > 0
    if method == "rp":
        assert events["pairing"] > 0


@pytest.mark.parametrize("method", METHODS)
def test_replay_equals_update_loop_on_triest_bursts(method):
    """Insert run, deletion burst, insert run, with cuts inside every run."""
    events = dict.fromkeys(EVENTS, 0)
    for label, t, items, actions, cps in triest_streams():
        assert_replay_matches(method, t, items, actions, cps, events, label)
    for name in ("case2", "case3", "reinsert", "cut_in_insert_run", "cut_in_delete_run"):
        assert events[name] > 0, name
    if method == "rp":
        for name in ("pairing", "pending_runs_out", "pending_left"):
            assert events[name] > 0, name


@pytest.mark.parametrize("method", ["minhash", "oph"])
def test_replay_equals_update_loop_with_hash_ties(method, monkeypatch):
    """Hashes squeezed to 3 values, on both paths: of tied rows in a run
    the earliest wins, an empty register takes the first insert, and a
    tie never displaces a filled register."""
    wide = {name: getattr(hashing, name) for name in ("minhash_values", "minhash_matrix", "oph_values")}
    three = np.uint64(3)
    # K is a power of two, so the top log2(K) bits pick the OPH bin.
    bin_bits = ~np.uint64((1 << (64 - (K - 1).bit_length())) - 1)

    def oph_values(*args):
        h = wide["oph_values"](*args)
        return (h & bin_bits) | (h % three)

    monkeypatch.setattr(hashing, "minhash_values", lambda *a: wide["minhash_values"](*a) % three)
    monkeypatch.setattr(hashing, "minhash_matrix", lambda *a: wide["minhash_matrix"](*a) % three)
    monkeypatch.setattr(hashing, "oph_values", oph_values)
    events = dict.fromkeys(EVENTS, 0)
    for label, t, items, actions, cps in [*random_streams(), *triest_streams()]:
        assert_replay_matches(method, t, items, actions, cps, events, label)
    assert events["tie"] > 0 and events["case2"] > 0


@pytest.mark.parametrize("method", METHODS)
def test_replay_empty_substream(method):
    snaps = kernel(method).replay([], [], [0, 0, 0])
    assert len(snaps) == 3
    for s in snaps:
        assert (s == kernel(method).snapshot()).all()
