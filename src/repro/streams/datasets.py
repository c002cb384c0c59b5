"""Named dataset registry — scaled stand-ins for the paper's OSN graphs.

The paper evaluates on YouTube, Flickr, Orkut and LiveJournal crawls
from Mislove et al. [16] (10^6–10^7 nodes, 10^6–10^8 edges). Those
crawls are not redistributable and this container has no network, so
each dataset is replaced by a synthetic Zipf bipartite graph whose
*relative* characteristics match the original (Orkut densest, YouTube
sparsest, LiveJournal largest user set), scaled to run at laptop scale.
The substitution is documented in DESIGN.md §2: every quantity the
estimators depend on — heavy-tailed cardinalities, overlap structure,
and the shared memory budget m = 32·k·|U| — scales with the data, so
the method comparison is preserved.

Each entry also fixes the Trièst-style dynamic-stream parameters: the
mass-deletion point ``q`` (scaled from the paper's q = 2,000,000 to 60%
of the base insertions) and deletion probability ``d = 0.5``.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from . import generator


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of one synthetic dataset + its dynamic-stream settings."""

    name: str
    n_users: int
    n_items: int
    n_edges: int
    alpha_user: float
    alpha_item: float
    q_frac: float = 0.6  # mass deletion after this fraction of insertions
    d: float = 0.5

    @property
    def q(self) -> int:
        return int(self.n_edges * self.q_frac)


# Relative shape mirrors the real crawls: Orkut is the densest
# (avg degree ~60 here), YouTube the sparsest, LiveJournal the largest
# user set. Sizes chosen so the full 4-dataset accuracy sweep runs in
# minutes on local[*].
DATASETS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec("youtube", 1200, 1500, 80_000, 0.80, 0.90),
        DatasetSpec("flickr", 1600, 2000, 100_000, 0.85, 0.90),
        DatasetSpec("orkut", 2000, 1600, 150_000, 0.70, 0.85),
        DatasetSpec("livejournal", 2400, 2600, 120_000, 0.85, 0.90),
        # tiny: unit-test scale (sub-second end-to-end)
        DatasetSpec("tiny", 60, 150, 2_000, 0.70, 0.60),
    ]
}


def make_stream(name: str, *, seed: int = 0) -> tuple[pd.DataFrame, DatasetSpec]:
    """Generate the fully dynamic stream for a named dataset (pandas)."""
    spec = DATASETS[name]
    edges = generator.bipartite_edges(
        n_users=spec.n_users,
        n_items=spec.n_items,
        n_edges=spec.n_edges,
        alpha_user=spec.alpha_user,
        alpha_item=spec.alpha_item,
        seed=seed,
    )
    stream = generator.dynamic_stream(edges, q=spec.q, d=spec.d, seed=seed)
    return stream, spec

