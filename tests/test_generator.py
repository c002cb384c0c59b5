"""Unit tests for the fully dynamic stream generator (repro.streams.generator)."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.streams import datasets, generator

EDGE_CFGS = [
    dict(n_users=20, n_items=40, n_edges=200),
    dict(n_users=60, n_items=150, n_edges=2000),
    dict(n_users=100, n_items=80, n_edges=3000),
]

# blake2b of bipartite_edges(...) for every DATASETS entry at seeds 0 and 1,
# recorded from a per-key set-based rejection loop: the vectorised rounds
# must keep the same draws, key for key.
GOLDEN_EDGES = [
    ("youtube", 0, "703616a7c502b9f4c48bb72942d4ec4d"),
    ("youtube", 1, "4ad87923394c9772a55732782a080e95"),
    ("flickr", 0, "49e837e1f934de917b19697c319601b6"),
    ("flickr", 1, "06200b07eb762f3d01f0a50012cf8cb1"),
    ("orkut", 0, "a0931073a02a4166cacebe2f43eb6172"),
    ("orkut", 1, "08c62a832a0886b507052231aee81aa2"),
    ("livejournal", 0, "0e44ae43476e7058818cbd1b1d603856"),
    ("livejournal", 1, "5722de160a8608277d14d90110a29c6c"),
    ("tiny", 0, "2784991c9dc946de1f1e54b6cc4a47d3"),
    ("tiny", 1, "16d07f10fe30b061e996e2984c4faa54"),
]


def _edges_digest(e: pd.DataFrame) -> str:
    h = hashlib.blake2b(digest_size=16)
    for col in ("user", "item"):
        h.update(e[col].to_numpy(np.int64).tobytes())
    return h.hexdigest()


class TestBipartiteEdges:
    @pytest.mark.parametrize("cfg", EDGE_CFGS)
    def test_exact_count_and_distinct(self, cfg):
        e = generator.bipartite_edges(**cfg, seed=0)
        assert len(e) == cfg["n_edges"]
        assert not e.duplicated().any()

    @pytest.mark.parametrize("cfg", EDGE_CFGS)
    def test_id_ranges(self, cfg):
        e = generator.bipartite_edges(**cfg, seed=1)
        assert e["user"].between(1, cfg["n_users"]).all()
        assert e["item"].between(1, cfg["n_items"]).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deterministic(self, seed):
        a = generator.bipartite_edges(n_users=30, n_items=50, n_edges=400, seed=seed)
        b = generator.bipartite_edges(n_users=30, n_items=50, n_edges=400, seed=seed)
        pd.testing.assert_frame_equal(a, b)

    def test_seeds_differ(self):
        a = generator.bipartite_edges(n_users=30, n_items=50, n_edges=400, seed=0)
        b = generator.bipartite_edges(n_users=30, n_items=50, n_edges=400, seed=1)
        assert not a.equals(b)

    def test_zipf_skew(self):
        """Rank-1 user must have far more edges than the median user."""
        e = generator.bipartite_edges(
            n_users=100, n_items=500, n_edges=5000, alpha_user=1.0, seed=2
        )
        deg = e.groupby("user").size()
        assert deg.get(1, 0) > 5 * deg.median()

    def test_impossible_request_raises(self):
        with pytest.raises(ValueError):
            generator.bipartite_edges(n_users=2, n_items=2, n_edges=100, seed=0)

    @pytest.mark.parametrize("name,seed,digest", GOLDEN_EDGES)
    def test_golden_digest(self, name, seed, digest):
        """The sampled edge set is pinned per dataset and seed, so a change
        to the sampler cannot move the streams every result is built on."""
        spec = datasets.DATASETS[name]
        e = generator.bipartite_edges(
            n_users=spec.n_users,
            n_items=spec.n_items,
            n_edges=spec.n_edges,
            alpha_user=spec.alpha_user,
            alpha_item=spec.alpha_item,
            seed=seed,
        )
        assert _edges_digest(e) == digest

    def test_golden_digest_dense_universe(self):
        """1,150 of 1,200 possible edges: the first round's draws hold too
        few distinct keys, so later rounds must reject keys already taken."""
        seed = 0
        g = np.random.default_rng(seed)
        batch = int(1150 * 1.6)
        first = g.choice(30, size=batch, p=generator.zipf_weights(30, 0.8)) * 40 + g.choice(
            40, size=batch, p=generator.zipf_weights(40, 0.7)
        )
        assert np.unique(first).size < 1150
        e = generator.bipartite_edges(n_users=30, n_items=40, n_edges=1150, seed=seed)
        assert _edges_digest(e) == "090b8ced93aa814ccf4ba144cc2b0263"

    def test_zipf_weights_normalised(self):
        w = generator.zipf_weights(1000, 0.8)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) < 0).all()


@pytest.fixture(scope="module")
def base_edges():
    return generator.bipartite_edges(n_users=60, n_items=150, n_edges=2000, seed=3)


class TestDynamicStream:
    @pytest.mark.parametrize("q,d", [(0, 0.5), (500, 0.5), (1200, 0.5), (2000, 1.0), (1200, 0.0)])
    def test_feasibility(self, base_edges, q, d):
        """No deletion of an absent edge, no re-insertion of a present one."""
        s = generator.dynamic_stream(base_edges, q=q, d=d, seed=0)
        present = set()
        for _, u, i, a in s.itertuples(index=False):
            key = (u, i)
            if a == 1:
                assert key not in present
                present.add(key)
            else:
                assert key in present
                present.remove(key)

    def test_insertion_count_is_edge_count(self, base_edges):
        s = generator.dynamic_stream(base_edges, q=1000, d=0.5, seed=0)
        assert (s["action"] == 1).sum() == len(base_edges)

    def test_deletions_only_from_prefix(self, base_edges):
        """d=1.0 deletes exactly the first q insertions."""
        q = 700
        s = generator.dynamic_stream(base_edges, q=q, d=1.0, seed=0)
        assert (s["action"] == -1).sum() == q
        dels = s[s["action"] == -1]
        ins_prefix = s.iloc[:q]
        assert set(map(tuple, dels[["user", "item"]].values)) == set(
            map(tuple, ins_prefix[["user", "item"]].values)
        )

    def test_deletion_fraction_near_d(self, base_edges):
        q, d = 1500, 0.5
        s = generator.dynamic_stream(base_edges, q=q, d=d, seed=1)
        n_del = (s["action"] == -1).sum()
        assert abs(n_del / q - d) < 0.05

    def test_t_is_contiguous(self, base_edges):
        s = generator.dynamic_stream(base_edges, q=800, d=0.5, seed=2)
        assert (s["t"].to_numpy() == np.arange(1, len(s) + 1)).all()

    def test_q_clamped(self, base_edges):
        s = generator.dynamic_stream(base_edges, q=10**9, d=0.5, seed=0)
        assert (s["action"] == 1).sum() == len(base_edges)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_deterministic(self, base_edges, seed):
        a = generator.dynamic_stream(base_edges, q=900, d=0.5, seed=seed)
        b = generator.dynamic_stream(base_edges, q=900, d=0.5, seed=seed)
        pd.testing.assert_frame_equal(a, b)


class TestNetState:
    def test_matches_replay(self, base_edges):
        s = generator.dynamic_stream(base_edges, q=1200, d=0.5, seed=4)
        t = len(s) // 2
        present = set()
        for _, u, i, a in s[s["t"] <= t].itertuples(index=False):
            if a == 1:
                present.add((u, i))
            else:
                present.discard((u, i))
        ns = generator.net_state(s, t)
        assert set(map(tuple, ns[["user", "item"]].values)) == present

    def test_final_state_excludes_deleted(self, base_edges):
        s = generator.dynamic_stream(base_edges, q=1000, d=0.5, seed=5)
        ns = generator.net_state(s)
        n_del = (s["action"] == -1).sum()
        assert len(ns) == len(base_edges) - n_del


class TestSparkRoundtrip:
    def test_schema(self, spark, base_edges):
        s = generator.dynamic_stream(base_edges, q=500, d=0.5, seed=0)
        sdf = generator.to_spark(spark, s)
        assert sdf.schema == generator.STREAM_SCHEMA
        assert sdf.count() == len(s)

    def test_net_state_vs_duckdb_oracle(self, spark, base_edges):
        """Spark parity-membership query == DuckDB over the same stream."""
        s = generator.dynamic_stream(base_edges, q=1200, d=0.5, seed=6)
        sdf = generator.to_spark(spark, s)
        from pyspark.sql import functions as F

        spark_present = (
            sdf.groupBy("user", "item")
            .agg(F.count(F.lit(1)).alias("cnt"))
            .where(F.col("cnt") % 2 == 1)
            .select("user", "item")
        )
        assert_equivalent(
            spark_present,
            """
            SELECT "user", item FROM (
              SELECT "user", item, COUNT(*) AS cnt
              FROM stream GROUP BY "user", item
            ) WHERE cnt % 2 = 1
            """,
            stream=s,
        )
