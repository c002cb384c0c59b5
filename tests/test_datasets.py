"""Unit tests for the dataset registry (repro.streams.datasets)."""
import numpy as np
import pytest

from repro.streams import datasets, generator

PAPER_NAMES = ["youtube", "flickr", "orkut", "livejournal"]


class TestRegistry:
    def test_all_paper_datasets_present(self):
        for name in PAPER_NAMES:
            assert name in datasets.DATASETS

    def test_tiny_present_for_tests(self):
        assert "tiny" in datasets.DATASETS

    @pytest.mark.parametrize("name", PAPER_NAMES + ["tiny"])
    def test_spec_sane(self, name):
        s = datasets.DATASETS[name]
        assert s.n_users > 0 and s.n_items > 0
        assert s.n_edges <= s.n_users * s.n_items
        assert 0 < s.q < s.n_edges
        assert 0 <= s.d <= 1

    def test_orkut_densest(self):
        """Relative shape of the real crawls: Orkut has the highest
        average user degree."""
        degs = {
            n: datasets.DATASETS[n].n_edges / datasets.DATASETS[n].n_users
            for n in PAPER_NAMES
        }
        assert max(degs, key=degs.get) == "orkut"

    def test_livejournal_largest_user_set(self):
        sizes = {n: datasets.DATASETS[n].n_users for n in PAPER_NAMES}
        assert max(sizes, key=sizes.get) == "livejournal"

    def test_q_is_trieste_fraction(self):
        s = datasets.DATASETS["youtube"]
        assert s.q == int(0.6 * s.n_edges)


class TestMakeStream:
    def test_deterministic(self):
        a, _ = datasets.make_stream("tiny", seed=0)
        b, _ = datasets.make_stream("tiny", seed=0)
        assert a.equals(b)

    def test_columns(self):
        s, _ = datasets.make_stream("tiny", seed=1)
        assert list(s.columns) == ["t", "user", "item", "action"]

    def test_has_deletions(self):
        s, spec = datasets.make_stream("tiny", seed=0)
        n_del = (s["action"] == -1).sum()
        assert n_del > 0
        # ~d fraction of the q-prefix gets deleted
        assert abs(n_del / spec.q - spec.d) < 0.1

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            datasets.make_stream("nope")

    def test_heavy_users_exist(self):
        """The paper tracks largest-cardinality users — the tiny dataset
        must still have users with dozens of items at the end."""
        s, _ = datasets.make_stream("tiny", seed=0)
        card = generator.net_state(s).groupby("user").size()
        assert card.max() >= 30

