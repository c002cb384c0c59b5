"""Tests for the exact ground-truth engine (repro.baselines.exact),
cross-checked against DuckDB via the oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import exact
from repro.oracle import assert_equivalent
from repro.streams import datasets, generator

from .test_harness import jobs_in_group

PRESENT_SQL = """
    SELECT "user", item FROM (
        SELECT "user", item, COUNT(*) AS cnt FROM stream
        GROUP BY "user", item
    ) WHERE cnt % 2 = 1
"""

# Exact s, n_u, n_v of every row of ``pairs`` at every row (ckpt, t) of ``cps``.
TRUTH_SQL = """
    WITH p AS (
        SELECT cps.ckpt, stream."user", stream.item
        FROM stream JOIN cps ON stream.t <= cps.t
        GROUP BY cps.ckpt, stream."user", stream.item
        HAVING count(*) % 2 = 1),
    n AS (SELECT ckpt, "user", count(*) AS n FROM p GROUP BY ckpt, "user"),
    s AS (
        SELECT a.ckpt, a."user" AS u, b."user" AS v, count(*) AS s
        FROM p a JOIN p b ON a.ckpt = b.ckpt AND a.item = b.item AND a."user" < b."user"
        GROUP BY a.ckpt, a."user", b."user")
    SELECT pairs.u, pairs.v, cps.ckpt, coalesce(s.s, 0) AS s,
           coalesce(nu.n, 0) AS n_u, coalesce(nv.n, 0) AS n_v
    FROM pairs CROSS JOIN cps
    LEFT JOIN s ON s.ckpt = cps.ckpt AND s.u = pairs.u AND s.v = pairs.v
    LEFT JOIN n nu ON nu.ckpt = cps.ckpt AND nu."user" = pairs.u
    LEFT JOIN n nv ON nv.ckpt = cps.ckpt AND nv."user" = pairs.v
"""


def top_sql(top_n: int) -> str:
    """The ``top_n`` users by final parity cardinality, ties by user id."""
    return f"""
        SELECT "user" FROM ({PRESENT_SQL})
        GROUP BY "user" ORDER BY count(*) DESC, "user" LIMIT {top_n}
    """


def ties_and_emptied_user() -> pd.DataFrame:
    """A stream whose final sets are {1: 4, 3: 2, 5: 2, 7: 2, 9: 1}
    items: users 3, 5 and 7 tie, and deletions empty user 2's set."""
    events = [
        (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1), (1, 2, 1), (7, 3, 1),
        (2, 3, 1), (5, 2, 1), (1, 3, 1), (2, 1, -1), (3, 5, 1), (5, 5, 1),
        (2, 2, -1), (7, 6, 1), (1, 4, 1), (9, 7, 1), (2, 3, -1),
    ]  # (user, item, action)
    stream = pd.DataFrame(events, columns=["user", "item", "action"])
    stream.insert(0, "t", np.arange(1, len(stream) + 1))
    return stream


class OnSparkStream:
    """Runs a class's ``select_tracked`` checks with ``edges`` given as
    the Spark stream.

    ``shape`` turns a Spark stream into the ``edges`` the checks pass;
    ``edges`` is the tiny stream in that shape."""

    @pytest.fixture(scope="class")
    def shape(self):
        return lambda sdf: sdf

    @pytest.fixture(scope="class")
    def edges(self, shape, tiny_stream_sdf):
        return shape(tiny_stream_sdf)


class OnCollectedRows:
    """Reruns a class's ``select_tracked`` checks with ``edges`` given as
    the stream's pandas frame, the input every other tracked-user
    function takes."""

    @pytest.fixture(scope="class")
    def shape(self):
        return lambda sdf: sdf.toPandas()


class TestSelectTracked(OnSparkStream):
    def test_top_n_by_cardinality(self, edges, tiny_stream_pdf):
        users, pairs = exact.select_tracked(edges, 8)
        assert len(users) == 8
        card = generator.net_state(tiny_stream_pdf).groupby("user").size()
        worst_tracked = min(card.get(u, 0) for u in users)
        untracked = card.drop(index=[u for u in users if u in card.index])
        if len(untracked):
            assert worst_tracked >= untracked.max()

    def test_pairs_share_an_item(self, edges):
        users, pairs = exact.select_tracked(edges, 8)
        assert (pairs["s_final"] >= 1).all()
        assert pairs[["u", "v"]].isin(users.tolist()).all().all()

    def test_deterministic(self, edges):
        u1, p1 = exact.select_tracked(edges, 5)
        u2, p2 = exact.select_tracked(edges, 5)
        assert (u1 == u2).all()
        assert p1.equals(p2)

    def test_negative_top_n_raises(self, edges):
        with pytest.raises(ValueError, match="top_n"):
            exact.select_tracked(edges, -3)

    @pytest.mark.parametrize("top_n", [5, 20])
    def test_vs_duckdb(self, edges, tiny_stream_pdf, top_n):
        """Users: top-n by final parity cardinality, ties by user id;
        pairs: those among them with s ≥ 1, int64 and sorted by (u, v)."""
        users, pairs = exact.select_tracked(edges, top_n)
        top = top_sql(top_n)
        assert_equivalent(pd.DataFrame({"user": users}), top, stream=tiny_stream_pdf)
        assert_equivalent(
            pairs,
            f"""
            WITH p AS (
                SELECT * FROM ({PRESENT_SQL})
                WHERE "user" IN ({top}))
            SELECT a."user" AS u, b."user" AS v, count(*) AS s_final
            FROM p a JOIN p b ON a.item = b.item AND a."user" < b."user"
            GROUP BY a."user", b."user"
            """,
            stream=tiny_stream_pdf,
        )
        assert (pairs.dtypes == np.int64).all()
        assert pairs.equals(pairs.sort_values(["u", "v"]).reset_index(drop=True))

    @pytest.mark.parametrize("top_n,expect", [(3, [1, 3, 5]), (10, [1, 3, 5, 7, 9])])
    def test_ties_and_emptied_user(self, spark, shape, top_n, expect):
        """Users 3, 5 and 7 tie on |S| = 2 across the cut at top_n = 3, so
        the lowest ids win. Deletions empty user 2's set: a top_n above
        the five non-empty users must still not return it."""
        stream = ties_and_emptied_user()
        final = generator.net_state(stream)
        card = final.groupby("user").size()
        assert card.to_dict() == {1: 4, 3: 2, 5: 2, 7: 2, 9: 1}

        users, pairs = exact.select_tracked(shape(generator.to_spark(spark, stream)), top_n)
        assert users.tolist() == expect
        mine = final[final["user"].isin(expect)]
        both = mine.merge(mine, on="item")
        both = both[both["user_x"] < both["user_y"]]
        want = both.groupby(["user_x", "user_y"]).size().reset_index()
        want.columns = ["u", "v", "s_final"]
        pd.testing.assert_frame_equal(pairs, want)


class TestSelectTrackedOnRows(OnCollectedRows, TestSelectTracked):
    pass


class TestTopUsers:
    """The top-n (the harness's path) equals DuckDB's."""

    @staticmethod
    def check(stream, n):
        got = exact.top_users(stream, n)
        assert got.dtype == np.int64 and (np.diff(got) > 0).all()
        assert_equivalent(pd.DataFrame({"user": got}), top_sql(n), stream=stream)
        return got

    def test_tiny_every_n(self, tiny_stream_pdf):
        n_users = generator.net_state(tiny_stream_pdf)["user"].nunique()
        for n in range(1, n_users + 1):
            self.check(tiny_stream_pdf, n)

    def test_tie_across_the_cut_and_emptied_user(self):
        """Users 3, 5 and 7 tie on |S| = 2 across the cut at n = 2 and
        n = 3; deletions empty user 2's set, so no n returns it."""
        stream = ties_and_emptied_user()
        for n in range(1, 8):
            assert 2 not in self.check(stream, n)
        assert exact.top_users(stream, 2).tolist() == [1, 3]

    @pytest.mark.parametrize("name", ["youtube", "flickr", "orkut", "livejournal"])
    def test_datasets(self, name):
        stream, _ = datasets.make_stream(name, seed=0)
        assert len(self.check(stream, 50)) == 50

    def test_equals_action_sum(self, tiny_stream_pdf):
        """Parity cardinality == running Σ action (feasibility check): for
        every n, the top-n users are the n largest positive Σ action,
        ties by user id."""
        sums = tiny_stream_pdf.groupby("user")["action"].sum().reset_index()
        ranked = sums[sums["action"] > 0].sort_values(["action", "user"], ascending=[False, True])
        for n in range(1, len(sums) + 2):
            want = np.sort(ranked["user"].to_numpy(np.int64)[:n])
            np.testing.assert_array_equal(exact.top_users(tiny_stream_pdf, n), want, err_msg=f"n={n}")

    @pytest.mark.parametrize("top_n", [-1, -3])
    def test_negative_n_raises(self, tiny_stream_pdf, top_n):
        """``head(-3)`` would keep all but the last three users."""
        with pytest.raises(ValueError, match="top_n"):
            exact.top_users(tiny_stream_pdf, top_n)


class TestTrackedRows:
    def test_rows_of_the_users(self, tiny_stream_pdf):
        users = exact.top_users(tiny_stream_pdf, 8)
        rows = exact.tracked_rows(tiny_stream_pdf, users)
        assert list(rows.columns) == ["user", "item", "t", "action"]
        assert (rows.dtypes == np.int64).all()
        expect = tiny_stream_pdf[tiny_stream_pdf["user"].isin(users)]
        got = rows.sort_values("t").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, expect[list(got.columns)].reset_index(drop=True))

    @pytest.mark.parametrize("top_n", [5, 8, 20])
    def test_selection_from_the_top_users_rows(self, tiny_stream_sdf, tiny_stream_pdf, top_n):
        """A Spark stream, collected once, and the top-n users' rows alone
        give the same selection."""
        users, pairs = exact.select_tracked(tiny_stream_sdf, top_n)
        assert (exact.top_users(tiny_stream_pdf, top_n) == users).all()
        rows = exact.tracked_rows(tiny_stream_pdf, users)
        got_users, got_pairs = exact.select_tracked(rows, top_n)
        assert got_users.dtype == np.int64 and (got_users == users).all()
        pd.testing.assert_frame_equal(got_pairs, pairs)


class TestSparkInput:
    def test_select_tracked_reads_the_stream_once(self, spark, tiny_stream_sdf):
        """A Spark stream is collected in one job; the top-n and the
        overlaps read the same frame."""
        assert jobs_in_group(spark, lambda: exact.select_tracked(tiny_stream_sdf, 8)) == 1


class TestInfeasibleEvents:
    @staticmethod
    def stream(events):
        """(user, item, action) events at t = 1, 2, ..."""
        stream = pd.DataFrame(events, columns=["user", "item", "action"])
        stream.insert(0, "t", np.arange(1, len(stream) + 1))
        return stream

    def test_feasible_stream_has_none(self):
        rows = self.stream([(1, 1, 1), (1, 2, 1), (1, 1, -1), (2, 1, 1), (1, 1, 1), (1, 1, -1)])
        assert exact.infeasible_events(rows).empty

    def test_duplicate_insert_and_absent_delete(self):
        rows = self.stream(
            [
                (1, 1, 1), (2, 5, -1), (1, 2, 1), (1, 1, 1), (3, 3, 1),
                (3, 3, -1), (3, 3, -1), (1, 1, -1), (1, 1, -1),
            ]
        )
        bad = exact.infeasible_events(rows)
        # t 2: delete of a never-inserted edge; t 4: insert of a present
        # edge; t 7 and t 9: deletes of an edge already deleted.
        assert bad["t"].tolist() == [2, 4, 7, 9]
        assert bad[["user", "item"]].values.tolist() == [[2, 5], [1, 1], [3, 3], [1, 1]]

    def test_rows_in_any_order(self):
        rows = self.stream([(1, 1, 1), (1, 1, 1), (1, 1, -1), (2, 2, -1)])
        bad = exact.infeasible_events(rows.iloc[::-1])
        assert bad["t"].tolist() == [2, 4]

    @pytest.mark.parametrize("name", ["youtube", "flickr", "orkut", "livejournal"])
    def test_none_in_generated_datasets(self, name):
        stream, _ = datasets.make_stream(name, seed=0)
        assert len(exact.infeasible_events(stream)) == 0


class TestExactOverTime:
    @pytest.fixture(scope="class")
    def tracked(self, tiny_stream_pdf):
        return exact.select_tracked(tiny_stream_pdf, 8)

    def test_final_checkpoint_matches_pair_commons(self, tiny_stream_pdf, tracked):
        users, pairs = tracked
        T = int(tiny_stream_pdf["t"].max())
        out = exact.exact_over_time(tiny_stream_pdf, users, pairs, [T // 2, T])
        final = out[out["ckpt"] == 1]
        merged = final.merge(pairs, on=["u", "v"], validate="1:1")
        assert (merged["s"] == merged["s_final"]).all()

    @pytest.mark.parametrize("n_ckpt", [2, 70])
    def test_vs_duckdb(self, tiny_stream_pdf, tracked, n_ckpt):
        """Two cuts, and 70: more than one long's worth of checkpoints."""
        users, pairs = tracked
        T = int(tiny_stream_pdf["t"].max())
        cps = [T // 3, T // 2] if n_ckpt == 2 else [T * (i + 1) // n_ckpt for i in range(n_ckpt)]
        out = exact.exact_over_time(tiny_stream_pdf, users, pairs, cps)
        cols = ["u", "v", "ckpt", "s", "n_u", "n_v"]
        assert_equivalent(
            out[cols],
            TRUTH_SQL,
            stream=tiny_stream_pdf,
            pairs=pairs[["u", "v"]],
            cps=pd.DataFrame({"ckpt": np.arange(len(cps)), "t": cps}),
        )

    def test_rows_in_checkpoint_then_pairs_order(self, tiny_stream_pdf, tracked):
        """Row ci·len(pairs) + r is pair r at checkpoint ci, for pairs in
        any order."""
        users, pairs = tracked
        shuffled = pairs.sample(frac=1.0, random_state=3).reset_index(drop=True)
        out = exact.exact_over_time(tiny_stream_pdf, users, shuffled, [1000, 1500, 2000])
        assert len(out) == 3 * len(shuffled)
        for ci in range(3):
            rows = out.iloc[ci * len(shuffled) : (ci + 1) * len(shuffled)]
            assert (rows["ckpt"] == ci).all()
            assert (rows["u"].to_numpy() == shuffled["u"].to_numpy()).all()
            assert (rows["v"].to_numpy() == shuffled["v"].to_numpy()).all()

    def test_users_in_any_order(self, tiny_stream_pdf, tracked):
        users, pairs = tracked
        cps = [1000, 2000]
        expect = exact.exact_over_time(tiny_stream_pdf, users, pairs, cps)
        got = exact.exact_over_time(tiny_stream_pdf, users[::-1].copy(), pairs, cps)
        pd.testing.assert_frame_equal(got, expect)

    def test_tracked_rows_alone(self, tiny_stream_pdf, tracked):
        """The tracked users' rows, the frame the harness passes, give the
        same truth as the whole stream."""
        users, pairs = tracked
        cps = [1000, 2000]
        rows = exact.tracked_rows(tiny_stream_pdf, users)
        pd.testing.assert_frame_equal(
            exact.exact_over_time(rows, users, pairs, cps),
            exact.exact_over_time(tiny_stream_pdf, users, pairs, cps),
        )

    def test_cardinalities_match(self, tiny_stream_pdf, tracked):
        users, pairs = tracked
        T = int(tiny_stream_pdf["t"].max())
        out = exact.exact_over_time(tiny_stream_pdf, users, pairs, [T])
        card = generator.net_state(tiny_stream_pdf).groupby("user").size()
        for _, row in out.iterrows():
            assert row["n_u"] == card.get(row["u"], 0)
            assert row["n_v"] == card.get(row["v"], 0)

    def test_jaccard_consistent(self, tiny_stream_pdf, tracked):
        users, pairs = tracked
        out = exact.exact_over_time(tiny_stream_pdf, users, pairs, [1000, 2000])
        expect = out["s"] / (out["n_u"] + out["n_v"] - out["s"]).clip(lower=1)
        np.testing.assert_allclose(out["j"], expect.where(out["s"] > 0, 0.0), atol=1e-9)


class DegenerateSelection:
    """Edge cases of ``select_tracked``, on the input ``shape`` makes:
    each must give empty, typed results, not crash."""

    def test_empty_stream(self, shape, tiny_stream_sdf):
        users, pairs = exact.select_tracked(shape(tiny_stream_sdf.limit(0)), 5)
        assert len(users) == 0 and users.dtype == np.int64
        assert len(pairs) == 0 and list(pairs.columns) == ["u", "v", "s_final"]

    def test_no_shared_item(self, spark, shape):
        """Tracked users with disjoint sets give an empty, typed pairs frame."""
        stream = pd.DataFrame(
            {
                "t": [1, 2, 3, 4, 5, 6],
                "user": [1, 2, 3, 1, 2, 1],
                "item": [10, 20, 30, 11, 21, 11],
                "action": [1, 1, 1, 1, 1, -1],
            }
        )
        users, pairs = exact.select_tracked(shape(generator.to_spark(spark, stream)), 3)
        assert users.tolist() == [1, 2, 3]
        assert pairs.empty and list(pairs.columns) == ["u", "v", "s_final"]
        assert (pairs.dtypes == np.int64).all()


class TestDegenerateInputs(OnSparkStream, DegenerateSelection):
    """Edge cases of the tracked-user overlap computation: each must give
    zeros or empty results, not crash. The ``exact_over_time`` cases read
    the stream's pandas frame."""

    def test_checkpoint_before_first_edge(self, tiny_stream_pdf):
        users, pairs = exact.select_tracked(tiny_stream_pdf, 5)
        before = int(tiny_stream_pdf["t"].min()) - 1
        out = exact.exact_over_time(tiny_stream_pdf, users, pairs, [before])
        assert len(out) == len(pairs) > 0
        assert (out[["s", "n_u", "n_v"]] == 0).all().all()
        assert (out["j"] == 0.0).all()

    def test_tracked_user_without_edges(self, tiny_stream_pdf):
        users, pairs = exact.select_tracked(tiny_stream_pdf, 5)
        T = int(tiny_stream_pdf["t"].max())
        ghost = int(tiny_stream_pdf["user"].max()) + 1
        extra = pd.DataFrame({"u": users, "v": ghost})
        both = pd.concat([pairs[["u", "v"]], extra], ignore_index=True)
        out = exact.exact_over_time(tiny_stream_pdf, np.r_[users, ghost], both, [T])
        tracked, ghosts = out.iloc[: len(pairs)], out.iloc[len(pairs) :]
        assert (tracked["s"].to_numpy() == pairs["s_final"].to_numpy()).all()
        assert (ghosts[["s", "n_v"]] == 0).all().all()
        assert (ghosts["n_u"] > 0).all() and (ghosts["j"] == 0.0).all()

    def test_no_tracked_item(self, tiny_stream_pdf):
        """No tracked user has an edge: the aggregation is empty."""
        ghosts = int(tiny_stream_pdf["user"].max()) + np.arange(1, 4)
        pairs = pd.DataFrame({"u": ghosts[:2], "v": ghosts[1:]})
        out = exact.exact_over_time(tiny_stream_pdf, ghosts, pairs, [100, 2000])
        assert len(out) == 4
        assert (out[["s", "n_u", "n_v"]] == 0).all().all()
        assert (out["j"] == 0.0).all()


class TestDegenerateInputsOnRows(OnCollectedRows, DegenerateSelection):
    """The ``select_tracked`` edge cases on the stream's pandas frame."""
