"""Self-tests of the DuckDB oracle (repro.oracle) on the stream tables:
it agrees with a correct Spark answer and fails loudly on a wrong one."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent

CARD_SQL = """
    SELECT "user", COUNT(*) AS n FROM (
        SELECT "user", item FROM stream GROUP BY "user", item
        HAVING COUNT(*) % 2 = 1
    ) GROUP BY "user"
"""


def set_sizes(sdf):
    """|S_u| at the stream end by the parity rule, as a Spark query."""
    present = (
        sdf.groupBy("user", "item")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .where(F.col("cnt") % 2 == 1)
    )
    return present.groupBy("user").agg(F.count(F.lit(1)).alias("n"))


class TestOracleIntegration:
    def test_aggregation_query(self, tiny_stream_sdf, tiny_stream_pdf):
        """A join + aggregate through Catalyst, with a float column, equals
        DuckDB — exercises the oracle as the exact-engine tests rely on it."""
        events = tiny_stream_sdf.groupBy("user").agg(
            F.count(F.lit(1)).alias("events"), F.avg("action").alias("mean_action")
        )
        q = set_sizes(tiny_stream_sdf).join(events, "user")
        assert_equivalent(
            q,
            f"""
            SELECT c."user", c.n, e.events, e.mean_action
            FROM ({CARD_SQL}) c JOIN (
                SELECT "user", COUNT(*) AS events, AVG(action) AS mean_action
                FROM stream GROUP BY "user"
            ) e ON c."user" = e."user"
            """,
            stream=tiny_stream_pdf,
        )

    def test_oracle_catches_wrong_result(self, tiny_stream_sdf, tiny_stream_pdf):
        """The oracle must fail loudly on a wrong answer, given as a Spark
        or a pandas frame."""
        wrong = set_sizes(tiny_stream_sdf).withColumn(
            "n", F.col("n") + 1  # off-by-one on purpose
        )
        for result in (wrong, wrong.toPandas()):
            with pytest.raises(AssertionError):
                assert_equivalent(result, CARD_SQL, stream=tiny_stream_pdf)

    def test_oracle_catches_column_mismatch(self, tiny_stream_sdf, tiny_stream_pdf):
        q = set_sizes(tiny_stream_sdf).withColumnRenamed("n", "wrong_name")
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(q, CARD_SQL, stream=tiny_stream_pdf)
