"""Tests for the spark-submit job entrypoints in jobs/, and the paper's
Fig 2 / Fig 3 shape on the tables they recorded in results/."""
import pathlib
import sys

import numpy as np
import pandas as pd
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
JOBS = ROOT / "jobs"
RESULTS = ROOT / "results"
sys.path.insert(0, str(JOBS))


class TestFig2Job:
    def test_main_runs_and_writes_csv(self, tmp_path, capsys):
        import fig2_runtime

        rc = fig2_runtime.main(
            ["--dataset", "tiny", "--ks", "1,8", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "fig2_runtime.csv").exists()
        out = capsys.readouterr().out
        assert "Table F2a" in out and "Table F2b" in out

    def test_recorded_csv_has_paper_shape(self):
        """The recorded sweep holds the paper's complexity shape: VOS/OPH
        flat in k, MinHash/RP growing ~linearly. A full wall-clock sweep
        is too noisy to gate live on a shared host; the live shape is
        gated by ``test_runtime.py::test_complexity_shape``."""
        table = pd.read_csv(RESULTS / "fig2_runtime.csv")
        wide = table.pivot(index="k", columns="method", values="us_per_edge")
        for flat in ("vos", "oph"):
            assert wide.loc[100_000, flat] < 10 * wide.loc[1, flat], flat
        for linear in ("minhash", "rp"):
            assert wide.loc[100_000, linear] > 20 * wide.loc[1, linear], linear
        assert wide.loc[100_000, "minhash"] > 10 * wide.loc[100_000, "vos"]
        assert wide.loc[100_000, "rp"] > 10 * wide.loc[100_000, "oph"]


class TestFig3Job:
    def test_main_runs_and_writes_csv(self, spark, tmp_path, capsys):
        import fig3_accuracy

        rc = fig3_accuracy.main(
            [
                "--datasets", "tiny",
                "--k-reg", "16",
                "--top-n", "5",
                "--checkpoints", "2",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "fig3_accuracy.csv").exists()
        out = capsys.readouterr().out
        for table in ("F3a", "F3b", "F3c", "F3d"):
            assert f"Table {table}" in out

    @pytest.mark.parametrize(
        "flag, value, arg", [("--top-n", "-1", "top_n"), ("--checkpoints", "0", "n_checkpoints")]
    )
    def test_out_of_range_flag_raises(self, spark, tmp_path, flag, value, arg):
        """An out-of-range flag stops the job before it writes a table."""
        import fig3_accuracy

        argv = ["--datasets", "tiny", "--k-reg", "16", flag, value, "--out", str(tmp_path)]
        with pytest.raises(ValueError, match=arg):
            fig3_accuracy.main(argv)
        assert not (tmp_path / "fig3_accuracy.csv").exists()

    def test_defaults_reproduce_recorded_csv(self, spark, tmp_path):
        """At its defaults (four datasets, k_reg 100, top_n 50, 10
        checkpoints, seed 0) the job writes the table recorded in
        results/fig3_accuracy.csv: the keys exactly, AAPE/ARMSE within
        rtol 1e-9, since numpy's SIMD ``log`` may differ in the last bit
        from one CPU to another."""
        import fig3_accuracy

        assert fig3_accuracy.main(["--out", str(tmp_path)]) == 0
        got = pd.read_csv(tmp_path / "fig3_accuracy.csv")
        ref = pd.read_csv(RESULTS / "fig3_accuracy.csv")
        keys = ["dataset", "method", "ckpt", "t", "n_pairs"]
        pd.testing.assert_frame_equal(got[keys], ref[keys])
        metrics = ["aape", "armse"]
        np.testing.assert_allclose(got[metrics], ref[metrics], rtol=1e-9, atol=0)

    def test_recorded_csv_vos_best_rp_worst(self):
        """The recorded table holds the paper's Fig 3 ordering: at each
        dataset's final checkpoint VOS has the lowest and RP the highest
        AAPE and ARMSE."""
        table = pd.read_csv(RESULTS / "fig3_accuracy.csv")
        assert set(table["dataset"]) == {"youtube", "flickr", "orkut", "livejournal"}
        last = table[table["ckpt"] == table.groupby("dataset")["ckpt"].transform("max")]
        for dataset, rows in last.groupby("dataset"):
            final = rows.set_index("method")
            for metric in ("aape", "armse"):
                col = final[metric]
                assert col["vos"] == col.min(), f"{dataset}: VOS not best on {metric}:\n{col}"
                assert col["rp"] == col.max(), f"{dataset}: RP not worst on {metric}:\n{col}"


class TestStreamDemoJob:
    def test_main_runs(self, spark, capsys):
        import stream_demo

        rc = stream_demo.main(["--dataset", "tiny", "--batches", "2", "--k-reg", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "beta=" in out and "s_true=" in out
        for field in ("input_rows=", "trigger_ms=", "state_rows=", "state_bytes="):
            assert out.count(field) == 2, field

    def test_stops_its_query_when_a_read_fails(self, spark, monkeypatch):
        import stream_demo

        from repro.core import streaming

        def fail(*args, **kwargs):
            raise RuntimeError("read failed")

        monkeypatch.setattr(streaming, "assemble_bit_array", fail)
        with pytest.raises(RuntimeError, match="read failed"):
            stream_demo.main(["--dataset", "tiny", "--batches", "2", "--k-reg", "16"])
        assert "vos_demo" not in [q.name for q in spark.streams.active]


@pytest.mark.parametrize(
    "job, argv",
    [
        (
            "fig3_accuracy",
            ["--datasets", "tiny", "--k-reg", "16", "--top-n", "5", "--checkpoints", "2"],
        ),
        ("stream_demo", ["--dataset", "tiny", "--batches", "2", "--k-reg", "16"]),
    ],
)
def test_job_leaves_the_running_session_as_it_is(spark, tmp_path, job, argv):
    """Given a running session, a job uses it as it is: its own shuffle
    partitions and log level go only on a session it starts itself. The
    session is first set to values no job uses, so an earlier job that
    changed it cannot hide the change."""
    import importlib

    key = "spark.sql.shuffle.partitions"
    root = spark.sparkContext._jvm.org.apache.logging.log4j.LogManager.getRootLogger()
    saved = spark.conf.get(key), root.getLevel().toString()
    spark.conf.set(key, "7")
    spark.sparkContext.setLogLevel("WARN")
    try:
        if job == "fig3_accuracy":
            argv = [*argv, "--out", str(tmp_path)]
        assert importlib.import_module(job).main(argv) == 0
        assert spark.conf.get(key) == "7"
        assert root.getLevel().toString() == "WARN"
    finally:
        spark.conf.set(key, saved[0])
        spark.sparkContext.setLogLevel(saved[1])
