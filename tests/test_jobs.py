"""Smoke tests for the spark-submit job entrypoints in jobs/."""
import pathlib
import sys

import pytest

JOBS = pathlib.Path(__file__).resolve().parent.parent / "jobs"
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


class TestStreamDemoJob:
    def test_main_runs(self, spark, capsys):
        import stream_demo

        rc = stream_demo.main(["--dataset", "tiny", "--batches", "2", "--k-reg", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "beta=" in out and "s_true=" in out
        for field in ("input_rows=", "trigger_ms=", "state_rows=", "state_bytes="):
            assert out.count(field) == 2, field
