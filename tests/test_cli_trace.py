"""Tests for the ``repro trace`` CLI subcommands."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.workloads.azure2019 import dataset_source, load_window


class TestTraceParser:
    def test_synth_args(self):
        args = build_parser().parse_args(
            ["trace", "synth2019", "out", "--functions", "5", "--days", "2"]
        )
        assert args.trace_command == "synth2019"
        assert args.directory == "out"
        assert args.functions == 5
        assert args.days == 2

    def test_stats_args(self):
        args = build_parser().parse_args(["trace", "stats", "in"])
        assert args.trace_command == "stats"
        assert args.directory == "in"

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])


class TestTraceCommands:
    def test_synth_writes_readable_bundle(self, tmp_path, capsys):
        code = main(
            ["trace", "synth2019", str(tmp_path), "--functions", "12", "--days", "2"]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        window = load_window(dataset_source(tmp_path))
        assert len(window.functions) == 12
        assert window.source.window_minutes == 2 * 1440

    def test_stats_reports_fig1_windows(self, tmp_path, capsys):
        main(["trace", "synth2019", str(tmp_path), "--functions", "20"])
        capsys.readouterr()
        code = main(["trace", "stats", str(tmp_path)])
        assert code == 0
        text = capsys.readouterr().out
        assert "20 functions" in text
        assert "180s=" in text
        assert "12h=" in text
        assert "top app" in text

    def test_stats_without_day_files_is_an_error(self, tmp_path, capsys):
        code = main(["trace", "stats", str(tmp_path / "missing")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "day-files" in err

    def test_stats_on_a_bad_header_is_an_error(self, tmp_path, capsys):
        (tmp_path / "invocations_per_function_md.anon.d01.csv").write_text(
            "a,b,c\n1,2,3\n"
        )
        code = main(["trace", "stats", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--seed", "1", "trace", "synth2019", str(a), "--functions", "3"])
        main(["--seed", "2", "trace", "synth2019", str(b), "--functions", "3"])
        ca = [fn.counts.tolist() for fn in load_window(dataset_source(a)).functions]
        cb = [fn.counts.tolist() for fn in load_window(dataset_source(b)).functions]
        assert ca != cb


class TestTraceAttribution:
    def test_header_counts_unfinished_requests(self, monkeypatch, capsys):
        """The tails cover finalized traces only; the header says how many
        accepted requests never finished, so they are not silently missing."""
        import repro.scenarios.driver as driver

        reports = []
        run = driver.run_scenario_case

        def capture(case):
            reports.append(run(case))
            return reports[-1]

        monkeypatch.setattr(driver, "run_scenario_case", capture)
        main(
            [
                "--no-cache",
                "trace",
                "paper-multi-burst",
                "--quick",
                "--system",
                "DistServe",
            ]
        )
        (report,) = reports
        unfinished = report.offered - report.shed - len(report.traces)
        assert unfinished > 0  # this cell ends with requests in flight
        header = capsys.readouterr().out.splitlines()[:2]
        assert f"{len(report.traces)} request trace(s)" in header[0]
        assert header[1] == (
            f"{unfinished} accepted request(s) unfinished at the horizon; "
            "the tails below cover finished requests only"
        )
