"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations


import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.experiments.report import (
    ENTRIES,
    render_experiments_md,
    write_experiments_md,
)


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "run", "table1"])
        assert args.seed == 7

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestListCommand:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_scenario_list_summarises_large_fleets(self, capsys):
        from repro.scenarios import SCENARIOS

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
        assert "220 models: FLEET-0-5g, " in out
        assert "FLEET-219-" not in out
        # The widest row is the longest catalog description plus the
        # fixed columns, not a 220-name fleet.
        longest = max(len(s.description) for s in SCENARIOS.values())
        assert max(len(line) for line in out.splitlines()) < longest + 150


class TestRunCommand:
    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_table2_prints_paper_columns(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "paper_batch" in out
        assert "1024" in out

    def test_run_fig1_prints_windows(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "180" in out

    def test_every_experiment_registered_with_artefact(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.artefact
            assert callable(experiment.runner)

    def test_light_heavy_split(self):
        light = {n for n, e in EXPERIMENTS.items() if not e.heavy}
        assert {"table1", "table2", "fig1"} <= light
        assert EXPERIMENTS["fig8"].heavy


class TestReport:
    def test_render_covers_all_entries(self, tmp_path):
        text = render_experiments_md(results_dir=tmp_path)
        for entry in ENTRIES:
            assert entry.artefact in text
            assert entry.bench in text
        assert "Pending benches" in text  # empty results dir

    def test_render_embeds_available_results(self, tmp_path):
        (tmp_path / "table2.txt").write_text("MEASURED-TABLE-2-CONTENT\n")
        text = render_experiments_md(results_dir=tmp_path)
        assert "MEASURED-TABLE-2-CONTENT" in text

    def test_write_experiments_md(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig1.txt").write_text("FIG1-RESULT\n")
        output = tmp_path / "EXPERIMENTS.md"
        path = write_experiments_md(results_dir=results, output=output)
        assert path == output
        assert "FIG1-RESULT" in output.read_text()

    def test_entries_cover_all_paper_artefacts(self):
        stems = {e.result_stem for e in ENTRIES}
        paper_artefacts = {
            "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig8",
            "fig9", "fig10", "fig11", "fig12", "fig13", "case_study",
        }
        extras = {
            "ablations", "queueing", "migration",
            "sensitivity_alpha", "sensitivity_sigma", "sensitivity_eq11",
        }
        assert stems == paper_artefacts | extras


class TestAuditCommand:
    ARGS = ["--jobs", "1", "audit", "--seeds", "4", "--systems", "FlexPipe"]

    def test_audit_sums_contract_traffic(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        for column in ("borrows", "reclaim demands", "preemptions"):
            assert column in out

    def test_audit_fails_when_elastic_seeds_never_borrow(
        self, capsys, monkeypatch
    ):
        """Caps loose enough never to bind (the audit's old 40-45%) keep
        every invariant clean, but the contract paths go unexercised:
        the premise check must fail the run."""
        from repro.validation import chaos

        monkeypatch.setattr(
            chaos,
            "PAPER_FLEET_CAPS",
            tuple(
                tuple((m, 0.45) for m, _ in caps)
                for caps in chaos.PAPER_FLEET_CAPS
            ),
        )
        assert main(self.ARGS) == 1
        captured = capsys.readouterr()
        assert "all invariants held" not in captured.out
        assert "without a single borrow on FlexPipe" in captured.err
