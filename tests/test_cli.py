"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.artefacts import ARTEFACTS
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
        for name, artefact in ARTEFACTS.items():
            assert (name in out) == bool(artefact.bench)
        assert "cost" not in out

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
        assert "Max Batch (paper)" in out
        assert "1024 (1024)" in out

    def test_run_fig1_prints_windows(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "180" in out

    def test_every_experiment_registered_with_artefact(self):
        for artefact in ARTEFACTS.values():
            assert artefact.artefact
            assert callable(artefact.cells) and callable(artefact.render)
            assert artefact.claims

    @pytest.mark.parametrize("name", ["table2", "fig1"])
    def test_run_prints_what_the_bench_writes(self, name, capsys, tmp_path):
        """``repro run NAME`` prints byte for byte the table the bench
        writes to ``benchmarks/_results/``."""
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        bench.RESULTS_DIR = tmp_path

        class Benchmark:
            @staticmethod
            def pedantic(fn, rounds, iterations):
                return fn()

        bench.judge_artefact(name, Benchmark(), None, {})
        capsys.readouterr()
        assert main(["run", name]) == 0
        written = (tmp_path / f"{ARTEFACTS[name].result_stem}.txt").read_text()
        assert capsys.readouterr().out == written


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


class TestGateCommands:
    """The two policy gates at seed 0, as measured when they were first
    read from the artefact table.  Their verdicts must not move silently:
    whoever flips one updates this test and states the cause."""

    @staticmethod
    def _gate(capsys, *args):
        code = main(["--jobs", "1", "--no-cache", *args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_qos_quick_passes(self, capsys):
        code, out, err = self._gate(capsys, "qos", "--quick")
        assert code == 0, err
        # LLAMA2-7B (interactive): 47.5% under the null policy -> 78.7%.
        rows = {
            tuple(cell.strip() for cell in line.split("|")[:2]): line
            for line in out.splitlines()
            if "LLAMA2-7B" in line
        }
        assert "78.7%" in rows[("qos", "LLAMA2-7B")]
        assert "47.5%" in rows[("null", "LLAMA2-7B")]
        assert f"qos gate held: {ARTEFACTS['qos'].claims[0].text}" in out

    def test_qos_elastic_contracts_quick_fails(self, capsys):
        # Expected to flip once FlexPipe scale-outs stop capping KV at the
        # batch cap and QoS stops losing to null under contention
        # (ROADMAP items 5-6); today both policies tie with 0 borrows.
        code, out, err = self._gate(
            capsys, "qos", "--scenario", "elastic-contracts", "--quick"
        )
        assert code == 1
        assert f"qos gate failed: {ARTEFACTS['qos'].claims[0].text}" in err
        assert "gate held" not in out

    def test_qos_without_an_interactive_tenant_fails(self, capsys):
        # paper-multi-burst has no classed tenant: the gate has nothing to
        # compare, so it must not report that it held.
        code, out, err = self._gate(
            capsys, "qos", "--scenario", "paper-multi-burst", "--quick"
        )
        assert code == 1
        assert f"qos gate failed: {ARTEFACTS['qos'].claims[0].text}" in err
        assert "gate held" not in out

    def test_coldstart_quick_passes(self, capsys):
        code, out, err = self._gate(capsys, "coldstart", "--quick")
        assert code == 0, err
        # Hot-tenant p99 TTFT: GDSF 19.94 s < LRU 24.83 s; pipelined
        # 19.94 s < sequential 25.63 s.
        for row in ("gdsf+pipelined", "lru+pipelined", "gdsf+sequential"):
            assert row in out
        for p99 in ("19.94", "24.83", "25.63"):
            assert f"| {p99}" in out
        for claim in ARTEFACTS["coldstart"].claims:
            assert f"coldstart gate held: {claim.text}" in out


class TestMalformedNumbers:
    """Malformed counts and durations are usage errors (exit 2, no
    traceback), never an empty run that reports success."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "--duration", "-5"],
            ["audit", "--duration", "0"],
            ["audit", "--duration", "nan"],
            ["audit", "--duration", "inf"],
            ["audit", "--seeds", "-1"],
            ["audit", "--seeds", "0"],
            ["audit", "--seeds", "two"],
            ["fuzz", "--seeds", "-2"],
            ["fuzz", "--seeds", "1.5"],
        ],
    )
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--no-cache", *argv])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err and "Traceback" not in err

    def test_valid_numbers_parse(self):
        args = build_parser().parse_args(
            ["audit", "--seeds", "3", "--duration", "12.5"]
        )
        assert (args.seeds, args.duration) == (3, 12.5)
        assert build_parser().parse_args(["fuzz", "--seeds", "1"]).seeds == 1


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
