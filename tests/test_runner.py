"""Tests for the parallel experiment runner and its result cache.

The determinism contract is the load-bearing one: seeded runs are
order-independent, so a parallel sweep must be *equal* — every RunSummary
field — to the sequential sweep, at any job count.  Every figure cell is
a ``ScenarioCase`` keyed by ``scenario_cache_key``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import figures
from repro.experiments.runner import (
    ExperimentRunner,
    ResultCache,
    code_fingerprint,
)
from repro.scenarios.driver import ScenarioCase, run_cases, scenario_cache_key


def fast_spec(cv: float = 2.0):
    """A figure workload on short horizons: each simulation stays under a
    second, and determinism claims are horizon-independent."""
    return figures.figure_spec(
        "fast", cv=cv, qps=10.0, duration=40.0, settle=120.0, warmup=10.0,
        drain=10.0,
    )


@pytest.fixture
def fast_case() -> ScenarioCase:
    return ScenarioCase(fast_spec(), "FlexPipe", 0)


def seq_runner() -> ExperimentRunner:
    return ExperimentRunner(jobs=1, use_cache=False)


def par_runner(jobs: int = 4) -> ExperimentRunner:
    return ExperimentRunner(jobs=jobs, use_cache=False)


def key(case: ScenarioCase) -> str:
    return scenario_cache_key(case, "codeprint")


class TestCacheKey:
    def test_overrides_are_canonicalised(self, fast_case):
        a = dataclasses.replace(fast_case, overrides={"b": 1, "a": 2})
        b = dataclasses.replace(fast_case, overrides=(("a", 2), ("b", 1)))
        assert a == b
        assert a.overrides == (("a", 2), ("b", 1))
        assert key(a) == key(b)

    def test_cache_key_differs_by_config_and_overrides(self, fast_case):
        other_seed = dataclasses.replace(fast_case, seed=1)
        other_sys = dataclasses.replace(fast_case, system="AlpaServe")
        other_spec = dataclasses.replace(fast_case, spec=fast_spec(cv=4.0))
        overridden = dataclasses.replace(
            fast_case, overrides={"enable_refactoring": False}
        )
        cases = (fast_case, other_seed, other_sys, other_spec, overridden)
        assert len({key(c) for c in cases}) == len(cases)

    def test_code_fingerprint_is_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestDeterminism:
    def test_parallel_comparison_identical_to_sequential(self):
        cases = [
            ScenarioCase(fast_spec(), name, 0) for name in ("FlexPipe", "AlpaServe")
        ]
        seq = run_cases(cases, runner=seq_runner())
        par = run_cases(cases, runner=par_runner())
        assert seq == par  # every report field, aggregate summaries included
        for a, b in zip(seq, par):
            assert a.aggregate.latency_percentiles == b.aggregate.latency_percentiles
            assert a.aggregate.goodput == b.aggregate.goodput

    def test_jobs_1_vs_jobs_4_sweep_identical(self):
        kwargs = dict(cvs=(1.0, 4.0), systems=("FlexPipe", "AlpaServe"))
        one = figures.system_sweep(runner=par_runner(1), **kwargs)
        four = figures.system_sweep(runner=par_runner(4), **kwargs)
        assert one == four
        for cv in kwargs["cvs"]:
            for name in kwargs["systems"]:
                assert dataclasses.asdict(one[cv][name]) == dataclasses.asdict(
                    four[cv][name]
                )


class TestResultCache:
    def test_second_invocation_runs_zero_simulations(self, fast_case, tmp_path):
        first = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        (r1,) = run_cases([fast_case], runner=first)
        assert first.simulations_run == 1 and first.cache_hits == 0
        second = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        (r2,) = run_cases([fast_case], runner=second)
        assert second.simulations_run == 0
        assert second.cache_hits == 1
        assert r1 == r2

    def test_figure_second_invocation_is_pure_cache(self, tmp_path):
        kwargs = dict(cvs=(1.0,), seed=0)
        first = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        rows1 = figures.fig3_rows(runner=first, **kwargs)
        assert first.simulations_run == len(kwargs["cvs"])
        second = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        rows2 = figures.fig3_rows(runner=second, **kwargs)
        assert second.simulations_run == 0
        assert second.cache_hits == len(kwargs["cvs"])
        assert rows1 == rows2

    def test_config_change_misses_the_cache(self, fast_case, tmp_path):
        runner = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        run_cases([fast_case], runner=runner)
        run_cases([dataclasses.replace(fast_case, seed=1)], runner=runner)
        assert runner.simulations_run == 2

    def test_corrupt_cache_entry_is_a_miss(self, fast_case, tmp_path):
        runner = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        entry = scenario_cache_key(fast_case, runner._fingerprint)
        runner.cache.root.mkdir(exist_ok=True)
        (runner.cache.root / f"{entry}.pkl").write_bytes(b"not a pickle")
        assert ResultCache(tmp_path).get(entry) is None
        run_cases([fast_case], runner=runner)
        assert runner.simulations_run == 1
        assert runner.cache.get(entry) is not None  # rewritten on the miss

    def test_clear_empties_the_cache(self, fast_case, tmp_path):
        runner = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        run_cases([fast_case], runner=runner)
        assert runner.cache.clear() == 1
        assert runner.cache.clear() == 0


class TestExtractors:
    def test_extractor_output_crosses_the_pool(self):
        cases = [ScenarioCase(fast_spec(cv=cv), "AlpaServe", 0) for cv in (1.0, 2.0)]
        results = par_runner(2).map(
            figures.live_cell,
            [(case, figures.initial_init_times) for case in cases],
        )
        for report, init_times in results:
            assert report.ok
            assert report.aggregate.completed > 0
            assert isinstance(init_times, list) and init_times
            assert all(t > 0 for t in init_times)
