"""Declarative scenario engine: spec round-trips, driver behaviour,
catalog coverage, and runner determinism/caching (tier-1, fixed seeds)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.scenarios import (
    SCENARIOS,
    ArrivalSegment,
    ModelScript,
    ScenarioCase,
    ScenarioEvent,
    ScenarioSpec,
    get_scenario,
    run_scenario_case,
    run_scenarios,
)
from repro.experiments.systems import SYSTEMS

# A small, fast scenario exercising every segment kind and several event
# actions — the workhorse of the driver tests below.
MINI = ScenarioSpec(
    name="mini",
    cluster="small",
    settle=60.0,
    drain=10.0,
    models=(
        ModelScript(
            "LLAMA2-7B",
            segments=(
                ArrivalSegment("steady", start=0.0, duration=20.0, qps=5.0),
                ArrivalSegment("burst", start=8.0, duration=8.0, qps=6.0, cv=4.0),
            ),
        ),
        ModelScript(
            "WHISPER-9B",
            segments=(
                ArrivalSegment(
                    "diurnal", start=4.0, duration=12.0, qps=3.0, period=10.0
                ),
                ArrivalSegment("replay", start=16.0, duration=6.0, qps=3.0),
            ),
        ),
    ),
    events=(
        ScenarioEvent(at=6.0, action="reclaim"),
        ScenarioEvent(at=10.0, action="scale_out", model="LLAMA2-7B"),
        ScenarioEvent(at=14.0, action="refactor", model="LLAMA2-7B"),
        ScenarioEvent(at=18.0, action="drain"),
    ),
    admission_cap=64,
)


# ----------------------------------------------------------------------
# Spec: validation + serialisation
# ----------------------------------------------------------------------
class TestScenarioSpec:
    def test_json_round_trip_is_lossless(self):
        for spec in (MINI, *SCENARIOS.values()):
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_duration_covers_segments_and_events(self):
        assert MINI.duration == pytest.approx(22.0)  # last segment end
        late_event = ScenarioSpec(
            name="late",
            models=(ModelScript("LLAMA2-7B"),),
            events=(ScenarioEvent(at=50.0, action="reclaim"),),
        )
        assert late_event.duration == pytest.approx(51.0)
        assert late_event.horizon == pytest.approx(60.0 + 51.0 + 20.0)

    def test_quick_preserves_shape(self):
        quick = MINI.quick(2.0)
        assert quick.name == "mini-quick"
        # One uniform factor, capped so the shortest segment (6 s replay)
        # stays >= 5 s: effective = min(2, 6/5) = 1.2.
        assert quick.duration == pytest.approx(MINI.duration / 1.2)
        assert quick.duration < MINI.duration
        assert quick.settle == MINI.settle  # load times do not compress
        assert [e.action for e in quick.events] == [
            e.action for e in MINI.events
        ]
        assert quick.events[0].at == pytest.approx(6.0 / 1.2)

    def test_quick_scaling_is_uniform_so_phasing_survives(self):
        """Sequential phases must stay sequential and deliberate overlaps
        must stay overlaps — quick() scales all times by one factor."""
        for spec in SCENARIOS.values():
            quick = spec.quick()
            for model, model_q in zip(spec.models, quick.models):
                ratios = {
                    round(s.start / q.start, 9)
                    for s, q in zip(model.segments, model_q.segments)
                    if q.start > 0
                } | {
                    round(s.duration / q.duration, 9)
                    for s, q in zip(model.segments, model_q.segments)
                }
                assert len(ratios) == 1, (spec.name, model.model, ratios)
        # The cold-start wave's contiguous phases remain contiguous.
        wave = SCENARIOS["coldstart-wave"].quick()
        segs = sorted(wave.models[0].segments, key=lambda s: s.start)
        for a, b in zip(segs, segs[1:]):
            assert b.start == pytest.approx(a.end)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind="nope"),
            dict(duration=0.0),
            dict(start=-1.0),
            dict(qps=0.0),
            dict(cv=-1.0),
            dict(kind="diurnal", amplitude=1.0),
            dict(kind="diurnal", period=0.0),
            dict(kind="burst", burst_cycle=0.0),
            dict(kind="burst", cv=1.0),
        ],
    )
    def test_bad_segments_rejected(self, bad):
        with pytest.raises(ValueError):
            ArrivalSegment(**bad)

    def test_bad_events_and_specs_rejected(self):
        with pytest.raises(ValueError):
            ScenarioEvent(at=1.0, action="nuke")
        with pytest.raises(ValueError):
            ScenarioEvent(at=-1.0, action="drain")
        with pytest.raises(ValueError):
            ScenarioSpec(name="empty", models=())
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="dup",
                models=(ModelScript("LLAMA2-7B"), ModelScript("LLAMA2-7B")),
            )
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="bad-cluster",
                models=(ModelScript("LLAMA2-7B"),),
                cluster="warehouse",
            )
        with pytest.raises(ValueError):
            ModelScript("NoSuchModel")
        with pytest.raises(ValueError, match="not in the fleet"):
            ScenarioSpec(
                name="typo-event",
                models=(ModelScript("LLAMA2-7B"),),
                events=(ScenarioEvent(at=1.0, action="drain", model="WHISPER9B"),),
            )

    def test_spec_dumped_with_a_removed_field_is_a_value_error(self):
        """A spec dumped when segments still carried ``trace_file``."""
        data = MINI.to_dict()
        data["models"][0]["segments"][0]["trace_file"] = ""
        with pytest.raises(ValueError, match="trace_file") as info:
            ScenarioSpec.from_dict(data)
        assert "ArrivalSegment" in str(info.value)
        assert "trace_function" in str(info.value)  # lists valid fields

    @pytest.mark.parametrize(
        "level, misspelled",
        [
            ("spec", "admision_cap"),
            ("model", "slo_clas"),
            ("segment", "qsp"),
            ("event", "when"),
            ("azure2019", "top"),
        ],
    )
    def test_unknown_keys_named_at_every_level(self, level, misspelled):
        data = get_scenario("azure-replay").to_dict()
        target = {
            "spec": data,
            "model": data["models"][0],
            "segment": data["models"][0]["segments"][0],
            "event": data["events"][0],
            "azure2019": data["azure2019"],
        }[level]
        target[misspelled] = 1
        with pytest.raises(ValueError, match=misspelled):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize(
        "document, owner, field",
        [
            ('{"models": [{"model": "LLAMA2-7B"}]}', "ScenarioSpec", "'name'"),
            ('{"name": "x", "models": [{"qps": 1.0}]}', "ModelScript", "'model'"),
            ('{"name": "x", "models": [3]}', "ModelScript", "'models'"),
            (
                '{"name": "x", "models": [{"model": "LLAMA2-7B", "segments": [7]}]}',
                "ArrivalSegment",
                "'segments'",
            ),
            (
                '{"name": "x", "models": [{"model": "LLAMA2-7B"}], "events": null}',
                "ScenarioSpec",
                "'events'",
            ),
            (
                '{"name": "x", "models": [{"model": "LLAMA2-7B"}], "settle": "abc"}',
                "ScenarioSpec",
                "'settle'",
            ),
            (
                '{"name": "x", "models": [{"model": "LLAMA2-7B",'
                ' "segments": [{"qps": "fast"}]}]}',
                "ArrivalSegment",
                "'qps'",
            ),
            ("[]", "ScenarioSpec", "object"),
            ("5", "ScenarioSpec", "object"),
            (
                '{"name": "x", "models": [{"model": "LLAMA2-7B"}],'
                ' "fragmentation": "no"}',
                "ScenarioSpec",
                "'fragmentation'",
            ),
            (
                '{"name": 5, "models": [{"model": "LLAMA2-7B"}]}',
                "ScenarioSpec",
                "'name'",
            ),
            (
                '{"name": "x", "models": [{"model": "LLAMA2-7B"}], "azure2019": 5}',
                "Azure2019Source",
                "'azure2019'",
            ),
            (
                '{"name": "x", "models": [{"model": "LLAMA2-7B"}], "warmup": -1}',
                "ScenarioSpec",
                "'warmup'",
            ),
            (
                '{"name": "x", "models": [{"model": "LLAMA2-7B"}], "warmup": 30}',
                "ScenarioSpec",
                "'warmup'",
            ),
            (
                '{"name": "x", "models": [{"model": "LLAMA2-7B", "stream": 5}]}',
                "ModelScript",
                "'stream'",
            ),
        ],
        ids=[
            "missing-name",
            "missing-model",
            "model-not-object",
            "segment-not-object",
            "events-null",
            "settle-string",
            "qps-string",
            "document-list",
            "document-number",
            "bool-string",
            "name-number",
            "trace-source-number",
            "warmup-negative",
            "warmup-past-traffic",
            "stream-number",
        ],
    )
    def test_malformed_spec_is_a_value_error(self, document, owner, field):
        """Malformed JSON specs fail with a ValueError naming the class and
        the field, never a TypeError traceback."""
        with pytest.raises(ValueError) as info:
            ScenarioSpec.from_json(document)
        assert owner in str(info.value) and field in str(info.value)

    def test_warmup_and_stream_round_trip(self):
        spec = replace(
            MINI,
            warmup=5.0,
            models=(
                ModelScript("LLAMA2-7B", (ArrivalSegment(duration=20.0),), stream=""),
                ModelScript("WHISPER-9B", (ArrivalSegment(duration=9.0),), stream="_bg"),
            ),
            events=(),
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.epoch == spec.settle + 5.0
        assert spec.measured == spec.duration - 5.0 + spec.drain

    def test_quick_scales_warmup_with_the_segments(self):
        spec = replace(MINI, warmup=6.0)
        quick = spec.quick()
        shrink = spec.duration / quick.duration
        assert quick.warmup == pytest.approx(6.0 / shrink)

    def test_default_fields_keep_the_historical_window(self):
        assert MINI.epoch == MINI.settle
        assert MINI.measured == max(MINI.duration, 1.0) + MINI.drain

    def test_direct_stream_misuse_is_a_value_error(self):
        with pytest.raises(ValueError, match="'stream'"):
            ModelScript("LLAMA2-7B", stream=5)
        with pytest.raises(ValueError, match="'stream'"):
            ModelScript(
                "LLAMA2-7B",
                (ArrivalSegment(), ArrivalSegment(start=30.0)),
                stream="",
            )
        with pytest.raises(ValueError, match="'stream'"):
            ScenarioSpec(
                name="x",
                models=(
                    ModelScript("LLAMA2-7B", stream="_a"),
                    ModelScript("WHISPER-9B", stream="_a"),
                ),
            )

    def test_case_override_clashing_with_a_spec_knob_raises(self):
        spec = replace(MINI, scale_to_zero=True)
        with pytest.raises(ValueError, match="min_replicas") as info:
            ScenarioCase(spec, "FlexPipe", overrides={"min_replicas": 1})
        assert "'overrides'" in str(info.value)
        # Baselines take no cold-start knobs, so nothing clashes there;
        # an initial_replicas knob clashes on every system.
        ScenarioCase(spec, "AlpaServe", overrides={"min_replicas": 1})
        with pytest.raises(ValueError, match="initial_replicas"):
            ScenarioCase(
                replace(MINI, initial_replicas=2),
                "Tetris",
                overrides={"initial_replicas": 1},
            )

    def test_catalog_lookup(self):
        assert get_scenario("tenant-churn").name == "tenant-churn"
        with pytest.raises(KeyError, match="available"):
            get_scenario("nope")

    def test_catalog_has_required_breadth(self):
        assert len(SCENARIOS) >= 6
        assert any(s.cluster == "paper" for s in SCENARIOS.values())
        assert any(
            len(s.models) >= 3 for s in SCENARIOS.values()
        ), "catalog needs a >=3-tenant scenario"
        kinds = {
            seg.kind
            for s in SCENARIOS.values()
            for m in s.models
            for seg in m.segments
        }
        assert {"steady", "burst", "diurnal", "replay"} <= kinds
        actions = {e.action for s in SCENARIOS.values() for e in s.events}
        assert {"reclaim", "fail_server", "drain", "refactor", "scale_out"} <= actions


# ----------------------------------------------------------------------
# Driver behaviour
# ----------------------------------------------------------------------
class TestScenarioDriver:
    @pytest.fixture(scope="class")
    def mini_report(self):
        return run_scenario_case(ScenarioCase(MINI, "FlexPipe", seed=0))

    def test_mini_runs_clean(self, mini_report):
        assert mini_report.ok, "\n".join(str(v) for v in mini_report.violations)
        assert mini_report.offered > 0
        assert mini_report.completed > 0

    def test_per_model_rows_cover_the_fleet(self, mini_report):
        assert set(mini_report.per_model) == {"LLAMA2-7B", "WHISPER-9B"}
        for summary in mini_report.per_model.values():
            assert summary.offered > 0
            assert summary.completed > 0

    def test_per_model_rows_sum_to_aggregate(self, mini_report):
        total = sum(s.completed for s in mini_report.per_model.values())
        assert total == mini_report.aggregate.completed

    def test_admitted_plus_shed_reconciles_with_offered(self, mini_report):
        """Per-model rows count admitted work; generated = admitted + shed."""
        admitted = sum(s.offered for s in mini_report.per_model.values())
        assert admitted + mini_report.shed == mini_report.offered

    def test_events_fired(self, mini_report):
        fired = mini_report.events
        assert sum(fired.values()) == len(MINI.events)
        assert any(k.startswith("reclaim:") for k in fired)
        assert any(k.startswith("refactor:") for k in fired)

    def test_same_case_is_deterministic(self, mini_report):
        again = run_scenario_case(ScenarioCase(MINI, "FlexPipe", seed=0))
        assert again.aggregate == mini_report.aggregate
        assert again.per_model == mini_report.per_model
        assert again.events == mini_report.events

    def test_different_seed_differs(self, mini_report):
        other = run_scenario_case(ScenarioCase(MINI, "FlexPipe", seed=1))
        assert other.offered != mini_report.offered

    def test_unknown_system_rejected(self):
        with pytest.raises(KeyError):
            run_scenarios([MINI], ["NoSuchSystem"], jobs=1, use_cache=False)

    def test_crash_becomes_attributed_violation(self, monkeypatch):
        import repro.scenarios.driver as driver_mod

        def boom(self):
            raise RuntimeError("synthetic scenario crash")

        monkeypatch.setattr(driver_mod.ScenarioDriver, "run", boom)
        report = driver_mod.run_scenario_case(
            ScenarioCase(MINI, "FlexPipe", seed=5)
        )
        assert not report.ok
        assert report.violations[0].invariant == "harness-crash"
        assert "synthetic scenario crash" in report.violations[0].detail
        assert report.seed == 5

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_every_system_survives_the_mini_scenario(self, system):
        report = run_scenario_case(ScenarioCase(MINI, system, seed=2))
        assert report.ok, "\n".join(str(v) for v in report.violations)
        assert report.completed > 0


# ----------------------------------------------------------------------
# Catalog scenarios stay invariant-clean (one representative system each
# beyond FlexPipe keeps tier-1 cost bounded; `repro scenario run --all`
# covers the full grid in CI).
# ----------------------------------------------------------------------
class TestCatalogRuns:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_quick_catalog_scenario_is_clean_on_flexpipe(self, name):
        spec = SCENARIOS[name].quick()
        report = run_scenario_case(ScenarioCase(spec, "FlexPipe", seed=0))
        assert report.ok, "\n".join(str(v) for v in report.violations)
        assert report.offered > 0

    def test_tenant_churn_capacity_follows_the_script(self):
        """Late-arriving tenants actually get traffic and completions."""
        report = run_scenario_case(
            ScenarioCase(SCENARIOS["tenant-churn"], "FlexPipe", seed=0)
        )
        assert report.ok
        for model in ("LLAMA2-7B", "WHISPER-9B", "BERT-21B"):
            assert report.per_model[model].completed > 0, model


# ----------------------------------------------------------------------
# Runner fan-out: determinism at any job count + result cache
# (mirrors test_runner.py's contract for figure cells)
# ----------------------------------------------------------------------
class TestScenarioRunner:
    SYSTEMS = ["FlexPipe", "AlpaServe"]

    def _run(self, jobs: int, **kwargs):
        return run_scenarios(
            [MINI],
            self.SYSTEMS,
            seed=0,
            runner=ExperimentRunner(jobs=jobs, use_cache=False),
            **kwargs,
        )

    def test_jobs_1_2_4_identical(self):
        one = self._run(1)
        two = self._run(2)
        four = self._run(4)
        for a, b in ((one, two), (one, four)):
            assert len(a) == len(b) == len(self.SYSTEMS)
            for x, y in zip(a, b):
                assert x.scenario == y.scenario and x.system == y.system
                assert x.aggregate == y.aggregate  # every RunSummary field
                assert x.per_model == y.per_model
                assert x.events == y.events
                assert [str(v) for v in x.violations] == [
                    str(v) for v in y.violations
                ]

    def test_second_invocation_is_pure_cache(self, tmp_path):
        first = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        r1 = run_scenarios([MINI], ["FlexPipe"], runner=first)
        assert first.simulations_run == 1
        second = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        r2 = run_scenarios([MINI], ["FlexPipe"], runner=second)
        assert second.simulations_run == 0
        assert second.cache_hits == 1
        assert r1[0].aggregate == r2[0].aggregate
        assert r1[0].per_model == r2[0].per_model

    def test_seed_change_misses_the_cache(self, tmp_path):
        runner = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        run_scenarios([MINI], ["FlexPipe"], seed=0, runner=runner)
        run_scenarios([MINI], ["FlexPipe"], seed=1, runner=runner)
        assert runner.simulations_run == 2

    def test_harness_crash_reports_are_never_cached(self, tmp_path, monkeypatch):
        """A transient crash must re-execute next run, not pin a failing
        cell into the result cache until the next source edit."""
        import repro.scenarios.driver as driver_mod

        def boom(self):
            raise RuntimeError("transient environment failure")

        monkeypatch.setattr(driver_mod.ScenarioDriver, "run", boom)
        first = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        r1 = run_scenarios([MINI], ["FlexPipe"], runner=first)
        assert not r1[0].ok and first.simulations_run == 1
        second = ExperimentRunner(jobs=1, use_cache=True, cache_dir=tmp_path)
        r2 = run_scenarios([MINI], ["FlexPipe"], runner=second)
        assert second.cache_hits == 0
        assert second.simulations_run == 1  # re-executed, not replayed


# ----------------------------------------------------------------------
# QoS control plane: spec plumbing, tenant accounting, and the
# priority-inversion property (the reason the subsystem exists)
# ----------------------------------------------------------------------
class TestQoSScenarios:
    def test_slo_class_round_trips_and_validates(self):
        spec = get_scenario("priority-inversion")
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.qos_enabled
        with pytest.raises(ValueError, match="SLO class"):
            ModelScript("LLAMA2-7B", slo_class="gold")
        with pytest.raises(ValueError, match="SLO class"):
            ArrivalSegment("steady", slo_class="gold")
        with pytest.raises(ValueError, match="qos"):
            ScenarioSpec(
                name="bad", models=(ModelScript("LLAMA2-7B"),), qos="maybe"
            )

    def test_qos_modes_auto_on_off(self):
        unclassed = ScenarioSpec(name="u", models=(ModelScript("LLAMA2-7B"),))
        assert not unclassed.qos_enabled  # auto + no classes
        assert replace(unclassed, qos="on").qos_enabled
        classed = ScenarioSpec(
            name="c",
            models=(ModelScript("LLAMA2-7B", slo_class="interactive"),),
        )
        assert classed.qos_enabled
        assert not replace(classed, qos="off").qos_enabled
        # A segment-level class alone also arms auto mode.
        segment = ScenarioSpec(
            name="s",
            models=(
                ModelScript(
                    "LLAMA2-7B",
                    segments=(ArrivalSegment("steady", slo_class="batch"),),
                ),
            ),
        )
        assert segment.qos_enabled

    def test_classed_tenant_effective_slo_is_the_class_target(self):
        script = ModelScript("LLAMA2-7B", slo_class="interactive")
        assert script.effective_slo == 2.5
        assert ModelScript("LLAMA2-7B").effective_slo == 10.0

    @pytest.fixture(scope="class")
    def inversion_reports(self):
        spec = get_scenario("priority-inversion")
        return {
            mode: run_scenario_case(
                ScenarioCase(replace(spec, qos=mode), "FlexPipe", seed=0)
            )
            for mode in ("on", "off")
        }

    def test_both_policies_hold_every_invariant(self, inversion_reports):
        for mode, report in inversion_reports.items():
            assert report.ok, (mode, [str(v) for v in report.violations])

    def test_qos_strictly_improves_interactive_attainment(
        self, inversion_reports
    ):
        """The acceptance property: same seed, identical traffic, the
        interactive tenant attains strictly more of its SLO with the
        control plane than under the null policy."""
        on = inversion_reports["on"].tenants["LLAMA2-7B"]
        off = inversion_reports["off"].tenants["LLAMA2-7B"]
        assert on.slo_class == "interactive"
        assert (on.offered, on.slo_class) == (off.offered, off.slo_class)
        assert on.attainment > off.attainment

    def test_tenant_books_balance_under_both_policies(self, inversion_reports):
        for report in inversion_reports.values():
            for tenant in report.tenants.values():
                assert tenant.admitted + tenant.shed == tenant.offered
                assert tenant.completed <= tenant.admitted
            assert (
                sum(t.shed for t in report.tenants.values()) == report.shed
            )
            assert (
                sum(t.offered for t in report.tenants.values())
                == report.offered
            )

    def test_per_model_summaries_carry_the_qos_fields(self, inversion_reports):
        report = inversion_reports["on"]
        summary = report.per_model["LLAMA2-7B"]
        tenant = report.tenants["LLAMA2-7B"]
        assert summary.slo_class == "interactive"
        assert summary.shed == tenant.shed
        assert summary.slo_attainment == pytest.approx(tenant.attainment)
        assert report.qos_enabled

    def test_weighted_fair_sheds_batch_harder_than_interactive(
        self, inversion_reports
    ):
        on = inversion_reports["on"]
        assert (
            on.tenants["BERT-21B"].shed_rate
            > on.tenants["LLAMA2-7B"].shed_rate
        )


class TestGpuContentionScenario:
    """The class-aware *resource* arbitration acceptance scenario: two
    classes race for the fragments a reclamation cycle hands back."""

    def test_share_cap_round_trips_and_validates(self):
        spec = get_scenario("gpu-contention")
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.qos_enabled
        caps = {m.model: m.share_cap for m in spec.models}
        assert caps["BERT-21B"] is not None
        with pytest.raises(ValueError, match="share_cap"):
            ModelScript("LLAMA2-7B", share_cap=1.5)
        # A share cap alone (no class annotation) arms qos auto mode.
        capped = ScenarioSpec(
            name="capped",
            models=(ModelScript("LLAMA2-7B", share_cap=0.5),),
        )
        assert capped.qos_enabled

    @pytest.fixture(scope="class")
    def contention_reports(self):
        spec = get_scenario("gpu-contention")
        return {
            mode: run_scenario_case(
                ScenarioCase(replace(spec, qos=mode), "FlexPipe", seed=0)
            )
            for mode in ("on", "off")
        }

    def test_both_policies_hold_every_invariant(self, contention_reports):
        for mode, report in contention_reports.items():
            assert report.ok, (mode, [str(v) for v in report.violations])

    def test_interactive_tenant_wins_the_fragment_race(
        self, contention_reports
    ):
        """The acceptance property: with GPU arbitration the interactive
        tenant attains strictly more over identical traffic."""
        on = contention_reports["on"].tenants["LLAMA2-7B"]
        off = contention_reports["off"].tenants["LLAMA2-7B"]
        assert on.offered == off.offered
        assert on.attainment > off.attainment

    def test_batch_tenant_stays_under_its_cap(self, contention_reports):
        tenant = contention_reports["on"].tenants["BERT-21B"]
        assert tenant.share_cap is not None
        assert 0.0 < tenant.gpu_share_peak <= tenant.share_cap
        # The null policy carries the rows too (cap unenforced there).
        null = contention_reports["off"].tenants["BERT-21B"]
        assert null.gpu_share_peak > 0.0


class TestAzureReplayScenario:
    def test_azure_segment_validation(self):
        # azure2019 is the only Azure trace kind.
        with pytest.raises(ValueError, match="unknown segment kind"):
            ArrivalSegment("azure")
        with pytest.raises(ValueError, match="trace_function"):
            ArrivalSegment("azure2019")
        ArrivalSegment("azure2019", trace_function="o/a/f")  # fine

    def test_catalog_entry_runs_clean_and_offers_traffic(self):
        from repro.workloads.azure2019 import load_window_cached

        spec = get_scenario("azure-replay")
        report = run_scenario_case(ScenarioCase(spec, "FlexPipe", seed=0))
        assert report.ok, "\n".join(str(v) for v in report.violations)
        # At full length every invocation of both windows is offered.
        window = load_window_cached(spec.azure2019)
        for model, fn in zip(spec.model_names, window.functions):
            assert report.per_model[model].offered == fn.total

    def test_tenants_replay_the_top_two_functions(self):
        """Both tenants replay one of the scenario window's top-2
        functions, with qps carrying the function's volume."""
        from repro.workloads.azure2019 import load_window_cached

        spec = get_scenario("azure-replay")
        window = load_window_cached(spec.azure2019)
        assert spec.azure2019.top_k == 2
        segments = [m.segments[0] for m in spec.models]
        assert [s.kind for s in segments] == ["azure2019", "azure2019"]
        assert [s.trace_function for s in segments] == [
            fn.key for fn in window.functions
        ]
        for seg, fn in zip(segments, window.functions):
            assert seg.qps == pytest.approx(fn.total / seg.duration)

    def test_azure_replay_is_deterministic(self):
        spec = get_scenario("azure-replay").quick()
        a = run_scenario_case(ScenarioCase(spec, "FlexPipe", seed=3))
        b = run_scenario_case(ScenarioCase(spec, "FlexPipe", seed=3))
        assert a.aggregate == b.aggregate
        assert a.offered == b.offered
