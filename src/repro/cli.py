"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every reproducible experiment with its paper artefact.
``run EXPERIMENT``
    Run one experiment driver and print its paper-vs-measured table
    (figures also render an ASCII shape preview).
``demo``
    A 60-second FlexPipe serving run on the fragmented paper cluster —
    the quickest end-to-end sanity check.
``report``
    Regenerate ``EXPERIMENTS.md`` from the bench outputs in
    ``benchmarks/_results/``.
``audit``
    The chaos audit: one seeded scenario per seed (single-model small
    cluster, or a multi-model paper-cluster fleet with binding elastic
    caps) run on every system, asserting the invariants.
``scenario list`` / ``scenario run``
    The declarative scenario engine: scripted multi-model runs (phased
    arrivals + timed disturbances) against any system, audited.
``qos``
    The QoS control-plane report: one scenario run twice (control plane
    on vs the null policy) over identical traffic, per-tenant attainment
    and shed tables, gated on the interactive tenants actually winning.
``fuzz``
    Direct migration/link-layer fuzzing (scheduling invariants, link
    physics, in-place deltas over random lattices and the zoo models'
    real ladders).

The heavy experiments (full five-system sweeps) are the same code the
benches call; expect minutes of wall-clock for those.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro.metrics.ascii_plot import bar_chart, sparkline
from repro.metrics.report import format_table


@dataclass(frozen=True)
class Experiment:
    """One runnable reproduction target."""

    name: str
    artefact: str
    runner: Callable[[argparse.Namespace], str]
    heavy: bool = False


def _rows_table(rows: list[dict], title: str) -> str:
    """Generic dict-rows renderer used by drivers without bespoke tables."""
    if not rows:
        return f"{title}\n(no rows)"
    headers = list(rows[0])
    body = [[row.get(h, "") for h in headers] for row in rows]
    return format_table(headers, body, title=title)


# Fleets larger than this print as a count plus the first few names.
_FLEET_INLINE = 4


def _fleet_summary(names) -> str:
    if len(names) <= _FLEET_INLINE:
        return ", ".join(names)
    head = ", ".join(names[: _FLEET_INLINE - 1])
    return f"{len(names)} models: {head}, …"


def _choose(
    requested: list | None, available: dict, what: str = "system"
) -> list[str] | None:
    """Resolve a requested-vs-available selection (default: everything);
    None (after a stderr message) if any name is unknown."""
    chosen = list(requested) if requested else sorted(available)
    unknown = [s for s in chosen if s not in available]
    if unknown:
        print(
            f"unknown {what}(s) {', '.join(unknown)}; "
            f"choose from: {', '.join(sorted(available))}",
            file=sys.stderr,
        )
        return None
    return chosen


def _report_violations(failures: list, describe) -> int:
    """Dump each failing report's violations to stderr; 1 if any, else 0.

    ``describe(report)`` renders the reproducer label for one report.
    """
    if not failures:
        return 0
    print("\ninvariant violations:", file=sys.stderr)
    for report in failures:
        for violation in report.violations:
            print(f"  {describe(report)}: {violation}", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------
# Runners (import drivers lazily: each pulls in heavy modules)
# ----------------------------------------------------------------------
def _runner_from(args):
    """Build the parallel experiment runner the CLI flags describe."""
    from repro.experiments.runner import ExperimentRunner

    return ExperimentRunner(
        jobs=getattr(args, "jobs", None),
        use_cache=False if getattr(args, "no_cache", False) else None,
    )


def _run_table1(args) -> str:
    from repro.experiments import figures

    stats = figures.table1_rows(seed=args.seed)
    rows = [{"metric": k, "value": v} for k, v in stats.items()]
    return _rows_table(rows, "Table 1 - simulated cluster utilization statistics")


def _run_table2(args) -> str:
    from repro.experiments import figures

    return _rows_table(
        figures.table2_rows(), "Table 2 - OPT-66B granularity profile"
    )


def _run_fig1(args) -> str:
    from repro.experiments import figures

    return _rows_table(
        figures.fig1_rows(seed=args.seed),
        "Fig. 1 - request CV across measurement windows",
    )


def _run_fig3(args) -> str:
    from repro.experiments import figures

    rows = figures.fig3_rows(seed=args.seed, runner=_runner_from(args))
    table = _rows_table(rows, "Fig. 3 - static 4-stage pipeline vs workload CV")
    chart = bar_chart(
        [str(r["cv"]) for r in rows],
        [r["goodput_rps"] for r in rows],
        title="goodput (req/s) by CV",
        width=34,
    )
    return f"{table}\n\n{chart}"


def _run_fig4(args) -> str:
    from repro.experiments import figures

    return _rows_table(
        figures.fig4_rows(seed=args.seed, runner=_runner_from(args)),
        "Fig. 4 - latency by pipeline granularity and CV",
    )


def _sweep_figs(args) -> dict:
    from repro.experiments import figures

    return figures.system_sweep(seed=args.seed, runner=_runner_from(args))


def _run_fig8(args) -> str:
    from repro.experiments import figures

    return _rows_table(
        figures.fig8_rows(_sweep_figs(args)), "Fig. 8 - E2E latency breakdown"
    )


def _run_fig9(args) -> str:
    from repro.experiments import figures

    data = figures.fig9_series(seed=args.seed, runner=_runner_from(args))
    lines = ["Fig. 9 - response time under CV=8 burst workload (300 s, 15 s windows)"]
    for system, stats in data.items():
        values = list(stats["rt_series"].values())
        lines.append(
            f"{system:>10}: {sparkline(values, width=60)}  "
            f"mean={stats['mean_latency']:.2f}s p99={stats['p99']:.2f}s"
        )
    return "\n".join(lines)


def _run_fig10(args) -> str:
    from repro.experiments import figures

    return _rows_table(
        figures.fig10_rows(_sweep_figs(args)), "Fig. 10 - latency percentiles"
    )


def _run_fig11(args) -> str:
    from repro.experiments import figures

    return _rows_table(
        figures.fig11_rows(_sweep_figs(args)), "Fig. 11 - stall recovery times"
    )


def _run_fig12(args) -> str:
    from repro.experiments import figures

    return _rows_table(
        figures.fig12_rows(_sweep_figs(args)),
        "Fig. 12 - goodput vs GPU utilization",
    )


def _run_fig13(args) -> str:
    from repro.experiments import figures

    return _rows_table(
        figures.fig13_rows(seed=args.seed, runner=_runner_from(args)),
        "Fig. 13 - prefill latency by model",
    )


def _run_case_study(args) -> str:
    from repro.experiments import figures

    stats = figures.case_study_rows(seed=args.seed, runner=_runner_from(args))
    rows = [{"metric": k, "value": v} for k, v in stats.items()]
    return _rows_table(rows, "§9.6 case study - production rollout")


def _run_ablations(args) -> str:
    from repro.experiments import figures

    return _rows_table(
        figures.ablation_rows(seed=args.seed, runner=_runner_from(args)),
        "Ablations - FlexPipe mechanisms",
    )


def _run_demo(args) -> str:
    from repro.experiments.figures import audited_summary, figure_spec
    from repro.scenarios.driver import ScenarioCase, run_scenario_case

    spec = figure_spec(
        "demo", cv=2.0, qps=10.0, duration=60.0, settle=120.0, warmup=20.0,
        drain=20.0,
    )
    started = time.time()
    summary = audited_summary(
        run_scenario_case(ScenarioCase(spec, "FlexPipe", args.seed))
    )
    elapsed = time.time() - started
    rows = [
        {"metric": "offered requests", "value": summary.offered},
        {"metric": "completed", "value": summary.completed},
        {"metric": "goodput rate", "value": f"{summary.goodput_rate:.1%}"},
        {"metric": "mean latency (s)", "value": f"{summary.mean_latency:.3f}"},
        {
            "metric": "p99 latency (s)",
            "value": f"{summary.latency_percentiles[99]:.3f}",
        },
        {"metric": "GPU utilization", "value": f"{summary.gpu_utilization:.1%}"},
        {"metric": "wall-clock (s)", "value": f"{elapsed:.1f}"},
    ]
    return _rows_table(rows, "FlexPipe demo - 60 s of CV=2 traffic at 10 QPS")


def _run_report(args) -> str:
    from repro.experiments.report import write_experiments_md

    path = write_experiments_md()
    return f"wrote {path}"


def _run_audit(args) -> int:
    """``repro audit``: the seeded chaos audit of lifecycle invariants.

    Exits 1 on any invariant violation, and also when a system ran
    elastic-contract seeds without a single borrow: the audit would then
    pass without ever exercising the contract paths it exists to check.
    """
    from repro.experiments.systems import SYSTEMS
    from repro.validation.chaos import audit_seeds, chaos_spec

    systems = _choose(args.systems, SYSTEMS)
    if systems is None:
        return 2
    reports = audit_seeds(
        seeds=args.seeds,
        systems=systems,
        runner=_runner_from(args),
        duration=args.duration,
    )
    elastic = {s for s in range(args.seeds) if chaos_spec(s).elastic}
    rows = []
    idle_premise = []
    for name in systems:
        mine = [r for r in reports if r.system == name]
        bad = [r for r in mine if not r.ok]
        tenants = [t for r in mine for t in r.tenants.values()]
        borrows = sum(t.borrows for t in tenants)
        if borrows == 0 and any(r.seed in elastic for r in mine):
            idle_premise.append(name)
        rows.append(
            {
                "system": name,
                "seeds": len(mine),
                "violations": sum(len(r.violations) for r in mine),
                "failing seeds": ", ".join(str(r.seed) for r in bad) or "-",
                "offered": sum(r.offered for r in mine),
                "completed": sum(r.completed for r in mine),
                "shed": sum(r.shed for r in mine),
                "borrows": borrows,
                "reclaim demands": sum(t.reclaims for t in tenants),
                "preemptions": sum(t.preemptions_won for t in tenants),
            }
        )
    print(
        _rows_table(
            rows,
            f"Chaos audit - {args.seeds} seed(s)/system, "
            "lifecycle invariants at quiesce",
        )
    )
    failed = _report_violations(
        [r for r in reports if not r.ok],
        lambda r: f"{r.system} seed={r.seed}",
    )
    if idle_premise:
        print(
            f"\nelastic seeds ran without a single borrow on "
            f"{', '.join(idle_premise)}: the contract paths went unexercised.",
            file=sys.stderr,
        )
        failed = 1
    if failed:
        return 1
    print("\nall invariants held across every seeded interleaving.")
    return 0


def _run_scenario(args) -> int:
    """``repro scenario``: the declarative multi-model scenario engine."""
    from repro.experiments.systems import SYSTEMS
    from repro.scenarios import SCENARIOS, run_scenarios

    if args.scenario_command == "list":
        rows = [
            {
                "scenario": spec.name,
                "cluster": spec.cluster,
                "models": _fleet_summary(spec.model_names),
                "events": len(spec.events),
                "traffic (s)": f"{spec.duration:g}",
                "description": spec.description,
            }
            for spec in SCENARIOS.values()
        ]
        print(
            _rows_table(
                rows, "Scenario catalog (python -m repro scenario run <name>)"
            )
        )
        return 0

    # run
    if args.all and args.scenarios:
        print(
            "pass scenario names or --all, not both",
            file=sys.stderr,
        )
        return 2
    if not args.all and not args.scenarios:
        print(
            "no scenarios selected: name one or more, or pass --all "
            f"(available: {', '.join(sorted(SCENARIOS))})",
            file=sys.stderr,
        )
        return 2
    names = _choose(args.scenarios, SCENARIOS, what="scenario")
    if names is None:
        return 2
    systems = _choose(args.systems, SYSTEMS)
    if systems is None:
        return 2
    reports = run_scenarios(
        [SCENARIOS[n] for n in names],
        systems,
        seed=args.seed,
        quick=args.quick,
        runner=_runner_from(args),
        shards=args.shards,
    )
    rows = []
    for report in reports:
        rows.append(
            {
                "scenario": report.scenario,
                "system": report.system,
                "shards": (
                    f"{report.shards}*"
                    if report.shard_fallback
                    else str(report.shards)
                )
                if args.shards
                else "-",
                "violations": len(report.violations),
                "offered": report.offered,
                "completed": report.completed,
                "shed": report.shed,
                "goodput": f"{report.aggregate.goodput_rate:.1%}"
                if report.aggregate
                else "-",
                "p99 (s)": f"{report.aggregate.latency_percentiles[99]:.2f}"
                if report.aggregate
                else "-",
                "events": ", ".join(
                    f"{k}x{v}" for k, v in report.events.items()
                )
                or "-",
            }
        )
    print(
        _rows_table(
            rows,
            f"Scenario sweep - {len(names)} scenario(s) x "
            f"{len(systems)} system(s), invariants audited",
        )
    )
    if args.per_model:
        model_rows = []
        for report in reports:
            for model, summary in report.per_model.items():
                tenant = report.tenants.get(model)
                model_rows.append(
                    {
                        "scenario": report.scenario,
                        "system": report.system,
                        "model": model,
                        "class": summary.slo_class or "-",
                        # Per-model rows count *admitted* work (gate-shed
                        # requests never reach a tenant); the sweep table's
                        # "offered" is everything generated, shed included.
                        "admitted": summary.offered,
                        "shed": summary.shed,
                        "completed": summary.completed,
                        "goodput": f"{summary.goodput_rate:.1%}",
                        # Attainment charges sheds as misses (goodput over
                        # everything the tenant offered).
                        "attainment": f"{summary.slo_attainment:.1%}",
                        "shed rate": f"{tenant.shed_rate:.1%}" if tenant else "-",
                        "mean lat (s)": f"{summary.mean_latency:.2f}",
                        "p99 (s)": f"{summary.latency_percentiles[99]:.2f}",
                    }
                )
        print()
        print(_rows_table(model_rows, "Per-model breakdown"))
    if _report_violations(
        [r for r in reports if not r.ok],
        lambda r: f"{r.scenario} x {r.system} seed={r.seed}",
    ):
        return 1
    print("\nall scenario runs held every lifecycle invariant.")
    return 0


def _run_qos(args) -> int:
    """``repro qos``: the control-plane on/off comparison report.

    Runs one scenario twice against the same system and seed — QoS
    control plane enabled vs the null policy (one shared queue-cap gate,
    FIFO routing) — over byte-identical traffic, prints the per-tenant
    QoS tables, and gates: both runs must hold every lifecycle invariant,
    and every interactive-class tenant must attain strictly more of its
    SLO with the control plane than without (the point of having one).
    """
    from dataclasses import replace as dc_replace

    from repro.experiments.systems import SYSTEMS
    from repro.scenarios import SCENARIOS, run_scenarios

    if _choose([args.scenario], SCENARIOS, what="scenario") is None:
        return 2
    if _choose([args.system], SYSTEMS) is None:
        return 2
    base = SCENARIOS[args.scenario]
    specs = [dc_replace(base, qos="on"), dc_replace(base, qos="off")]
    enabled, null = run_scenarios(
        specs,
        [args.system],
        seed=args.seed,
        quick=args.quick,
        runner=_runner_from(args),
    )

    rows = []
    for label, report in (("qos", enabled), ("null", null)):
        for model, tenant in report.tenants.items():
            rows.append(
                {
                    "policy": label,
                    "model": model,
                    "class": tenant.slo_class or "-",
                    "offered": tenant.offered,
                    "admitted": tenant.admitted,
                    "shed": tenant.shed,
                    "shed rate": f"{tenant.shed_rate:.1%}",
                    "goodput": tenant.goodput,
                    "attainment": f"{tenant.attainment:.1%}",
                    # Per-tenant GPU-share row: high-water fraction of
                    # fleet memory vs the tenant's configured cap.
                    "gpu peak": f"{tenant.gpu_share_peak:.1%}",
                    "cap": f"{tenant.share_cap:.0%}"
                    if tenant.share_cap is not None
                    else "-",
                    # Arbitration + elastic-contract traffic: preemptions
                    # this tenant won/lost at the allocator, borrow
                    # grants received, reclaim demands issued.
                    "pre w/l": f"{tenant.preemptions_won}/"
                    f"{tenant.preemptions_lost}",
                    "borrows": tenant.borrows,
                    "reclaims": tenant.reclaims,
                }
            )
    print(
        _rows_table(
            rows,
            f"QoS control plane vs null policy - {base.name} x "
            f"{args.system}, seed {args.seed}, identical traffic",
        )
    )
    failures = [r for r in (enabled, null) if not r.ok]
    if _report_violations(
        failures, lambda r: f"{r.scenario} x {r.system} seed={r.seed}"
    ):
        return 1
    interactive = [
        m
        for m, t in enabled.tenants.items()
        if t.slo_class == "interactive"
    ]
    # Strict improvement required — except when both policies already
    # saturate at full attainment, where there is no headroom to win.
    losers = [
        m
        for m in interactive
        if enabled.tenants[m].attainment <= null.tenants[m].attainment
        and not (
            enabled.tenants[m].attainment >= 1.0
            and null.tenants[m].attainment >= 1.0
        )
    ]
    if losers:
        print(
            f"\nQoS control plane did NOT improve interactive attainment "
            f"for: {', '.join(losers)}",
            file=sys.stderr,
        )
        return 1
    if interactive:
        gains = ", ".join(
            f"{m} {null.tenants[m].attainment:.1%} -> "
            f"{enabled.tenants[m].attainment:.1%}"
            for m in interactive
        )
        print(f"\ninteractive SLO attainment improved: {gains}")
    else:
        print("\n(no interactive-class tenant in this scenario; no gate)")
    return 0


def _run_coldstart(args) -> int:
    """``repro coldstart``: the cold-start economy comparison report.

    Runs the ``coldstart-economy`` scenario three times on FlexPipe over
    byte-identical traffic — cost-aware GDSF eviction with pipelined
    loading (the shipped configuration), recency-only LRU eviction, and
    load-then-activate (non-pipelined) loading — and gates: every run
    must hold all lifecycle invariants, GDSF must beat LRU on the hot
    tenants' mean p99 TTFT and warm-start rate, and pipelined loading
    must beat load-then-activate on the same TTFT stat.
    """
    from dataclasses import replace as dc_replace
    from statistics import mean

    from repro.scenarios import SCENARIOS, run_scenarios

    base = SCENARIOS["coldstart-economy"]
    variants = {
        "gdsf+pipelined": base,
        "lru+pipelined": dc_replace(
            base, name="coldstart-economy-lru", cache_policy="lru"
        ),
        "gdsf+sequential": dc_replace(
            base, name="coldstart-economy-seq", pipelined_loading=False
        ),
    }
    reports = dict(
        zip(
            variants,
            run_scenarios(
                list(variants.values()),
                ["FlexPipe"],
                seed=args.seed,
                quick=args.quick,
                runner=_runner_from(args),
            ),
        )
    )

    def hot_p99(report) -> float:
        # The hot tenants (FLEET-0..7) are the ones whose restarts the
        # cache policy decides; tail sweepers are cold by construction.
        return mean(
            stats.p99_ttft
            for model, stats in report.per_model.items()
            if int(model.split("-")[1]) < 100
        )

    rows = [
        {
            "variant": label,
            "violations": len(report.violations),
            "completed": f"{report.completed}/{report.offered}",
            "warm rate": f"{report.aggregate.warm_start_rate:.2f}"
            if report.aggregate
            else "-",
            "mean init (s)": f"{report.aggregate.mean_init_time:.2f}"
            if report.aggregate
            else "-",
            "hot p99 TTFT (s)": f"{hot_p99(report):.2f}"
            if report.aggregate
            else "-",
        }
        for label, report in reports.items()
    ]
    print(
        _rows_table(
            rows,
            f"Cold-start economy - coldstart-economy x FlexPipe, "
            f"seed {args.seed}, identical traffic",
        )
    )
    failures = [r for r in reports.values() if not r.ok]
    if _report_violations(
        failures, lambda r: f"{r.scenario} x {r.system} seed={r.seed}"
    ):
        return 1
    gdsf, lru, seq = (
        reports["gdsf+pipelined"],
        reports["lru+pipelined"],
        reports["gdsf+sequential"],
    )
    losses = []
    if hot_p99(gdsf) >= hot_p99(lru):
        losses.append(
            f"GDSF did not beat LRU on hot p99 TTFT "
            f"({hot_p99(gdsf):.2f} vs {hot_p99(lru):.2f})"
        )
    if gdsf.aggregate.warm_start_rate < lru.aggregate.warm_start_rate:
        losses.append(
            f"GDSF warm-start rate below LRU "
            f"({gdsf.aggregate.warm_start_rate:.2f} vs "
            f"{lru.aggregate.warm_start_rate:.2f})"
        )
    if hot_p99(gdsf) >= hot_p99(seq):
        losses.append(
            f"pipelined loading did not beat load-then-activate "
            f"({hot_p99(gdsf):.2f} vs {hot_p99(seq):.2f})"
        )
    if losses:
        for loss in losses:
            print(f"\ncold-start gate failed: {loss}", file=sys.stderr)
        return 1
    print(
        f"\ncold-start gates held: GDSF {hot_p99(gdsf):.2f}s < "
        f"LRU {hot_p99(lru):.2f}s, pipelined {hot_p99(gdsf):.2f}s < "
        f"sequential {hot_p99(seq):.2f}s hot p99 TTFT"
    )
    return 0


def _run_fuzz(args) -> int:
    """``repro fuzz``: direct migration/link-layer fuzzing."""
    from repro.validation.migration_fuzz import check_zoo_ladders, fuzz_seeds

    reports = fuzz_seeds(seeds=args.seeds, runner=_runner_from(args))
    ladder_violations, pairs = check_zoo_ladders()
    rows = [
        {
            "seed": r.case.seed,
            "schedules": r.schedules,
            "items": r.items,
            "link workloads": r.transfers,
            "in-place resizes": r.inplace,
            "violations": len(r.violations),
        }
        for r in reports
    ]
    print(
        _rows_table(
            rows,
            f"Migration-layer fuzz - {args.seeds} seed(s): LPT scheduling "
            "invariants + fair-share link physics + in-place resize deltas",
        )
    )
    print(
        f"\nin-place deltas over the zoo models' ladders: {pairs} rung "
        f"pair(s), {len(ladder_violations)} violation(s)"
    )
    failed = _report_violations(
        [r for r in reports if not r.ok],
        lambda r: f"seed={r.case.seed}",
    )
    for violation in ladder_violations:
        print(f"  zoo ladders: {violation}", file=sys.stderr)
    if failed or ladder_violations:
        return 1
    print("\nall migration schedules and link workloads held their invariants.")
    return 0


def _run_trace(args) -> int:
    """``repro trace synth2019`` / ``stats``: write or inspect 2019-layout
    Azure Functions traces."""
    from repro.workloads.azure2019 import (
        BIN_SECONDS,
        dataset_source,
        load_window,
        synthesize_2019_dataset,
        write_2019_dataset,
    )

    if args.trace_command == "synth2019":
        seed = args.seed if args.seed else 2019
        dataset = synthesize_2019_dataset(
            seed=seed, n_functions=args.functions, days=args.days
        )
        paths = write_2019_dataset(args.directory, dataset)
        print(
            f"wrote {len(paths)} file(s) to {args.directory}: "
            f"{len(dataset.functions)} functions x {dataset.days} day(s) "
            f"in the AzureFunctionsDataset2019 layout "
            f"({int(dataset.counts.sum())} invocations, seed {seed})"
        )
        return 0
    # stats
    from repro.workloads.azure import app_counts, fig1_report

    try:
        window = load_window(dataset_source(args.directory))
        if not window.functions:
            raise ValueError(f"{args.directory}: no invocations")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    source = window.source
    lines = [
        f"{args.directory}: {len(window.functions)} functions, "
        f"{len(source.days)} day(s), {source.window_seconds / 3600:.1f} h"
    ]
    lines.append("multi-window CV (the Fig. 1 measurement):")
    for name, cvs in fig1_report(window).items():
        parts = []
        for size, cv in cvs.items():
            label = f"{size / 3600:g}h" if size >= 3600 else f"{size:g}s"
            parts.append(f"{label}={cv:.2f}")
        lines.append(f"  {name:>6}: " + "  ".join(parts))
    app, counts = app_counts(window)[0]
    total = int(counts.sum())
    lines.append(
        f"top app: {app} ({total} invocations, "
        f"{total / source.window_seconds:.2f} req/s)"
    )
    lines.append("rate: " + sparkline((counts / BIN_SECONDS).tolist(), width=72))
    print("\n".join(lines))
    return 0


def _run_trace_attr(args) -> int:
    """``repro trace <scenario>``: causal tracing + tail attribution.

    Runs one catalog scenario with the span tracer and fleet flight
    recorder armed, decomposes the p99/p999 TTFT and p99 latency tails
    into cause buckets (cold-load vs queue vs refactor vs preemption vs
    compute), and gates on the observability contract: zero
    ``span-conservation`` violations and >= 95% of tail seconds
    attributed to a concrete cause bucket.
    """
    import json as json_mod

    from repro.observability import (
        attribute_tail,
        conservation_violations,
        perfetto_trace,
    )
    from repro.scenarios import SCENARIOS
    from repro.scenarios.driver import ScenarioCase, run_scenario_case

    if _choose([args.scenario], SCENARIOS, what="scenario") is None:
        return 2
    spec = SCENARIOS[args.scenario]
    if args.quick:
        spec = spec.quick()
    case = ScenarioCase(
        spec, args.system, args.seed, shards=max(args.shards, 0), trace=True
    )
    report = run_scenario_case(case)
    traces = report.traces

    sharded = f", {report.shards} shard(s)" if report.shards else ""
    # Every accepted request begins a trace (the auditor's
    # span-conservation check), but only finished ones are finalized.
    unfinished = report.offered - report.shed - len(traces)
    print(
        f"Traced {report.scenario} x {report.system} seed={report.seed}"
        f"{sharded}: {len(traces)} request trace(s), "
        f"{len(report.fleet_events)} control-plane event(s)\n"
        f"{unfinished} accepted request(s) unfinished at the horizon; "
        f"the tails below cover finished requests only"
    )

    tails = [
        attribute_tail(traces, metric="ttft", percentile=99.0),
        attribute_tail(traces, metric="ttft", percentile=99.9),
        attribute_tail(traces, metric="latency", percentile=99.0),
    ]
    for tail in tails:
        rows = [
            {
                "cause": bucket,
                "seconds": f"{seconds:.2f}",
                "share": f"{seconds / tail.total_seconds:.1%}"
                if tail.total_seconds
                else "-",
            }
            for bucket, seconds in sorted(
                tail.buckets.items(), key=lambda kv: -kv[1]
            )
            if seconds > 0.0
        ]
        print()
        print(
            _rows_table(
                rows,
                f"p{tail.percentile:g} {tail.metric.upper()} tail - "
                f"{tail.tail_count} request(s) >= {tail.threshold:.2f}s, "
                f"{tail.total_seconds:.1f}s total, "
                f"{tail.attributed_fraction:.1%} attributed",
            )
        )
    ttft99 = tails[0]
    if ttft99.by_tenant:
        rows = []
        for tenant, buckets in sorted(ttft99.by_tenant.items()):
            total = sum(buckets.values())
            top = max(buckets, key=buckets.get) if total else "-"
            rows.append(
                {
                    "tenant": tenant,
                    "tail seconds": f"{total:.2f}",
                    "dominant cause": top,
                    "dominant share": f"{buckets[top] / total:.1%}"
                    if total
                    else "-",
                }
            )
        print()
        print(_rows_table(rows, "p99 TTFT tail by tenant"))

    kinds: dict[str, int] = {}
    for event in report.fleet_events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    if kinds:
        summary = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        print(f"\nflight recorder: {summary}")

    if args.json:
        payload = perfetto_trace(traces, report.fleet_events)
        with open(args.json, "w") as fh:
            json_mod.dump(payload, fh)
        print(
            f"wrote {args.json}: {len(payload['traceEvents'])} trace_event "
            f"row(s) (load in Perfetto UI / chrome://tracing)"
        )

    if _report_violations(
        [report] if not report.ok else [],
        lambda r: f"{r.scenario} x {r.system} seed={r.seed}",
    ):
        return 1
    leaks = conservation_violations(traces)
    if leaks:
        print("\nspan-conservation violations:", file=sys.stderr)
        for leak in leaks[:10]:
            print(f"  {leak}", file=sys.stderr)
        return 1
    if ttft99.attributed_fraction < 0.95:
        print(
            f"\ntrace gate failed: only {ttft99.attributed_fraction:.1%} "
            f"of p99 TTFT seconds attributed to a cause bucket",
            file=sys.stderr,
        )
        return 1
    print(
        f"\ntrace gates held: spans tile every latency interval and "
        f"{ttft99.attributed_fraction:.1%} of p99 TTFT seconds carry a cause."
    )
    return 0


def _run_docs_cli(args) -> int:
    """``repro docs-cli``: render (or verify) the CLI reference."""
    from repro.docs import render_cli_markdown

    rendered = render_cli_markdown()
    if args.check is not None:
        try:
            with open(args.check) as fh:
                committed = fh.read()
        except OSError as exc:
            print(f"docs drift check failed: {exc}", file=sys.stderr)
            return 1
        if committed != rendered:
            print(
                f"docs drift: {args.check} does not match the argparse "
                f"tree; regenerate with `python -m repro docs-cli "
                f"--output {args.check}`",
                file=sys.stderr,
            )
            return 1
        print(f"{args.check} matches the CLI ({len(rendered)} bytes).")
        return 0
    if args.output is not None:
        with open(args.output, "w") as fh:
            fh.write(rendered)
        print(f"wrote {args.output} ({len(rendered)} bytes)")
        return 0
    print(rendered, end="")
    return 0


EXPERIMENTS: dict[str, Experiment] = {
    e.name: e
    for e in [
        Experiment("table1", "Table 1 (cluster stats)", _run_table1),
        Experiment("table2", "Table 2 (granularity profile)", _run_table2),
        Experiment("fig1", "Fig. 1 (CV vs window)", _run_fig1),
        Experiment("fig3", "Fig. 3 (static pipeline vs CV)", _run_fig3, heavy=True),
        Experiment("fig4", "Fig. 4 (granularity vs CV)", _run_fig4, heavy=True),
        Experiment("fig8", "Fig. 8 (latency breakdown)", _run_fig8, heavy=True),
        Experiment("fig9", "Fig. 9 (burst absorption)", _run_fig9, heavy=True),
        Experiment("fig10", "Fig. 10 (percentiles)", _run_fig10, heavy=True),
        Experiment("fig11", "Fig. 11 (stall recovery)", _run_fig11, heavy=True),
        Experiment("fig12", "Fig. 12 (resource efficiency)", _run_fig12, heavy=True),
        Experiment("fig13", "Fig. 13 (prefill latency)", _run_fig13, heavy=True),
        Experiment("case-study", "§9.6 production case study", _run_case_study, heavy=True),
        Experiment("ablations", "mechanism ablations", _run_ablations, heavy=True),
    ]
}


def _cmd_list(_args) -> int:
    rows = [
        {
            "experiment": e.name,
            "paper artefact": e.artefact,
            "cost": "minutes" if e.heavy else "seconds",
        }
        for e in EXPERIMENTS.values()
    ]
    print(_rows_table(rows, "Reproducible experiments (python -m repro run <name>)"))
    return 0


def _cmd_run(args) -> int:
    experiment = EXPERIMENTS.get(args.experiment)
    if experiment is None:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"choose from: {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    if experiment.heavy:
        print(f"[{experiment.name}] full simulation sweep - this takes minutes...")
    print(experiment.runner(args))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlexPipe reproduction: run the paper's experiments.",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for experiment sweeps "
        "(default: $REPRO_JOBS or 1; results are identical at any level)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every run, ignoring and not writing the "
        "on-disk result cache (.runcache/)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproducible experiments")
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment name (see `repro list`)")
    sub.add_parser("demo", help="quick FlexPipe end-to-end run")
    sub.add_parser("report", help="regenerate EXPERIMENTS.md from bench results")
    audit = sub.add_parser(
        "audit",
        help="seeded chaos audit: fuzz refactor/scale/drain/failure "
        "interleavings and assert the lifecycle invariants",
    )
    audit.add_argument(
        "--seeds", type=int, default=10, help="seeds per system (default 10)"
    )
    audit.add_argument(
        "--systems",
        nargs="+",
        default=None,
        help="systems to audit (default: FlexPipe and every baseline)",
    )
    audit.add_argument(
        "--duration",
        type=float,
        default=30.0,
        help="traffic/chaos window per case in simulated seconds",
    )
    scenario = sub.add_parser(
        "scenario",
        help="declarative multi-model scenarios: list the catalog or run "
        "scripted runs (phased arrivals + timed disturbances) with the "
        "invariant auditor attached",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="show the scenario catalog")
    scenario_run = scenario_sub.add_parser("run", help="run scenarios")
    scenario_run.add_argument(
        "scenarios", nargs="*", help="scenario names (see `repro scenario list`)"
    )
    scenario_run.add_argument(
        "--all", action="store_true", help="run every catalog scenario"
    )
    scenario_run.add_argument(
        "--systems",
        nargs="+",
        default=None,
        help="systems to run (default: FlexPipe and every baseline)",
    )
    scenario_run.add_argument(
        "--quick",
        action="store_true",
        help="time-compressed variants (up to ~3x shorter traffic "
        "windows; compression is capped so no segment drops below 5 s)",
    )
    scenario_run.add_argument(
        "--per-model",
        action="store_true",
        help="also print the per-model breakdown table",
    )
    scenario_run.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run each case through the shard partitioner with N worker "
        "processes (0 = classic monolithic driver).  N only sets "
        "parallelism: the shard decomposition is a pure function of the "
        "scenario, so results are identical for every N >= 1; scenarios "
        "that cannot partition (fleet-global QoS, single tenant, tiny "
        "cluster) fall back to one shard, marked '*' in the table",
    )
    qos = sub.add_parser(
        "qos",
        help="per-tenant QoS report: run one scenario with the control "
        "plane on vs the null policy over identical traffic and compare "
        "per-class SLO attainment (fails unless interactive tenants "
        "strictly improve and all invariants hold)",
    )
    qos.add_argument(
        "--scenario",
        default="priority-inversion",
        help="catalog scenario to compare on (default: priority-inversion)",
    )
    qos.add_argument(
        "--system", default="FlexPipe", help="serving system (default: FlexPipe)"
    )
    qos.add_argument(
        "--quick",
        action="store_true",
        help="time-compressed variant (for smoke runs; the full scenario "
        "is the meaningful comparison window)",
    )
    coldstart = sub.add_parser(
        "coldstart",
        help="cold-start economy report: run coldstart-economy on "
        "FlexPipe with GDSF vs LRU eviction and pipelined vs "
        "load-then-activate loading over identical traffic (fails "
        "unless GDSF and pipelined loading win and all invariants hold)",
    )
    coldstart.add_argument(
        "--quick",
        action="store_true",
        help="time-compressed variant (for smoke runs; the full scenario "
        "is the meaningful comparison window)",
    )
    fuzz = sub.add_parser(
        "fuzz",
        help="fuzz the transfer/migration layer directly: random "
        "MigrationItem sets vs LPT scheduling invariants, random "
        "contention vs link physics",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=10, help="seeded cases (default 10)"
    )
    trace = sub.add_parser(
        "trace",
        help="causal request tracing: run a scenario with the span tracer "
        "+ fleet flight recorder armed and attribute the latency tail to "
        "cause buckets (also: synthesise / inspect Azure Functions traces)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_run = trace_sub.add_parser(
        "run",
        help="trace one catalog scenario and print the tail-latency "
        "attribution report (`repro trace <scenario>` is shorthand)",
    )
    trace_run.add_argument(
        "scenario", help="catalog scenario name (see `repro scenario list`)"
    )
    trace_run.add_argument(
        "--system", default="FlexPipe", help="serving system (default: FlexPipe)"
    )
    trace_run.add_argument(
        "--quick",
        action="store_true",
        help="time-compressed variant (for smoke runs)",
    )
    trace_run.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run through the shard partitioner with N workers; merged "
        "spans carry their shard of origin (0 = monolithic driver)",
    )
    trace_run.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the Perfetto/Chrome trace_event JSON to PATH",
    )
    synth2019 = trace_sub.add_parser(
        "synth2019",
        help="write a deterministic synthetic dataset in the real "
        "AzureFunctionsDataset2019 layout (per-minute invocation counts "
        "plus duration/memory percentile tables) — the same fixture the "
        "azure-replay-2019 scenario replays",
    )
    synth2019.add_argument("directory", help="directory to write the day files into")
    synth2019.add_argument(
        "--functions", type=int, default=260, help="functions to synthesise"
    )
    synth2019.add_argument(
        "--days", type=int, default=1, help="day files to write (d01..dNN)"
    )
    stats = trace_sub.add_parser(
        "stats",
        help="print the Fig. 1 multi-window CV of an "
        "AzureFunctionsDataset2019-layout directory (every day file, "
        "every function)",
    )
    stats.add_argument("directory", help="directory holding the day files")
    docs_cli = sub.add_parser(
        "docs-cli",
        help="render docs/cli.md (the CLI reference) from this argparse "
        "tree; --check verifies the committed file instead",
    )
    docs_cli.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the rendered markdown to PATH instead of stdout",
    )
    docs_cli.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help="exit 1 unless the file at PATH matches the rendered output "
        "(the docs drift gate; use docs/cli.md)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `repro trace <scenario>` sugar: anything after `trace` that is not
    # one of its literal subcommands (or a help flag) routes through
    # `trace run`, so the worked examples read naturally.
    if "trace" in argv:
        i = argv.index("trace")
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if nxt is not None and nxt not in (
            "run", "synth2019", "stats", "-h", "--help",
        ):
            argv.insert(i + 1, "run")
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "demo":
        print(_run_demo(args))
        return 0
    if args.command == "report":
        print(_run_report(args))
        return 0
    if args.command == "audit":
        return _run_audit(args)
    if args.command == "scenario":
        return _run_scenario(args)
    if args.command == "qos":
        return _run_qos(args)
    if args.command == "coldstart":
        return _run_coldstart(args)
    if args.command == "fuzz":
        return _run_fuzz(args)
    if args.command == "trace":
        if args.trace_command == "run":
            return _run_trace_attr(args)
        return _run_trace(args)
    if args.command == "docs-cli":
        return _run_docs_cli(args)
    raise AssertionError(f"unhandled command {args.command!r}")
