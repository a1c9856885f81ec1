"""The artefact table: every paper figure, table and policy gate, in one place.

An :class:`Artefact` states one artefact of the paper's evaluation (or
one policy gate DESIGN.md adds) three ways at once: the cells it runs
(a base workload plus variants over identical traffic, built in
:mod:`repro.experiments.figures`), the one renderer of its
paper-vs-measured table, and the claims its rows must satisfy, each a
one-line text plus a predicate.

Everything that shows or judges an artefact reads :data:`ARTEFACTS`:
``repro list`` and ``repro run NAME`` (which prints exactly the table
the bench writes to ``benchmarks/_results/``), each
``benchmarks/bench_*.py`` (which asserts the claims), ``repro qos`` and
``repro coldstart`` (which exit 1 on a failed claim), and ``repro
report`` (which prints the claim texts in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.experiments import figures
from repro.experiments.figures import GateRun, hot_p99_ttft
from repro.metrics.report import format_rows, format_table


@dataclass(frozen=True)
class Claim:
    """One statement an artefact's rows must satisfy."""

    text: str
    holds: Callable[[Any], bool]


def _same(data):
    return data


@dataclass(frozen=True)
class Artefact:
    """One paper artefact or policy gate: its cells, table and claims."""

    name: str  # `repro run NAME`; the bench writes _results/<result_stem>.txt
    artefact: str  # heading in `repro list` and EXPERIMENTS.md
    paper: str | None  # the paper's statement; None: no EXPERIMENTS.md section
    bench: str | None  # the bench asserting the claims; None: a gate command
    cells: Callable[..., Any]  # (seed, runner, **options) -> the cells' data
    render: Callable[[Any], str]  # rows -> the paper-vs-measured table
    claims: tuple[Claim, ...]
    # data -> rows; lets several artefacts share one set of cells (the
    # Figs. 8/10-12 system sweep).
    rows: Callable[[Any], Any] = _same

    @property
    def result_stem(self) -> str:
        return self.name.replace("-", "_")

    def measure(self, seed: int = 0, runner=None, **options):
        """Run the cells and return the rows."""
        return self.rows(self.cells(seed, runner, **options))

    def failed(self, rows) -> list[Claim]:
        """The claims ``rows`` do not satisfy."""
        return [claim for claim in self.claims if not claim.holds(rows)]


# ----------------------------------------------------------------------
# Table and predicate helpers
# ----------------------------------------------------------------------
def _columns(title: str, *columns) -> Callable[[list], str]:
    """A renderer of rows, one ``(header, cell)`` per column: ``cell`` is
    a row key (the raw value, as :func:`format_table` prints it) or a
    function of the row."""

    def render(rows) -> str:
        return format_table(
            [header for header, _ in columns],
            [
                [cell(row) if callable(cell) else row[cell] for _, cell in columns]
                for row in rows
            ],
            title=title,
        )

    return render


def _fmt(key, spec: str) -> Callable:
    """A cell: ``row[key]`` formatted with ``spec``."""
    return lambda row: format(row[key], spec)


def _at(rows: list, **match) -> dict:
    """The one row whose fields equal ``match``."""
    (row,) = [r for r in rows if all(r[k] == v for k, v in match.items())]
    return row


def _monotone(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def _sweep(seed, runner):
    return figures.system_sweep(seed=seed, runner=runner)


def _metric_table(title: str, rows: list[list]) -> str:
    return format_table(["metric", "measured", "paper"], rows, title=title)


def _table1(s: dict) -> str:
    return _metric_table(
        "Table 1 / Fig. 2 - GPU cluster fragmentation statistics",
        [
            ["SM util mean (%)", f"{s['sm_mean']:.1f}", "16.9 - 23.7"],
            ["SM util P50 (%)", f"{s['sm_p50']:.1f}", "9.2 - 10.9"],
            ["SM util P95 (%)", f"{s['sm_p95']:.1f}", "80.5 - 85.4"],
            ["SM in 10-30% band (%)", f"{s['sm_10_30']:.1f}", "21.0 - 31.3"],
            ["Mem util mean (%)", f"{s['mem_mean']:.1f}", "43.5 - 50.9"],
            ["Mem util P50 (%)", f"{s['mem_p50']:.1f}", "28.8 - 53.7"],
            ["Mem util P95 (%)", f"{s['mem_p95']:.1f}", "99.1 - 99.3"],
            ["GPU subscription (%)", f"{s['subscription']:.0f}", "216"],
            ["P(GPU >=85% free) (%)", f"{s['p_free_gpu']:.1f}", "8.7"],
            ["P(4 co-located free) (%)", f"{s['p_colocated4']:.2f}", "0.02"],
        ],
    )


def _fig2(s: dict) -> str:
    return _metric_table(
        "Fig. 2 - fragmentation: subscription and scattered availability",
        [
            ["GPU subscription mean (%)", f"{s['subscription_mean']:.0f}", 216.0],
            ["GPU subscription max (%)", f"{s['subscription_max']:.0f}", "~900 peak"],
            ["P(GPU >=85% free) (%)", f"{s['p_free_gpu']:.1f}", 8.7],
            ["P(2 co-located free) (%)", f"{s['p_colocated2']:.2f}", "-"],
            ["P(4 co-located free) (%)", f"{s['p_colocated4']:.3f}", 0.02],
        ],
    )


FIG3_PAPER = {  # goodput req/s, mean queue, stall cycle s
    0.1: (20.0, 12.5, 0.15),
    1.0: (20.0, 16.0, 0.24),
    2.0: (20.4, 25.8, 0.49),
    4.0: (15.4, 51.2, 2.28),
    8.0: (12.7, 48.8, 3.36),
}

FIG8_PAPER_RT = {
    1.0: {"FlexPipe": 0.83, "AlpaServe": 1.34, "MuxServe": 1.35, "ServerlessLLM": 1.34, "Tetris": 4.31},
    2.0: {"FlexPipe": 1.00, "AlpaServe": 1.58, "MuxServe": 2.35, "ServerlessLLM": 1.87, "Tetris": 5.06},
    4.0: {"FlexPipe": 1.45, "AlpaServe": 2.19, "MuxServe": 4.85, "ServerlessLLM": 4.29, "Tetris": 6.22},
}


def _fig9(series: dict) -> str:
    rows = []
    for name, data in series.items():
        rt = list(data["rt_series"].values())
        rows.append(
            [
                name,
                f"{data['mean_latency']:.2f}",
                f"{max(rt):.2f}" if rt else "-",
                f"{np.std(rt):.2f}" if rt else "-",
                f"{data['p99']:.2f}",
            ]
        )
    return format_table(
        ["system", "mean RT s", "worst 15s-window RT", "RT std", "P99"],
        rows,
        title="Fig. 9 - burst absorption at CV=8 (warm 300 s window, MMPP bursts)",
    )


def _bursts_extreme(series: dict) -> bool:
    counts = list(series["FlexPipe"]["arrival_counts"].values())
    return max(counts) > 4 * max(np.median(counts), 1)


def _p99_growth(rows: list[dict], system: str) -> float:
    return _at(rows, cv=4.0, system=system)["p99"] / max(
        _at(rows, cv=1.0, system=system)["p99"], 1e-9
    )


FIG11_PAPER_CV4_MS = {
    "FlexPipe": 9.0,
    "AlpaServe": 16.0,
    "MuxServe": 48.0,
    "ServerlessLLM": 50.0,
}


def _recovers_near_muxserve(rows: list[dict]) -> bool:
    flex = _at(rows, cv=4.0, system="FlexPipe")["median_recovery_ms"]
    mux = _at(rows, cv=4.0, system="MuxServe")["median_recovery_ms"]
    return not (flex > 0 and mux > 0) or flex <= 2.5 * mux


def _case_study(s: dict) -> str:
    rows = [
        ["Always-on reservation (FlexPipe)", f"{s['flex_reserved_frac']:.0%} of peak (paper: 30%)"],
        ["Always-on reservation (static)", f"{s['static_reserved_frac']:.0%} of peak (paper: 75%)"],
        ["GPUs held (FlexPipe)", f"{s['flex_gpus']}"],
        ["GPUs held (static baseline)", f"{s['static_gpus']}"],
        ["FlexPipe goodput", f"{s['flex_goodput']:.2f}"],
        ["Static goodput", f"{s['static_goodput']:.2f}"],
        ["FlexPipe mean alloc wait (s)", f"{s['flex_alloc_wait']:.2f}"],
        ["Static mean alloc wait (s)", f"{s['static_alloc_wait']:.2f}"],
        ["Elastic scale-out init (s)", f"{s['flex_init']:.2f}"],
        ["Cold whole-pipeline init (s)", f"{s['cold_init']:.2f}"],
        ["Init reduction", f"{s['init_reduction']:.0%} (paper: 72%)"],
        ["FlexPipe warm-start rate", f"{s['flex_warm_rate']:.2f}"],
    ]
    return format_table(
        ["metric", "value"], rows, title="§9.6 - production case study (CV=4)"
    )


def _migration(results: dict) -> str:
    return format_table(
        ["variant", "makespan (s)", "KV done (ms)", "serial bound (s)", "bytes by method"],
        [
            [
                name,
                f"{r['makespan']:.3f}",
                f"{r['kv_makespan'] * 1e3:.1f}",
                f"{r['serial']:.3f}",
                ", ".join(f"{m}:{g:.1f}GB" for m, g in sorted(r["methods"].items())),
            ]
            for name, r in results.items()
        ],
        title="§8 ablation - migration transfer hierarchy (8->16 split, 64 inflight)",
    )


def _migration_single(durations: tuple[float, float]) -> str:
    fast, slow = durations
    return format_table(
        ["method", "64 MB KV shard (ms)"],
        [["RDMA", f"{fast * 1e3:.2f}"], ["NCCL", f"{slow * 1e3:.1f}"]],
        title="Single-stream KV migration: RDMA vs NCCL",
    )


def _selection(knob: str) -> Callable[[dict], str]:
    def render(rows: dict) -> str:
        return format_table(
            [knob] + [f"CV={cv}" for cv in figures.SENSITIVITY_CVS],
            [[value] + stages for value, stages in rows.items()],
            title=f"Eq. 4 {knob} sweep - selected stage count by CV",
        )

    return render


def _eq11_grid(points: list[tuple]) -> dict:
    return {(cv, q): m for cv, q, m in points}


def _eq11_monotone(points: list[tuple]) -> bool:
    m = _eq11_grid(points)
    cvs, queues = figures.EQ11_CVS, figures.EQ11_QUEUES
    return all(_monotone([m[(cv, q)] for q in queues]) for cv in cvs) and all(
        _monotone([m[(cv, q)] for cv in cvs]) for q in queues
    )


def _qos(run: GateRun) -> str:
    rows = []
    for label, report in run.reports.items():
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
                    # High-water fraction of fleet memory vs the
                    # tenant's configured cap.
                    "gpu peak": f"{tenant.gpu_share_peak:.1%}",
                    "cap": f"{tenant.share_cap:.0%}"
                    if tenant.share_cap is not None
                    else "-",
                    # Preemptions won/lost at the allocator, borrow
                    # grants received, reclaim demands issued.
                    "pre w/l": f"{tenant.preemptions_won}/{tenant.preemptions_lost}",
                    "borrows": tenant.borrows,
                    "reclaims": tenant.reclaims,
                }
            )
    return format_rows(
        rows,
        f"QoS control plane vs null policy - {run.scenario} x "
        f"{run.system}, seed {run.seed}, identical traffic",
    )


def _interactive_improves(run: GateRun) -> bool:
    on, null = run.reports["qos"].tenants, run.reports["null"].tenants
    interactive = [m for m, tenant in on.items() if tenant.slo_class == "interactive"]
    # A scenario without an interactive tenant has nothing to check.
    return bool(interactive) and all(
        on[m].attainment > null[m].attainment
        # No headroom to win when both policies already attain 100%.
        or (on[m].attainment >= 1.0 and null[m].attainment >= 1.0)
        for m in interactive
    )


def _coldstart(run: GateRun) -> str:
    rows = []
    for label, report in run.reports.items():
        agg = report.aggregate
        rows.append(
            {
                "variant": label,
                "violations": len(report.violations),
                "completed": f"{report.completed}/{report.offered}",
                "warm rate": f"{agg.warm_start_rate:.2f}" if agg else "-",
                "mean init (s)": f"{agg.mean_init_time:.2f}" if agg else "-",
                "hot p99 TTFT (s)": f"{hot_p99_ttft(report):.2f}" if agg else "-",
            }
        )
    return format_rows(
        rows,
        f"Cold-start economy - {run.scenario} x {run.system}, "
        f"seed {run.seed}, identical traffic",
    )


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
_TABLE = [
    Artefact(
        "table1",
        "Table 1 — GPU cluster utilization statistics",
        "Mean SM utilization 16.91% (C1) / 23.74% (C2); P50 ≪ P95; "
        "31%/21% of GPUs sit in the 10-30% utilization band.",
        "benchmarks/bench_table1.py",
        lambda seed, runner: figures.table1_rows(seed=seed),
        _table1,
        (
            Claim("GPU subscription exceeds 150%.", lambda s: s["subscription"] > 150),
            Claim(
                "Mean SM utilization is below a third of the subscription.",
                lambda s: s["sm_mean"] < s["subscription"] / 3,
            ),
            Claim(
                "P(4 co-located free GPUs) is at most 5%.",
                lambda s: s["p_colocated4"] <= 5.0,
            ),
            Claim(
                "Memory utilization P95 is above its P50.",
                lambda s: s["mem_p95"] > s["mem_p50"],
            ),
        ),
    ),
    Artefact(
        "table2",
        "Table 2 — pipeline granularity profile (OPT-66B)",
        "4→32 stages: load 47.14 s → 5.43 s (8.7×), compute 69.94 ms → "
        "9.67 ms, comm 6.3 ms → 65.1 ms, max batch 128 → 1024 (8×).",
        "benchmarks/bench_table2.py",
        lambda seed, runner: figures.table2_rows(),
        _columns(
            "Table 2 - OPT-66B pipeline granularity profile, measured (paper)",
            ("Stages", "stages"),
            ("Load(s) (paper)", lambda r: f"{r['load_s']:.2f} ({r['paper_load']})"),
            (
                "Compute(ms) (paper)",
                lambda r: f"{r['compute_ms']:.2f} ({r['paper_compute']})",
            ),
            ("Comm(ms) (paper)", lambda r: f"{r['comm_ms']:.1f} ({r['paper_comm']})"),
            ("Max Batch (paper)", lambda r: f"{r['max_batch']} ({r['paper_batch']})"),
        ),
        (
            Claim(
                "Max batch equals the paper's at 4, 8, 16 and 32 stages.",
                lambda rows: all(
                    _at(rows, stages=k)["max_batch"] == _at(rows, stages=k)["paper_batch"]
                    for k in (4, 8, 16, 32)
                ),
            ),
            Claim(
                "Load and compute time are within 25% of every paper row, "
                "communication within 15%.",
                lambda rows: all(
                    abs(r["load_s"] / r["paper_load"] - 1) < 0.25
                    and abs(r["compute_ms"] / r["paper_compute"] - 1) < 0.25
                    and abs(r["comm_ms"] / r["paper_comm"] - 1) < 0.15
                    for r in rows
                ),
            ),
            Claim(
                "Loading is over 6× faster at 32 stages than at 4.",
                lambda rows: _at(rows, stages=4)["load_s"]
                / _at(rows, stages=32)["load_s"]
                > 6.0,
            ),
            Claim(
                "Communication is over 8× costlier at 32 stages than at 4.",
                lambda rows: _at(rows, stages=32)["comm_ms"]
                > 8.0 * _at(rows, stages=4)["comm_ms"],
            ),
        ),
    ),
    Artefact(
        "fig1",
        "Fig. 1 — request CV across measurement windows",
        "CV measured over 180 s / 3 h / 12 h windows differs by up to 7× "
        "on the Alibaba and Azure traces.",
        "benchmarks/bench_fig1.py",
        lambda seed, runner: figures.fig1_rows(seed=seed),
        _columns(
            "Fig. 1 - CV of request counts vs measurement window "
            "(synthetic diurnal trace)",
            ("window", "window"),
            ("count CV", _fmt("cv", ".2f")),
        ),
        (
            Claim(
                "The request-count CV over the 180 s, 3 h and 12 h windows "
                "spreads at least 3× (max/min).",
                lambda rows: rows[-1]["cv"] >= 3.0
                and len({r["window"] for r in rows[:-1]}) == 3,
            ),
        ),
    ),
    Artefact(
        "fig2",
        "Fig. 2 — subscription rate and GPU availability",
        "216% average GPU subscription; P(single GPU ≥85% free) ≈ 8.7%; "
        "P(4 co-located free GPUs) ≈ 0.02%.",
        "benchmarks/bench_fig2.py",
        lambda seed, runner: figures.fig2_rows(seed=seed),
        _fig2,
        (
            Claim(
                "Mean GPU subscription lies in 150-300%.",
                lambda s: 150.0 <= s["subscription_mean"] <= 300.0,
            ),
            Claim(
                "P(one GPU ≥85% free) is below 25%.",
                lambda s: s["p_free_gpu"] < 25.0,
            ),
            Claim(
                "Co-location probability falls with group size: "
                "P(4 free) ≤ P(2 free) ≤ P(1 free).",
                lambda s: s["p_colocated4"] <= s["p_colocated2"] <= s["p_free_gpu"],
            ),
            Claim(
                "P(4 co-located free GPUs) is below 1%.",
                lambda s: s["p_colocated4"] < 1.0,
            ),
        ),
    ),
    Artefact(
        "fig3",
        "Fig. 3 — static pipeline vs workload variability",
        "CV 0.1→8 on a static 4-stage pipeline: goodput −37%, queue ×4, "
        "stall cycle ×22.",
        "benchmarks/bench_fig3.py",
        lambda seed, runner: figures.fig3_rows(seed=seed, runner=runner),
        _columns(
            "Fig. 3 - static 4-stage OPT-66B pipeline vs CV (20 QPS)",
            ("CV", "cv"),
            (
                "goodput req/s (paper)",
                lambda r: f"{r['goodput_rps']:.1f} ({FIG3_PAPER[r['cv']][0]})",
            ),
            (
                "queue mean (paper)",
                lambda r: f"{r['queue_len']:.1f} ({FIG3_PAPER[r['cv']][1]})",
            ),
            ("queue p95", _fmt("queue_p95", ".1f")),
            (
                "stall cycle s (paper)",
                lambda r: f"{r['stall_cycle_s']:.2f} ({FIG3_PAPER[r['cv']][2]})",
            ),
            ("mean lat s", _fmt("mean_latency", ".2f")),
        ),
        (
            Claim(
                "Goodput at CV=8 is below 0.75× goodput at CV=0.1.",
                lambda rows: _at(rows, cv=8.0)["goodput_rps"]
                < 0.75 * _at(rows, cv=0.1)["goodput_rps"],
            ),
            # At extreme CV the MMPP quiet phases dilute time-averaged
            # queue statistics, so the queue claim is made at CV=2.
            Claim(
                "Queue P95 at CV=2 exceeds 1.5× queue P95 at CV=0.1.",
                lambda rows: _at(rows, cv=2.0)["queue_p95"]
                > 1.5 * _at(rows, cv=0.1)["queue_p95"],
            ),
            Claim(
                "The stall cycle at CV=8 exceeds 5× the stall cycle at CV=0.1.",
                lambda rows: _at(rows, cv=8.0)["stall_cycle_s"]
                > 5 * _at(rows, cv=0.1)["stall_cycle_s"],
            ),
            Claim(
                "Mean latency at CV=8 exceeds mean latency at CV=0.1.",
                lambda rows: _at(rows, cv=8.0)["mean_latency"]
                > _at(rows, cv=0.1)["mean_latency"],
            ),
        ),
    ),
    Artefact(
        "fig4",
        "Fig. 4 — latency by granularity and CV",
        "16-stage is ~2.7× slower than 4-stage at low CV but ~3× faster at "
        "CV=4 (deep pipelines absorb bursts).",
        "benchmarks/bench_fig4.py",
        lambda seed, runner: figures.fig4_rows(seed=seed, runner=runner),
        _columns(
            "Fig. 4 - latency by pipeline granularity and CV (OPT-66B)",
            ("CV", "cv"),
            ("stages", "stages"),
            ("mean latency s", _fmt("mean_latency", ".2f")),
            ("P95 s", _fmt("p95", ".2f")),
        ),
        (
            Claim(
                "At CV=0.1 the 16-stage pipeline's mean latency is above the "
                "4-stage pipeline's.",
                lambda rows: _at(rows, cv=0.1, stages=16)["mean_latency"]
                > _at(rows, cv=0.1, stages=4)["mean_latency"],
            ),
            Claim(
                "The fine-grain premium shrinks with burstiness: the 16/4-stage "
                "P95 ratio at CV=4 is below the 16/4-stage mean ratio at CV=0.1.",
                lambda rows: _at(rows, cv=4.0, stages=16)["p95"]
                / _at(rows, cv=4.0, stages=4)["p95"]
                < _at(rows, cv=0.1, stages=16)["mean_latency"]
                / _at(rows, cv=0.1, stages=4)["mean_latency"],
            ),
        ),
    ),
    Artefact(
        "fig8",
        "Fig. 8 — end-to-end latency breakdown",
        "FlexPipe 38.3% lower latency at CV=1 and 66.1% lower than "
        "AlpaServe at CV=4, trading queue time for communication while "
        "holding ~100% goodput.",
        "benchmarks/bench_fig8.py",
        _sweep,
        _columns(
            "Fig. 8 - E2E latency breakdown (OPT-66B + BERT-21B, 20+6 QPS)",
            ("CV", "cv"),
            ("system", "system"),
            (
                "RT s (paper)",
                lambda r: f"{r['response_s']:.2f} "
                f"({FIG8_PAPER_RT[r['cv']][r['system']]})",
            ),
            ("queue s", _fmt("queue_s", ".2f")),
            ("exec s", _fmt("exec_s", ".2f")),
            ("comm s", _fmt("comm_s", ".2f")),
            ("goodput %", _fmt("goodput_pct", ".0f")),
        ),
        (
            Claim(
                "MuxServe's goodput is below FlexPipe's at CV=2 and CV=4.",
                lambda rows: all(
                    _at(rows, cv=cv, system="MuxServe")["goodput_pct"]
                    < _at(rows, cv=cv, system="FlexPipe")["goodput_pct"]
                    for cv in (2.0, 4.0)
                ),
            ),
            Claim(
                "MuxServe's mean response time is above FlexPipe's at CV=2 "
                "and CV=4.",
                lambda rows: all(
                    _at(rows, cv=cv, system="MuxServe")["response_s"]
                    > _at(rows, cv=cv, system="FlexPipe")["response_s"]
                    for cv in (2.0, 4.0)
                ),
            ),
            Claim(
                "At CV=4 FlexPipe pays more communication than Tetris.",
                lambda rows: _at(rows, cv=4.0, system="FlexPipe")["comm_s"]
                > _at(rows, cv=4.0, system="Tetris")["comm_s"],
            ),
            Claim(
                "FlexPipe's goodput is at least 0.75× the best system's at "
                "every CV.",
                lambda rows: all(
                    _at(rows, cv=cv, system="FlexPipe")["goodput_pct"]
                    >= 0.75 * max(r["goodput_pct"] for r in rows if r["cv"] == cv)
                    for cv in (1.0, 2.0, 4.0)
                ),
            ),
        ),
        rows=figures.fig8_rows,
    ),
    Artefact(
        "fig9",
        "Fig. 9 — burst absorption at CV=8",
        "FlexPipe holds low flat response times through bursts; MuxServe "
        "sustains >10 s latencies; AlpaServe spikes periodically.",
        "benchmarks/bench_fig9.py",
        lambda seed, runner: figures.fig9_series(seed=seed, runner=runner),
        _fig9,
        (
            Claim(
                "MuxServe's mean response time is above FlexPipe's.",
                lambda series: series["MuxServe"]["mean_latency"]
                > series["FlexPipe"]["mean_latency"],
            ),
            Claim(
                "The bursts are extreme: FlexPipe's busiest 15 s window "
                "receives over 4× the median window's arrivals.",
                _bursts_extreme,
            ),
        ),
    ),
    Artefact(
        "fig10",
        "Fig. 10 — latency percentile stability",
        "FlexPipe P99 stays controlled as CV grows; ServerlessLLM/Tetris "
        "P99 degrade 2-3×.",
        "benchmarks/bench_fig10.py",
        _sweep,
        _columns(
            "Fig. 10 - response-time percentiles across CVs (seconds)",
            ("CV", "cv"),
            ("system", "system"),
            *((f"P{q}", _fmt(f"p{q}", ".2f")) for q in (50, 75, 90, 95, 99)),
        ),
        (
            Claim(
                "Every cell's percentiles are monotone (P50 ≤ P75 ≤ P90 ≤ "
                "P95 ≤ P99).",
                lambda rows: all(
                    _monotone([r[f"p{q}"] for q in (50, 75, 90, 95, 99)])
                    for r in rows
                ),
            ),
            Claim(
                "FlexPipe's P99 grows less than 3× from CV=1 to CV=4, or at "
                "most 1.5× Tetris's growth.",
                lambda rows: _p99_growth(rows, "FlexPipe") < 3.0
                or _p99_growth(rows, "FlexPipe") <= 1.5 * _p99_growth(rows, "Tetris"),
            ),
        ),
        rows=figures.fig10_rows,
    ),
    Artefact(
        "fig11",
        "Fig. 11 — pipeline stall recovery",
        "Median recovery: FlexPipe 88 ms ≈ AlpaServe 83 ms at CV=1; 9 ms "
        "at CV=4 (44% faster than AlpaServe, 82% faster than MuxServe/"
        "ServerlessLLM).",
        "benchmarks/bench_fig11.py",
        _sweep,
        _columns(
            "Fig. 11 - stall recovery time (§9.3 methodology)",
            ("CV", "cv"),
            ("system", "system"),
            ("median recovery (ms)", _fmt("median_recovery_ms", ".0f")),
            (
                "paper CV=4 (ms)",
                lambda r: FIG11_PAPER_CV4_MS.get(r["system"], "-")
                if r["cv"] == 4.0
                else "",
            ),
        ),
        (
            Claim(
                "Systems stall and recover: some cell has a positive median "
                "recovery time.",
                lambda rows: any(r["median_recovery_ms"] > 0 for r in rows),
            ),
            Claim(
                "At CV=4 FlexPipe recovers within 2.5× MuxServe's median "
                "time (when both stall).",
                _recovers_near_muxserve,
            ),
        ),
        rows=figures.fig11_rows,
    ),
    Artefact(
        "fig12",
        "Fig. 12 — resource efficiency",
        "FlexPipe reaches max goodput at 33-43% utilization; Tetris burns "
        "85% utilization for ~8.5× less goodput at CV=4.",
        "benchmarks/bench_fig12.py",
        _sweep,
        _columns(
            "Fig. 12 - goodput vs GPU utilization across CVs",
            ("CV", "cv"),
            ("system", "system"),
            ("GPU util %", _fmt("gpu_util_pct", ".0f")),
            ("goodput req/s", _fmt("goodput_rps", ".1f")),
            ("req/s per util-%", _fmt("efficiency", ".2f")),
        ),
        (
            Claim(
                "FlexPipe's goodput per util-% exceeds 1.5× MuxServe's at "
                "CV=2 and CV=4.",
                lambda rows: all(
                    _at(rows, cv=cv, system="FlexPipe")["efficiency"]
                    > 1.5 * _at(rows, cv=cv, system="MuxServe")["efficiency"]
                    for cv in (2.0, 4.0)
                ),
            ),
            Claim(
                "MuxServe's GPU utilization is above FlexPipe's at CV=2 and "
                "CV=4.",
                lambda rows: all(
                    _at(rows, cv=cv, system="MuxServe")["gpu_util_pct"]
                    > _at(rows, cv=cv, system="FlexPipe")["gpu_util_pct"]
                    for cv in (2.0, 4.0)
                ),
            ),
        ),
        rows=figures.fig12_rows,
    ),
    Artefact(
        "fig13",
        "Fig. 13 — prefill latency across model scales",
        "FlexPipe 6.43% (WHISPER) to 24.38% (OPT-66B) lower prefill "
        "latency; the gap grows with model size; 17.32% average.",
        "benchmarks/bench_fig13.py",
        lambda seed, runner: figures.fig13_rows(seed=seed, runner=runner),
        _columns(
            "Fig. 13 - prefill latency across model scales (CV=2 trace)",
            ("model", "model"),
            ("system", "system"),
            ("mean prefill s", _fmt("prefill_s", ".3f")),
            ("P95 latency s", _fmt("p95_latency", ".2f")),
        ),
        (
            Claim(
                "Mean prefill latency grows from LLAMA2-7B to OPT-66B for "
                "FlexPipe, AlpaServe and ServerlessLLM.",
                lambda rows: all(
                    _at(rows, model="OPT-66B", system=system)["prefill_s"]
                    > _at(rows, model="LLAMA2-7B", system=system)["prefill_s"]
                    for system in ("FlexPipe", "AlpaServe", "ServerlessLLM")
                ),
            ),
            Claim(
                "FlexPipe's OPT-66B mean prefill is within 1.3× AlpaServe's.",
                lambda rows: _at(rows, model="OPT-66B", system="FlexPipe")["prefill_s"]
                <= 1.3 * _at(rows, model="OPT-66B", system="AlpaServe")["prefill_s"],
            ),
        ),
    ),
    Artefact(
        "case-study",
        "§9.6 — production cluster case study",
        "Always-on reservation 75% → 30% of peak; allocation wait −85%; "
        "instance initialization −72%.",
        "benchmarks/bench_case_study.py",
        lambda seed, runner: figures.case_study_rows(seed=seed, runner=runner),
        _case_study,
        (
            Claim(
                "At 30% always-on against 75%, FlexPipe's goodput is at least "
                "0.6× the static baseline's.",
                lambda s: s["flex_goodput"] >= 0.6 * s["static_goodput"],
            ),
            Claim(
                "Elastic scale-outs initialise over 40% faster than a cold "
                "whole-pipeline deployment.",
                lambda s: s["init_reduction"] > 0.4,
            ),
            Claim(
                "FlexPipe's mean allocation wait is at most the static "
                "baseline's plus 1 s.",
                lambda s: s["flex_alloc_wait"] <= s["static_alloc_wait"] + 1.0,
            ),
        ),
    ),
    Artefact(
        "ablations",
        "Ablations — FlexPipe mechanism contributions",
        "(No paper table; DESIGN.md calls these out.)  Refactoring, warm "
        "cache, HRG coordination and affinity each carry measurable weight.",
        "benchmarks/bench_ablations.py",
        lambda seed, runner: figures.ablation_rows(seed=seed, runner=runner),
        _columns(
            "Ablations - FlexPipe mechanisms removed one at a time (CV=4)",
            ("variant", "variant"),
            ("goodput %", _fmt("goodput_pct", ".0f")),
            ("mean lat s", _fmt("mean_latency", ".2f")),
            ("P99 s", _fmt("p99", ".2f")),
            ("refactors", "refactors"),
            ("warm rate", _fmt("warm_rate", ".2f")),
            ("mean init s", _fmt("mean_init", ".1f")),
        ),
        (
            Claim(
                "Disabling refactoring leaves 0 refactors; full FlexPipe "
                "refactors.",
                lambda rows: _at(rows, variant="no-refactoring")["refactors"] == 0
                and _at(rows, variant="full")["refactors"] > 0,
            ),
            Claim(
                "Disabling the warm cache gives a warm-start rate of 0.",
                lambda rows: _at(rows, variant="no-warm-cache")["warm_rate"] == 0.0,
            ),
        ),
    ),
    Artefact(
        "queueing",
        "Eq. 1 / Insight 3 — queueing model validation",
        "Deeper pipelines win above CV≈3; optimal depth scales like "
        "S ∝ √CV.",
        "benchmarks/bench_queueing.py",
        lambda seed, runner: figures.eq1_rows(),
        _columns(
            "Eq. 1 - extended G/G/S pipeline delay model",
            ("CV", "cv"),
            ("stages", "stages"),
            ("Eq.1 total delay", _fmt("delay", ".3f")),
            ("S* = 8*sqrt(CV)", "optimal"),
        ),
        (
            Claim(
                "At 4 stages, Eq. 1's delay is higher at CV=8 than at CV=0.5.",
                lambda rows: _at(rows, cv=8.0, stages=4)["delay"]
                > _at(rows, cv=0.5, stages=4)["delay"],
            ),
            Claim(
                "At CV=8, 16 stages have less delay than 4 (Insight 3).",
                lambda rows: _at(rows, cv=8.0, stages=16)["delay"]
                < _at(rows, cv=8.0, stages=4)["delay"],
            ),
            Claim(
                "S* = 8·√CV gives 16 stages at CV=4.",
                lambda rows: _at(rows, cv=4.0, stages=4)["optimal"] == 16,
            ),
        ),
    ),
    Artefact(
        "migration",
        "§8 ablation — hierarchical transfer vs NCCL",
        "NCCL connection establishment costs seconds, so FlexPipe uses "
        "RDMA with a sendfile fallback for KV migration.",
        "benchmarks/bench_migration.py",
        lambda seed, runner: figures.migration_rows(),
        _migration,
        (
            Claim(
                "Forced NCCL's makespan exceeds 5× the hierarchy's.",
                lambda r: r["forced NCCL"]["makespan"]
                > 5 * r["hierarchy (RDMA)"]["makespan"],
            ),
            Claim(
                "The sendfile fallback stays within 2.5× the hierarchy's "
                "makespan.",
                lambda r: r["sendfile fallback"]["makespan"]
                < 2.5 * r["hierarchy (RDMA)"]["makespan"],
            ),
            Claim(
                "Under the hierarchy the KV shards finish within half the "
                "makespan.",
                lambda r: r["hierarchy (RDMA)"]["kv_makespan"]
                < 0.5 * r["hierarchy (RDMA)"]["makespan"],
            ),
            Claim(
                "Every variant moves identical bytes.",
                lambda r: len({v["bytes"] for v in r.values()}) == 1,
            ),
        ),
    ),
    Artefact(
        "migration-single",
        "§8 ablation — single-stream KV migration, RDMA vs NCCL",
        None,
        "benchmarks/bench_migration.py",
        lambda seed, runner: figures.single_stream_kv(),
        _migration_single,
        (
            Claim(
                "For a 64 MB KV shard NCCL takes over 50× RDMA's time.",
                lambda d: d[1] > 50 * d[0],
            ),
        ),
    ),
    Artefact(
        "sensitivity-alpha",
        "Sensitivity — Eq. 4 α (throughput-latency weight)",
        "(Design-choice sweep; no paper table.)",
        "benchmarks/bench_sensitivity.py",
        lambda seed, runner: figures.selection_sweep(
            "alpha", (0.0, 0.25, 0.5, 0.75, 1.0)
        ),
        _selection("alpha"),
        (
            Claim(
                "For every α, the selected stage count never falls as CV rises.",
                lambda rows: all(_monotone(stages) for stages in rows.values()),
            ),
            Claim(
                "α=0 and α=1 select different stage counts somewhere in the "
                "sweep.",
                lambda rows: rows[0.0] != rows[1.0],
            ),
        ),
    ),
    Artefact(
        "sensitivity-sigma",
        "Sensitivity — Eq. 4 σ (adaptation sensitivity)",
        "(Design-choice sweep; no paper table.)",
        "benchmarks/bench_sensitivity.py",
        lambda seed, runner: figures.selection_sweep(
            "sigma", (0.3, 0.6, 1.2, 2.4, 4.8)
        ),
        _selection("sigma"),
        (
            Claim(
                "σ=0.3 selects at least 3 distinct stage counts, and no fewer "
                "than σ=4.8.",
                lambda rows: len(set(rows[0.3])) >= max(3, len(set(rows[4.8]))),
            ),
        ),
    ),
    Artefact(
        "sensitivity-eq11",
        "Sensitivity — Eq. 11 scaling-unit sigmoid",
        "(Design-choice sweep; no paper table.)",
        "benchmarks/bench_sensitivity.py",
        lambda seed, runner: figures.eq11_rows(),
        _columns(
            "Eq. 11 sigmoid - scaling unit granularity vs cv and queue",
            ("cv", 0),
            ("queue", 1),
            ("scaling granularity m_j", 2),
        ),
        (
            Claim(
                "Calm and empty (CV 0.1, queue 0) scales in units of at most "
                "2 stages; CV 8 at queue 512 in the finest (32).",
                lambda pts: _eq11_grid(pts)[(0.1, 0)] <= 2
                and _eq11_grid(pts)[(8.0, 512)] == 32,
            ),
            Claim(
                "The unit granularity is monotone in the queue at every CV "
                "and in CV at every queue.",
                _eq11_monotone,
            ),
        ),
    ),
    Artefact(
        "qos",
        "QoS control plane vs the null policy (`repro qos`)",
        None,
        None,
        figures.qos_run,
        _qos,
        (
            Claim(
                "The scenario has an interactive-class tenant, and every "
                "interactive-class tenant attains strictly more of its SLO "
                "with the control plane than under the null policy, unless "
                "both attain 100%.",
                _interactive_improves,
            ),
        ),
    ),
    Artefact(
        "coldstart",
        "Cold-start economy: eviction and loading policies (`repro coldstart`)",
        None,
        None,
        figures.coldstart_run,
        _coldstart,
        (
            Claim(
                "GDSF eviction beats LRU on the hot tenants' mean p99 TTFT.",
                lambda run: hot_p99_ttft(run.reports["gdsf+pipelined"])
                < hot_p99_ttft(run.reports["lru+pipelined"]),
            ),
            Claim(
                "GDSF's warm-start rate is at least LRU's.",
                lambda run: run.reports["gdsf+pipelined"].aggregate.warm_start_rate
                >= run.reports["lru+pipelined"].aggregate.warm_start_rate,
            ),
            Claim(
                "Pipelined loading beats load-then-activate on the hot "
                "tenants' mean p99 TTFT.",
                lambda run: hot_p99_ttft(run.reports["gdsf+pipelined"])
                < hot_p99_ttft(run.reports["gdsf+sequential"]),
            ),
        ),
    ),
]

ARTEFACTS: dict[str, Artefact] = {a.name: a for a in _TABLE}
