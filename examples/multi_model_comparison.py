#!/usr/bin/env python
"""Head-to-head: all five systems on the same multi-tenant bursty workload.

Replays an identical seeded workload (OPT-66B primary + BERT-21B background
tenant, CV=4 sustained bursts) against FlexPipe and the four baselines,
then prints the Fig. 8/12-style comparison.

Run:  python examples/multi_model_comparison.py        (~1 minute)
"""

from __future__ import annotations

from repro.experiments.figures import audited_summary, figure_spec
from repro.experiments.systems import PAPER_SYSTEMS
from repro.metrics.report import format_table
from repro.scenarios.driver import ScenarioCase, run_cases


def main() -> None:
    spec = figure_spec("comparison", cv=4.0, background="BERT-21B")
    reports = run_cases(
        [ScenarioCase(spec, name) for name in PAPER_SYSTEMS], use_cache=False
    )
    rows = []
    for name, report in zip(PAPER_SYSTEMS, reports):
        summary = audited_summary(report)
        rows.append(
            [
                name,
                f"{summary.goodput_rate:.1%}",
                f"{summary.mean_latency:.2f}",
                f"{summary.breakdown.queue:.2f}",
                f"{summary.breakdown.communication:.2f}",
                f"{summary.latency_percentiles[99]:.1f}",
                f"{summary.gpu_utilization:.0%}",
                summary.gpus_used,
                summary.refactor_count,
            ]
        )
    print(
        format_table(
            ["system", "goodput", "mean RT", "queue s", "comm s", "P99", "util", "GPUs", "refactors"],
            rows,
            title=f"Five systems, {' + '.join(spec.model_names)}, CV=4 bursts",
        )
    )


if __name__ == "__main__":
    main()
