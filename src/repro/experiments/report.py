"""EXPERIMENTS.md generation: paper-vs-measured for every artefact.

Each bench in ``benchmarks/`` writes its result table to
``benchmarks/_results/<name>.txt``; this module stitches those outputs —
together with each artefact's paper statement and the claims its bench
asserts (:data:`repro.experiments.artefacts.ARTEFACTS`) — into
``EXPERIMENTS.md``.
Run it via ``python -m repro report`` (or the ``write_experiments_md``
API) after ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import pathlib

from repro.experiments.artefacts import ARTEFACTS, Artefact

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_RESULTS_DIR = _REPO_ROOT / "benchmarks" / "_results"
DEFAULT_OUTPUT = _REPO_ROOT / "EXPERIMENTS.md"


#: The artefacts with an EXPERIMENTS.md section, in table order.
ENTRIES: list[Artefact] = [a for a in ARTEFACTS.values() if a.paper]


#: Where the reproduction's shape knowingly diverges from the paper, and why.
DIVERGENCES = """\
## Known divergences (and why they are expected)

* **Fig. 8 / Fig. 9 — AlpaServe's standing**: our AlpaServe provisions 75%
  of an estimated 3× peak *at the granularity its offline optimiser
  chose*, which on the simulated substrate amounts to roughly 2.25× mean
  capacity always-on.  Under extreme bursts (CV=8) that overprovisioned
  static fleet rides out spikes that FlexPipe must scale into, so
  AlpaServe's mean latency beats FlexPipe's in Fig. 9 (the paper shows
  FlexPipe ahead).  The gap traces to the substrate's batch-wave execution
  model: elastic capacity pays a load + startup latency on every burst
  while static capacity pays only idle cost — which Fig. 12 charges it
  for: FlexPipe delivers its goodput at a fraction of AlpaServe's GPU
  holding.
* **Queue-length aggregates at extreme CV** (Fig. 3b): MMPP burst
  workloads spend most wall-clock time quiet, so *time-averaged* queue
  statistics dilute at CV=8; congestion shows up instead in the stall-
  cycle blow-up (reproduced at ~46×, paper ~22×) and in the queue tail at
  moderate CV.  The paper's queue series is a loaded-period measurement.
* **Absolute latencies** are not comparable anywhere: the substrate
  serialises a batch's decode across stages (batch-wave granularity)
  rather than interleaving token iterations.  A stage runs a batch's
  prefill and all of its decode before handing the batch on, so the
  time to first token and the execution time carry about (S-1)/S of
  the decode time and grow with pipeline depth S.  On an idle LLAMA2-7B chain (prompt 512,
  output 128, batch 1) TTFT is 0.050 s at 1 stage, 4.18 s at 4 stages
  and 9.62 s at 16, against 0.05-0.06 s of prefill compute.  The
  inflation is therefore not uniform across systems: it penalises
  FlexPipe's deep rungs most (Fig. 13, the `repro coldstart` TTFT gate).
* **Fig. 9 cross-model interference**: with both tenants deployed and the
  cluster near its anti-affinity capacity, burst-driven scale-outs force
  cross-model colocation, and the Eq. 9 penalty (quadratic in CV) then
  throttles exactly the system that scaled hardest.  This emergent
  behaviour is faithful to the paper's model but sized to our 82-GPU
  simulated cluster.
* **Fig. 11 absolute recovery times** are hundreds of ms rather than the
  paper's tens: the §9.3 stall methodology keys off completion-latency
  percentiles, and our batch-wave substrate quantises completions at
  batch granularity, so recovery resolves no finer than roughly one batch
  service time.  The orderings the assertions check (MuxServe degrading
  hard from CV=1→2, FlexPipe comparable to AlpaServe) survive; the
  paper's 9 ms headline does not reproduce at this substrate resolution.
* **Fig. 13 margins** are a few percent rather than 6-24%: all systems
  share one calibrated cost model, so prefill-latency differences come
  only from placement and queueing, not from the kernel-level effects the
  paper also captures.  The qualitative claim that survives is the trend:
  FlexPipe's advantage is largest on the largest model (OPT-66B), where
  it beats the static baseline on both mean prefill and P95.

## Shape targets no claim checks (seed 0)

Each section's claims are what its bench asserts.  The prose shape
targets they replace promised more; every unchecked part is listed here
with its seed-0 measurement, so it is not lost:

* **Table 1** — "low-mean / high-P95 utilization with a heavy
  low-utilization mass": SM P95 is 65.6% against the paper's 80.5-85.4%,
  and 35.7% of samples sit in the 10-30% band against 21.0-31.3%.
* **Fig. 1** — "≥7× CV spread across windows": the claim checks ≥3×; the
  spread is 4.00×.
* **Fig. 3** — "queue grows ~4×": the mean queue goes 7.9 → 9.6 from CV
  0.1 to CV 8 (the claim checks the queue P95 at CV=2: 48 against 16).
* **Fig. 4** — "crossover between coarse and fine granularity as CV
  rises": there is no crossover; 4 stages have the lowest mean latency at
  every CV (6.40 s against 8.02 s for 16 stages at CV=4).
* **Fig. 8** — "FlexPipe lowest total latency at every CV; queue share
  shrinks": it is never lowest.  At CV=4 FlexPipe's mean response time
  is 6.66 s against AlpaServe's 4.32 s, with 78% goodput against 96%,
  and its queue time grows from 2.32 s at CV=1 to 2.66 s.
* **Fig. 9** — "FlexPipe flattest, AlpaServe spiky": FlexPipe's windowed
  response-time std is 20.97 s against AlpaServe's 7.48 s.
* **Fig. 10** — "FlexPipe P99 smallest and flattest across CV": FlexPipe's
  P99 is above ServerlessLLM's at every CV (17.80 / 25.39 / 19.19 s
  against 12.61 / 15.69 / 14.46 s at CV 1 / 2 / 4).
* **Fig. 11** — "FlexPipe comparable at CV=1 and clearly fastest at
  CV=4": its median recovery is 292 ms against AlpaServe's 205 ms at
  CV=1, and the slowest at CV=4 (1,059 ms; Tetris 724 ms).
* **Fig. 12** — "FlexPipe goodput/utilization dominates; ≥5× efficiency
  gap vs Tetris at CV=4": at CV=4 FlexPipe gets 0.33 req/s per util-%,
  against 0.46 for AlpaServe and 0.25 for Tetris.
* **Fig. 13** — "FlexPipe lower prefill latency on all four models":
  FlexPipe's mean prefill is above AlpaServe's on 3 of 4 models
  (WHISPER-9B, LLAMA2-7B, BERT-21B).  On OPT-66B it is 5.220 s against
  AlpaServe's 5.544 s and ServerlessLLM's 4.822 s.
* **§9.6 case study** — "wait and init reductions of the same order":
  the init reduction is 53% against the paper's 72%, and both systems'
  mean allocation wait is 0.00 s, so no wait reduction shows.
* **Ablations** — "disabling each mechanism regresses its metric": full
  FlexPipe's goodput is 70% against no-refactoring's 81% (no-warm-cache
  and no-affinity 79%, no-hrg 72%).  The warm-cache ablation does regress
  its own metrics: warm rate 1.00 → 0.00, mean init 25.3 s → 53.4 s.
* **Eq. 1** — "G/G/S model tracks simulated latency ordering": Eq. 1 puts
  32 stages lowest at every CV, while the simulated Fig. 4 puts 4 stages
  lowest at every CV.
* **Eq. 4 σ** — "large σ flattens selection": σ=4.8 selects as many
  distinct stage counts (3) as σ=0.3.
"""


def render_experiments_md(results_dir: pathlib.Path | None = None) -> str:
    """Build the EXPERIMENTS.md text from bench outputs on disk."""
    results_dir = results_dir or DEFAULT_RESULTS_DIR
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Every table and figure in the paper's evaluation, reproduced on the",
        "simulated substrate (see DESIGN.md for the substitution table). Per",
        "the reproduction brief we match *shapes and ratios*, not testbed-",
        "absolute numbers: the substrate is a calibrated simulator, not the",
        "authors' 82-GPU cluster.",
        "",
        "Regenerate the measured blocks with:",
        "",
        "```bash",
        "pytest benchmarks/ --benchmark-only   # writes benchmarks/_results/",
        "python -m repro report                # rebuilds this file",
        "```",
        "",
    ]
    missing = []
    for entry in ENTRIES:
        lines.append(f"## {entry.artefact}")
        lines.append("")
        lines.append(f"*Bench:* `{entry.bench}`")
        lines.append("")
        lines.append(f"**Paper:** {entry.paper}")
        lines.append("")
        lines.append("**Claims** (the bench asserts each):")
        lines.append("")
        lines.extend(f"- {claim.text}" for claim in entry.claims)
        lines.append("")
        result_path = results_dir / f"{entry.result_stem}.txt"
        if result_path.exists():
            lines.append("**Measured:**")
            lines.append("")
            lines.append("```")
            lines.append(result_path.read_text().rstrip("\n"))
            lines.append("```")
        else:
            missing.append(entry.result_stem)
            lines.append(
                "**Measured:** _bench not yet run — execute the command above._"
            )
        lines.append("")
    if missing:
        lines.append(
            f"_Pending benches: {', '.join(missing)}._"
        )
        lines.append("")
    lines.append(DIVERGENCES)
    return "\n".join(lines)


def write_experiments_md(
    results_dir: pathlib.Path | None = None,
    output: pathlib.Path | None = None,
) -> pathlib.Path:
    """Render and write EXPERIMENTS.md; returns the output path."""
    output = output or DEFAULT_OUTPUT
    output.write_text(render_experiments_md(results_dir))
    return output
