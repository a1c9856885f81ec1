"""Chaos audit: seeded adversarial scenarios run on every serving system.

:func:`chaos_spec` derives a whole :class:`~repro.scenarios.spec.ScenarioSpec`
from one seed: workload intensity and burstiness, admission cap,
fragmentation, and a random schedule of refactor / scale-out / drain /
GPU-reclaim events fired while traffic flows.  The spec does not depend
on the system, so one seed is the same scenario on every system.

:func:`audit_seeds` runs the specs through the scenario engine's
:class:`~repro.scenarios.driver.ScenarioDriver`, which attaches the
invariant auditor (mid-run after every event, the full set at
quiesce): any dropped request or leaked reservation under *any*
interleaving is a bug.  Cases are independent and picklable, so they
fan out through the parallel experiment runner (``repro audit --seeds N``).
"""

from __future__ import annotations

from repro.scenarios.driver import (
    ScenarioCase,
    ScenarioReport,
    resolve_systems,
    run_scenario_case,
)
from repro.scenarios.spec import (
    ArrivalSegment,
    ModelScript,
    ScenarioEvent,
    ScenarioSpec,
)
from repro.simulation.randomness import RandomStreams

# Every PAPER_EVERY-th seed is a paper-cluster multi-model fleet instead
# of one model on the small cluster, so the audit covers the paper's
# fragmented multiplexing setting too.
PAPER_EVERY = 4

# Model fleets the paper-cluster seeds rotate through (kept small
# models first so the common case stays fast; the OPT-66B fleet exercises
# the big-checkpoint load/refactor paths).
PAPER_FLEETS: tuple[tuple[str, ...], ...] = (
    ("LLAMA2-7B", "BERT-21B"),
    ("LLAMA2-7B", "WHISPER-9B", "BERT-21B"),
    ("OPT-66B", "LLAMA2-7B"),
)

# Class annotations for the fleets above (position-matched): every
# paper-cluster seed is a *multi-class* fleet, so reclaim / drain /
# refactor interleavings run against priority routing and per-tenant
# admission, and the shed-accounting invariant is exercised under chaos.
PAPER_FLEET_CLASSES: tuple[tuple[str, ...], ...] = (
    ("interactive", "batch"),
    ("interactive", "standard", "batch"),
    ("batch", "interactive"),
)

# Elastic-contract arming for the fleets above (position-matched).  The
# caps bind: a tenant's cold start alone nears its cap, so scale-outs
# borrow and lenders demand their headroom back — the elastic-contract
# paths the audit exists to exercise.  The OPT-66B fleet stays uncapped
# and static: its big-checkpoint loads need the whole fragmented cluster.
PAPER_FLEET_CAPS: tuple[tuple[tuple[str, float], ...], ...] = (
    (("LLAMA2-7B", 0.03), ("BERT-21B", 0.03)),
    (("LLAMA2-7B", 0.03), ("BERT-21B", 0.03)),
    (),
)

# Chaos actions and their weights.  Elastic specs add three contract
# actions, with the base weights rescaled to make room.
ACTIONS = (("scale_out", 0.3), ("drain", 0.3), ("refactor", 0.25), ("fail", 0.15))
ELASTIC_ACTIONS = (
    ("borrow_surge", 0.12),
    ("reclaim_lender", 0.09),
    ("preempt_prep", 0.09),
)
MEAN_ACTION_INTERVAL = 1.0  # mean gap between chaos actions (s)


def chaos_spec(seed: int, *, duration: float = 30.0) -> ScenarioSpec:
    """The seeded chaos scenario for ``seed``.

    Knobs come from the ``chaos-config`` stream and the action schedule
    from ``chaos-actions``; both are named streams, so drawing them
    leaves every stream the run itself uses untouched.
    """
    knobs = RandomStreams(seed).stream("chaos-config")
    qps = float(knobs.uniform(4.0, 12.0))
    cv = float(knobs.choice([1.0, 2.0, 4.0, 8.0]))
    admission_cap = int(knobs.choice([0, 32, 128]))  # 0 = no admission gate
    fragmented = bool(knobs.random() < 0.5)
    if seed % PAPER_EVERY == PAPER_EVERY - 1:
        index = seed % len(PAPER_FLEETS)
        fleet = PAPER_FLEETS[index]
        classes = PAPER_FLEET_CLASSES[index]
        caps = dict(PAPER_FLEET_CAPS[index])
        cluster = "paper"
    else:
        fleet, classes, caps, cluster = ("LLAMA2-7B",), (None,), {}, "small"
    models = []
    for i, (model, slo_class) in enumerate(zip(fleet, classes)):
        if i:
            # Co-resident tenants offer their own lighter seeded traffic
            # through the same admission gate.
            qps = float(knobs.uniform(2.0, 8.0))
            cv = float(knobs.choice([1.0, 2.0, 4.0]))
        segment = ArrivalSegment(
            kind="burst" if cv > 1.0 else "steady",
            duration=duration,
            qps=qps,
            cv=cv,
            burst_cycle=60.0,
        )
        models.append(
            ModelScript(
                model,
                segments=(segment,),
                slo_class=slo_class,
                share_cap=caps.get(model),
            )
        )
    return ScenarioSpec(
        name=f"chaos-{seed}",
        models=tuple(models),
        events=_chaos_events(seed, duration, fleet, sorted(caps)),
        cluster=cluster,
        fragmentation=fragmented,
        settle=60.0,
        drain=0.0,
        admission_cap=admission_cap,
        batch_cap=16,
        # Short downtimes keep the post-run quiesce window bounded.
        downtime_mean=5.0,
        # Elastic contracts ride along wherever caps are armed.
        elastic=bool(caps),
    )


def _chaos_events(
    seed: int, duration: float, fleet: tuple[str, ...], capped: list[str]
) -> tuple[ScenarioEvent, ...]:
    """Seeded action schedule: exponential gaps, weighted action draws."""
    rng = RandomStreams(seed).stream("chaos-actions")
    table = ACTIONS
    if capped:
        table = tuple((a, w * 0.7) for a, w in ACTIONS) + ELASTIC_ACTIONS
    actions = [a for a, _ in table]
    weights = [w for _, w in table]
    events: list[ScenarioEvent] = []
    at = float(rng.exponential(MEAN_ACTION_INTERVAL))
    while at < duration:
        action = str(rng.choice(actions, p=weights))
        if action == "fail":
            events.append(ScenarioEvent(at, "reclaim"))
        elif action in ("borrow_surge", "reclaim_lender"):
            # Push a capped tenant into borrowed headroom, or make it
            # want its lent headroom back: either way a capped deploy.
            model = capped[int(rng.integers(len(capped)))]
            count = 2 if action == "borrow_surge" else 1
            events.append(ScenarioEvent(at, "scale_out", model, count))
        elif action == "preempt_prep":
            # Start a refactor, then contend for memory with every
            # tenant's deploys: on a tight cluster arbitration preempts
            # the in-flight preparation's prepared-chain claim.
            events.append(ScenarioEvent(at, "refactor"))
            events.extend(ScenarioEvent(at, "scale_out", m) for m in sorted(fleet))
        else:
            events.append(ScenarioEvent(at, action))
        at += float(rng.exponential(MEAN_ACTION_INTERVAL))
    return tuple(events)


def audit_seeds(
    *,
    seeds: int = 10,
    systems: list[str] | None = None,
    runner=None,
    duration: float = 30.0,
) -> list[ScenarioReport]:
    """Run :func:`chaos_spec` for seeds ``0..seeds-1`` on each system.

    Cases fan out through ``runner``'s worker pool (default: an
    ``ExperimentRunner`` sized by ``REPRO_JOBS``); the result cache is
    never consulted — a chaos audit must always re-execute.
    """
    from repro.experiments.runner import ExperimentRunner

    chosen = resolve_systems(systems)
    specs = [chaos_spec(seed, duration=duration) for seed in range(seeds)]
    cases = [
        ScenarioCase(spec, system, seed)
        for system in chosen
        for seed, spec in enumerate(specs)
    ]
    return (runner or ExperimentRunner(use_cache=False)).map(run_scenario_case, cases)
