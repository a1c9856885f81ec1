"""The named scenario catalog (``repro scenario list``).

Each entry scripts one serving situation the paper's fragmented
serverless setting produces; all run against any of the six systems with
the invariant auditor attached.  Durations are sized so a full
``repro scenario run --all`` stays in CI territory; ``--quick`` (the
``ScenarioSpec.quick`` transform) compresses time a further ~3x.
"""

from __future__ import annotations

from repro.scenarios.spec import (
    ArrivalSegment,
    ModelScript,
    ScenarioEvent,
    ScenarioSpec,
)
from repro.workloads.azure2019 import (
    Azure2019Source,
    load_window_cached,
    map_functions_to_zoo,
)

PAPER_MULTI_BURST = ScenarioSpec(
    name="paper-multi-burst",
    description=(
        "Paper-scale cluster multiplexing three models; staggered CV-8 "
        "bursts hit each tenant in turn while the platform reclaims GPUs."
    ),
    cluster="paper",
    settle=90.0,
    models=(
        ModelScript(
            "LLAMA2-7B",
            segments=(
                ArrivalSegment("steady", start=0.0, duration=60.0, qps=8.0),
                ArrivalSegment(
                    "burst", start=10.0, duration=20.0, qps=10.0, cv=8.0
                ),
            ),
        ),
        ModelScript(
            "BERT-21B",
            segments=(
                ArrivalSegment("steady", start=0.0, duration=60.0, qps=4.0),
                ArrivalSegment(
                    "burst", start=30.0, duration=20.0, qps=6.0, cv=8.0
                ),
            ),
        ),
        ModelScript(
            "WHISPER-9B",
            segments=(
                ArrivalSegment(
                    "burst", start=20.0, duration=30.0, qps=5.0, cv=4.0
                ),
            ),
        ),
    ),
    events=(
        ScenarioEvent(at=15.0, action="reclaim"),
        ScenarioEvent(at=35.0, action="reclaim", count=2),
    ),
    admission_cap=256,
    # The late reclaim can force a genuinely cold redeploy (the warm cache
    # no longer credits bytes a cancelled load never transferred), so the
    # grace window must cover a full cold reload plus the backlog drain.
    drain=75.0,
)

TENANT_CHURN = ScenarioSpec(
    name="tenant-churn",
    description=(
        "Tenants arrive and depart mid-run: capacity must follow each "
        "model's traffic up and then back to the always-on floor."
    ),
    cluster="small",
    models=(
        ModelScript(
            "LLAMA2-7B",
            segments=(
                ArrivalSegment("steady", start=0.0, duration=60.0, qps=6.0),
            ),
        ),
        ModelScript(
            "WHISPER-9B",
            segments=(  # arrives late, departs early
                ArrivalSegment("steady", start=15.0, duration=25.0, qps=5.0, cv=2.0),
            ),
        ),
        ModelScript(
            "BERT-21B",
            segments=(  # arrives as WHISPER departs
                ArrivalSegment("steady", start=35.0, duration=25.0, qps=4.0),
            ),
        ),
    ),
    events=(
        ScenarioEvent(at=20.0, action="scale_out", model="WHISPER-9B"),
        ScenarioEvent(at=45.0, action="drain", model="WHISPER-9B"),
        ScenarioEvent(at=50.0, action="scale_out", model="BERT-21B"),
    ),
    admission_cap=128,
)

RECLAMATION_STORM = ScenarioSpec(
    name="reclamation-storm",
    description=(
        "The platform reclaims serving GPUs every few seconds under "
        "steady traffic — the §7 immediate-reallocation regime at its "
        "most hostile."
    ),
    cluster="small",
    models=(
        ModelScript(
            "LLAMA2-7B",
            segments=(
                ArrivalSegment("steady", start=0.0, duration=50.0, qps=8.0, cv=2.0),
            ),
        ),
    ),
    events=tuple(
        ScenarioEvent(at=float(t), action="reclaim")
        for t in (10, 14, 18, 22, 26, 30, 34)
    ),
    downtime_mean=6.0,
    admission_cap=128,
)

FAILURE_CASCADE = ScenarioSpec(
    name="failure-cascade",
    description=(
        "Whole servers fail in sequence on the paper cluster; both "
        "tenants must recover between shocks."
    ),
    cluster="paper",
    settle=90.0,
    models=(
        ModelScript(
            "LLAMA2-7B",
            segments=(
                ArrivalSegment("steady", start=0.0, duration=60.0, qps=8.0),
            ),
        ),
        ModelScript(
            "BERT-21B",
            segments=(
                ArrivalSegment("steady", start=0.0, duration=60.0, qps=4.0, cv=2.0),
            ),
        ),
    ),
    events=(
        ScenarioEvent(at=15.0, action="fail_server"),
        ScenarioEvent(at=30.0, action="fail_server"),
        ScenarioEvent(at=45.0, action="reclaim", count=2),
    ),
    downtime_mean=12.0,
    admission_cap=256,
)

COLDSTART_WAVE = ScenarioSpec(
    name="coldstart-wave",
    description=(
        "A nearly idle deployment (one always-on replica) hit by a "
        "sudden wave — the serverless cold-start path end-to-end."
    ),
    cluster="small",
    initial_replicas=1,
    models=(
        ModelScript(
            "LLAMA2-7B",
            segments=(
                ArrivalSegment("steady", start=0.0, duration=10.0, qps=1.0),
                ArrivalSegment(
                    "burst", start=10.0, duration=30.0, qps=14.0, cv=4.0
                ),
                ArrivalSegment("steady", start=40.0, duration=15.0, qps=2.0),
            ),
        ),
    ),
    events=(ScenarioEvent(at=12.0, action="scale_out"),),
    admission_cap=96,
)

TRACE_REPLAY = ScenarioSpec(
    name="trace-replay",
    description=(
        "Two tenants replay compressed synthetic production traces "
        "(diurnal swing + burst episodes) while the operator forces "
        "granularity refactors."
    ),
    cluster="small",
    models=(
        ModelScript(
            "LLAMA2-7B",
            segments=(
                ArrivalSegment("replay", start=0.0, duration=60.0, qps=6.0),
            ),
        ),
        ModelScript(
            "WHISPER-9B",
            segments=(
                ArrivalSegment("replay", start=5.0, duration=50.0, qps=3.0),
            ),
        ),
    ),
    events=(
        ScenarioEvent(at=20.0, action="refactor", model="LLAMA2-7B", target_stages=8),
        ScenarioEvent(at=40.0, action="refactor", model="LLAMA2-7B", target_stages=2),
    ),
    admission_cap=128,
)

DIURNAL_DRIFT = ScenarioSpec(
    name="diurnal-drift",
    description=(
        "A compressed two-'day' diurnal cycle against a bursty "
        "co-tenant: slow swings layered with short bursts (Fig. 1's "
        "multi-window CV effect as a live workload)."
    ),
    cluster="small",
    models=(
        ModelScript(
            "LLAMA2-7B",
            segments=(
                ArrivalSegment(
                    "diurnal", start=0.0, duration=60.0, qps=7.0,
                    amplitude=0.7, period=30.0,
                ),
            ),
        ),
        ModelScript(
            "BERT-21B",
            segments=(
                ArrivalSegment(
                    "burst", start=10.0, duration=40.0, qps=4.0, cv=4.0
                ),
            ),
        ),
    ),
    events=(
        ScenarioEvent(at=25.0, action="drain"),
        ScenarioEvent(at=35.0, action="reclaim"),
    ),
    admission_cap=128,
)


PRIORITY_INVERSION = ScenarioSpec(
    name="priority-inversion",
    description=(
        "An interactive tenant and a batch backlog collide during a "
        "reclamation storm: without per-tenant QoS the shared gate sheds "
        "both classes alike and batch pressure starves the latency-"
        "sensitive tenant of scarce GPUs (run `repro qos` for the "
        "control-plane on/off comparison)."
    ),
    cluster="small",
    models=(
        ModelScript(
            "LLAMA2-7B",
            slo_class="interactive",
            segments=(
                ArrivalSegment("steady", start=0.0, duration=60.0, qps=6.0, cv=2.0),
            ),
        ),
        ModelScript(
            "BERT-21B",
            slo_class="batch",
            segments=(
                ArrivalSegment("steady", start=0.0, duration=60.0, qps=10.0),
                ArrivalSegment(  # the backlog wave that inverts priorities
                    "burst", start=10.0, duration=30.0, qps=8.0, cv=6.0
                ),
            ),
        ),
    ),
    events=(
        ScenarioEvent(at=15.0, action="reclaim"),
        ScenarioEvent(at=22.0, action="reclaim"),
        ScenarioEvent(at=30.0, action="reclaim", count=2),
        ScenarioEvent(at=40.0, action="reclaim"),
    ),
    downtime_mean=8.0,
    admission_cap=64,
)

GPU_CONTENTION = ScenarioSpec(
    name="gpu-contention",
    description=(
        "An interactive and a batch tenant race for the scarce fragments "
        "a reclamation cycle hands back: the batch tenant's backlog keeps "
        "its autoscaler hungry, so without class-aware GPU arbitration "
        "its deploys win the freed GPUs and the interactive burst queues "
        "behind cold starts (run `repro qos --scenario gpu-contention` "
        "for the on/off comparison; the batch tenant also carries a "
        "fleet-share cap)."
    ),
    cluster="small",
    initial_replicas=1,
    models=(
        ModelScript(
            "LLAMA2-7B",
            slo_class="interactive",
            segments=(
                ArrivalSegment("steady", start=0.0, duration=60.0, qps=4.0, cv=2.0),
                ArrivalSegment(  # the burst that needs the freed fragment
                    "burst", start=14.0, duration=34.0, qps=9.0, cv=6.0
                ),
            ),
        ),
        ModelScript(
            "BERT-21B",
            slo_class="batch",
            share_cap=0.5,
            segments=(
                ArrivalSegment("steady", start=0.0, duration=60.0, qps=10.0),
            ),
        ),
    ),
    events=(
        ScenarioEvent(at=10.0, action="reclaim"),
        ScenarioEvent(at=16.0, action="reclaim", count=2),
        ScenarioEvent(at=26.0, action="reclaim"),
        ScenarioEvent(at=36.0, action="reclaim", count=2),
    ),
    downtime_mean=7.0,
    admission_cap=96,
)

ELASTIC_CONTRACTS = ScenarioSpec(
    name="elastic-contracts",
    description=(
        "Elastic share contracts under a refactor in flight: an "
        "interactive tenant's burst outgrows its own fleet-share cap and "
        "borrows the capped batch tenant's idle headroom (reclaimed on "
        "demand when the lender's backlog returns), while FlexPipe's "
        "executor switches to live in-place transitions and preemptible "
        "prepared claims (run `repro qos --scenario elastic-contracts` "
        "for the on/off comparison)."
    ),
    cluster="small",
    initial_replicas=1,
    elastic=True,
    models=(
        ModelScript(
            "LLAMA2-7B",
            slo_class="interactive",
            share_cap=0.10,
            segments=(
                ArrivalSegment("steady", start=0.0, duration=60.0, qps=4.0, cv=2.0),
                ArrivalSegment(  # the burst that overflows the cap
                    "burst", start=14.0, duration=34.0, qps=9.0, cv=6.0
                ),
            ),
        ),
        ModelScript(
            "BERT-21B",
            slo_class="batch",
            share_cap=0.45,
            segments=(
                # The lender's day: busy, then idle through the
                # interactive burst (the headroom being borrowed), then
                # back — its returning backlog is what forces the
                # bounded-latency reclaim of the borrowed bytes.
                ArrivalSegment("steady", start=0.0, duration=14.0, qps=10.0),
                ArrivalSegment("steady", start=14.0, duration=32.0, qps=1.5),
                ArrivalSegment("steady", start=46.0, duration=14.0, qps=9.0),
            ),
        ),
    ),
    events=(
        ScenarioEvent(at=10.0, action="reclaim"),
        # Refactors in flight while the burst borrows: the executor's
        # in-place path must resize live stages as shares stretch.
        ScenarioEvent(at=16.0, action="refactor", model="LLAMA2-7B"),
        ScenarioEvent(at=18.0, action="reclaim", count=2),
        ScenarioEvent(at=26.0, action="reclaim"),
        ScenarioEvent(at=30.0, action="refactor", model="LLAMA2-7B"),
        ScenarioEvent(at=36.0, action="reclaim", count=2),
    ),
    downtime_mean=5.0,
    admission_cap=96,
)

def _coldstart_fleet() -> tuple[ModelScript, ...]:
    """The 108-tenant serverless fleet of ``coldstart-economy``.

    * 8 *hot* tenants (10 GB, ``FLEET-<i>-10g``) offering three 15 s waves
      separated by long idle gaps.  With scale-to-zero each gap releases
      the tenant's replicas, so every later wave restarts from the
      parameter cache — or from storage, if the cache evicted the tenant.
      Each completed deploy/teardown cycle *touches* the tenant's cached
      ranges, so by the third wave the hot set carries real frequency.
    * 100 one-shot *tail* tenants (12 GB, ``FLEET-<100+j>-12g``) on a
      uniform stagger — the cache sweepers.  Their teardowns land between
      the hot tenants' second and third waves, flushing more bytes
      through each server's (deliberately small) cache tiers than the
      tiers can hold: recency-only LRU evicts the hot set and the third
      wave restarts cold, while cost-aware GDSF keeps the frequently
      re-used checkpoints resident and the third wave stays warm.

    Sizes are pinned in the model names, keeping the fleet identical
    across processes and runs.
    """
    hot = tuple(
        ModelScript(
            f"FLEET-{i}-10g",
            segments=tuple(
                ArrivalSegment("steady", start=start, duration=15.0, qps=1.5)
                for start in (0.0, 180.0, 375.0)
            ),
        )
        for i in range(8)
    )
    # The first idle gap is churn-free (wave two restarts warm under any
    # policy, and the hot set earns its reference frequency); the sweep
    # then runs through the second gap at a rate calibrated so recency
    # alone cannot protect the hot set but frequency-weighted priorities
    # can.
    tail = tuple(
        ModelScript(
            f"FLEET-{100 + j}-12g",
            segments=(
                ArrivalSegment(
                    "steady", start=210.0 + 9.0 * j, duration=15.0, qps=0.6
                ),
            ),
        )
        for j in range(100)
    )
    return hot + tail


COLDSTART_ECONOMY = ScenarioSpec(
    name="coldstart-economy",
    description=(
        "A 108-model serverless fleet under scale-to-zero churn: hot "
        "tenants return for three waves across idle gaps while one-shot "
        "tail tenants sweep the deliberately small parameter-cache tiers "
        "between waves, so eviction policy (LRU vs cost-aware GDSF) and "
        "pipelined stage loading decide the hot tenants' p99 "
        "time-to-first-token (run `repro coldstart` for the policy "
        "comparison over identical traffic)."
    ),
    cluster="small",
    settle=5.0,
    initial_replicas=0,
    models=_coldstart_fleet(),
    cache_policy="gdsf",
    pipelined_loading=True,
    scale_to_zero=True,
    idle_window=8.0,
    # Host tier fits the hot set (~10 GB/server) with a little slack but
    # not the sweep; the narrowed storage link is what cold restarts
    # contend on (and what warm restarts get to skip).
    host_cache_gb=20.0,
    ssd_cache_gb=8.0,
    storage_gbps=5.0,
    admission_cap=512,
    drain=40.0,
)

def _azure2019_fleet(
    source: Azure2019Source, duration: float
) -> tuple[ModelScript, ...]:
    """One tenant per top-K function of the 2019-format fixture window.

    The whole trace window is time-compressed onto ``duration`` seconds
    of scenario traffic; each tenant's ``qps`` carries its function's
    total invocation volume so the sharding partitioner's traffic
    weights (and thus server slices) follow the trace.  The zoo mapping
    is the seeded volume-tiered assignment of
    :func:`repro.workloads.azure2019.map_functions_to_zoo` — heavy
    functions land on small hot models, the long tail on large cold
    ones.
    """
    window = load_window_cached(source)
    scripts = []
    for assignment in map_functions_to_zoo(window):
        fn = window.function(assignment.key)
        scripts.append(
            ModelScript(
                assignment.model,
                segments=(
                    ArrivalSegment(
                        "azure2019",
                        start=0.0,
                        duration=duration,
                        qps=fn.total / duration,
                        trace_function=assignment.key,
                    ),
                ),
                output_median=assignment.output_median,
            )
        )
    return tuple(scripts)


_AZURE_2019_SOURCE = Azure2019Source(
    dataset_dir="",  # empty = the bundled deterministic synthetic fixture
    start_minute=480,
    end_minute=570,
    top_k=220,
    zoo_seed=0,
)

AZURE_REPLAY_2019 = ScenarioSpec(
    name="azure-replay-2019",
    description=(
        "Production-scale serverless replay: the top 220 functions of a "
        "90-minute AzureFunctionsDataset2019-format window (the bundled "
        "synthetic fixture; point `azure2019.dataset_dir` at the real "
        "dataset to replay it) stream through scale-to-zero tenants, "
        "with per-minute counts minted lazily so the window never "
        "materializes a request list.  Traffic weights carry trace "
        "volume, so the sharded driver packs tenants onto servers the "
        "way the trace loads them."
    ),
    cluster="paper",
    settle=5.0,
    initial_replicas=0,
    models=_azure2019_fleet(_AZURE_2019_SOURCE, duration=60.0),
    azure2019=_AZURE_2019_SOURCE,
    scale_to_zero=True,
    idle_window=8.0,
    # Time compression lands hundreds of cold starts in the same few
    # seconds; a production serverless platform feeds them from a
    # parallel blob store, not one disk.  On the default 32 GB/s link
    # the ~1.5 TB fleet checkpoint convoy would outlive the window with
    # every load fair-sharing the link and none finishing.
    storage_gbps=256.0,
    admission_cap=1024,
    events=(ScenarioEvent(at=25.0, action="reclaim"),),
    drain=30.0,
)


_AZURE_REPLAY_SOURCE = Azure2019Source(
    dataset_dir="",  # the bundled fixture
    start_minute=480,
    end_minute=570,
    top_k=2,
)


def _top_function_tenants(
    source: Azure2019Source, tenants: tuple[tuple[str, float, float], ...]
) -> tuple[ModelScript, ...]:
    """Tenant ``i`` (model, start, duration) replays the window's rank-``i``
    function, with ``qps`` carrying its volume as in :func:`_azure2019_fleet`."""
    window = load_window_cached(source)
    return tuple(
        ModelScript(
            model,
            segments=(
                ArrivalSegment(
                    "azure2019",
                    start=start,
                    duration=duration,
                    qps=fn.total / duration,
                    trace_function=fn.key,
                ),
            ),
        )
        for (model, start, duration), fn in zip(tenants, window.functions)
    )


AZURE_REPLAY = ScenarioSpec(
    name="azure-replay",
    description=(
        "Two tenants replay the two busiest functions of a 90-minute "
        "AzureFunctionsDataset2019-format window (the bundled fixture), "
        "each compressed into its traffic window, while the platform "
        "reclaims GPUs."
    ),
    cluster="small",
    models=_top_function_tenants(
        _AZURE_REPLAY_SOURCE,
        (("LLAMA2-7B", 0.0, 60.0), ("WHISPER-9B", 10.0, 45.0)),
    ),
    azure2019=_AZURE_REPLAY_SOURCE,
    events=(
        ScenarioEvent(at=20.0, action="reclaim"),
        ScenarioEvent(at=35.0, action="scale_out", model="LLAMA2-7B"),
    ),
    admission_cap=128,
)


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        PAPER_MULTI_BURST,
        TENANT_CHURN,
        RECLAMATION_STORM,
        FAILURE_CASCADE,
        COLDSTART_WAVE,
        TRACE_REPLAY,
        DIURNAL_DRIFT,
        PRIORITY_INVERSION,
        GPU_CONTENTION,
        ELASTIC_CONTRACTS,
        COLDSTART_ECONOMY,
        AZURE_REPLAY,
        AZURE_REPLAY_2019,
    )
}


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a named scenario; raises ``KeyError`` with the catalog."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
