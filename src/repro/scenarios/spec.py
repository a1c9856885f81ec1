"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a plain-data description of one multi-model
serving scenario on a fragmented cluster:

* the **cluster** (paper-scale or small, fragmentation on/off);
* a **fleet** of models, each with a *phased arrival script* — an ordered
  list of :class:`ArrivalSegment` (steady / burst / diurnal / replay)
  covering the tenant's lifetime, so tenants can arrive late and depart
  early (churn);
* a timed **event script** of platform/operator disturbances
  (:class:`ScenarioEvent`): GPU reclamation, whole-server failure,
  replica drain, forced refactor, forced scale-out.

Everything round-trips through ``dict``/JSON (:meth:`ScenarioSpec.to_dict`
/ :meth:`ScenarioSpec.from_dict`), so scenarios can live in files, CLI
arguments or test parametrisations, and every spec is hashable content
for the result cache.  The spec is *pure data*: compiling it onto a live
simulator is :mod:`repro.scenarios.driver`'s job.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields, replace

from repro.models.zoo import get_model
from repro.qos.classes import SLO_CLASSES
from repro.scaling.warm_cache import CACHE_POLICIES
from repro.workloads.azure2019 import Azure2019Source

SEGMENT_KINDS = ("steady", "burst", "diurnal", "replay", "azure2019")
EVENT_ACTIONS = ("reclaim", "fail_server", "drain", "refactor", "scale_out")
CLUSTERS = ("paper", "small")
QOS_MODES = ("auto", "on", "off")


# JSON value kinds accepted per annotated field type (``X | None`` also
# takes null); a bool is never a number here.
_JSON_KINDS = {
    "float": ((int, float), "a number"),
    "int": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}


def _build(cls, data: dict, where: str = ""):
    """``cls(**data)`` from one JSON object (an entry of the list field
    ``where``, if given).  Malformed input — not an object, an unknown or
    missing key, a value of the wrong JSON kind — raises ``ValueError``
    naming the class and the field."""
    owner = cls.__name__
    if not isinstance(data, dict):
        place = f" in {where!r}" if where else ""
        raise ValueError(f"{owner}: expected an object{place}, got {data!r}")
    valid = sorted(f.name for f in fields(cls))
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ValueError(
            f"unknown {owner} key(s) {unknown}; valid fields: {valid}"
        )
    for f in fields(cls):
        if f.name not in data:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{owner}: missing required field {f.name!r}")
            continue
        value = data[f.name]
        base = f.type.removesuffix(" | None")
        if base not in _JSON_KINDS or (value is None and base != f.type):
            continue
        kinds, expected = _JSON_KINDS[base]
        if isinstance(value, bool) != (base == "bool") or not isinstance(value, kinds):
            raise ValueError(
                f"{owner}: field {f.name!r} must be {expected}, got {value!r}"
            )
    return cls(**data)


def _entries(owner: str, data: dict, key: str):
    """The JSON array under ``key`` (empty when absent)."""
    value = data.get(key, ())
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{owner}: field {key!r} must be a list, got {value!r}")
    return value


def _model_script(data: dict) -> "ModelScript":
    if isinstance(data, dict):
        segments = tuple(
            _build(ArrivalSegment, s, "segments")
            for s in _entries("ModelScript", data, "segments")
        )
        data = {**data, "segments": segments or (ArrivalSegment(),)}
    return _build(ModelScript, data, "models")


@dataclass(frozen=True)
class ArrivalSegment:
    """One phase of a tenant's arrival script.

    ``start`` is the offset (seconds) from the scenario's traffic epoch;
    the segment offers traffic over ``[start, start + duration)``.

    Kinds
    -----
    ``steady``
        Renewal arrivals at ``qps`` with inter-arrival ``cv`` (Poisson at
        cv=1, Gamma otherwise).
    ``burst``
        Sustained MMPP bursts (regime-switching) at mean ``qps``; ``cv``
        sets the burst intensity, ``burst_cycle`` the episode timescale.
    ``diurnal``
        Sinusoidally modulated Poisson: mean ``qps``, peak-to-mean swing
        ``amplitude``, full cycle ``period`` seconds (a compressed "day").
    ``replay``
        Replays a seeded synthetic production trace
        (:class:`~repro.workloads.traces.DiurnalTrace`) scaled to ``qps``
        mean rate; ``cv`` is ignored.
    ``azure2019``
        Replays one function of the real AzureFunctionsDataset2019
        format through the streaming mint
        (:func:`~repro.workloads.azure2019.iter_minted_stamps` feeding a
        lazy :class:`~repro.workloads.arrivals.ReplayArrivals`).
        ``trace_function`` names the function (its owner/app/function
        hash key) inside the window described by the scenario's
        ``azure2019`` source block; the *whole* window maps onto the
        segment's ``[start, start + duration)``, so time compression
        (``--quick``) still replays every trace minute.  ``qps`` should
        carry the function's mean playback rate — it sizes shard slices
        and admission splits — and ``cv`` is ignored.

    ``slo_class`` optionally overrides the tenant's QoS class for this
    segment's requests (e.g. an interactive tenant running a batch
    backfill overnight); ``None`` inherits the model's class.
    """

    kind: str = "steady"
    start: float = 0.0
    duration: float = 30.0
    qps: float = 5.0
    cv: float = 1.0
    burst_cycle: float = 30.0  # burst: mean calm+burst episode cycle (s)
    amplitude: float = 0.6  # diurnal: peak swing as a fraction of qps
    period: float = 120.0  # diurnal: seconds per synthetic "day"
    trace_function: str = ""  # azure2019: function key inside the window
    slo_class: str | None = None  # per-segment QoS class override

    def __post_init__(self) -> None:
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(
                f"unknown segment kind {self.kind!r}; choose from {SEGMENT_KINDS}"
            )
        if self.duration <= 0:
            raise ValueError(f"segment duration must be positive: {self.duration}")
        if self.start < 0:
            raise ValueError(f"segment start cannot be negative: {self.start}")
        if self.qps <= 0:
            raise ValueError(f"segment qps must be positive: {self.qps}")
        if self.cv <= 0:
            raise ValueError(f"segment cv must be positive: {self.cv}")
        if self.kind == "burst" and self.cv <= 1.0:
            raise ValueError(
                f"burst segments need cv > 1 (the MMPP burst intensity), "
                f"got {self.cv}"
            )
        if not 0 <= self.amplitude < 1:
            raise ValueError(
                f"segment amplitude must be in [0,1): {self.amplitude}"
            )
        if self.period <= 0 or self.burst_cycle <= 0:
            raise ValueError(
                f"segment period/burst_cycle must be positive: "
                f"{self.period}/{self.burst_cycle}"
            )
        if self.trace_function and self.kind != "azure2019":
            raise ValueError(
                f"trace_function only applies to azure2019 segments, "
                f"not {self.kind!r}"
            )
        if self.kind == "azure2019" and not self.trace_function:
            raise ValueError(
                "azure2019 segments must name a trace_function "
                "(a HashOwner/HashApp/HashFunction key in the window)"
            )
        if self.slo_class is not None and self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"unknown SLO class {self.slo_class!r}; "
                f"available: {sorted(SLO_CLASSES)}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class ModelScript:
    """One tenant: a model plus its phased arrival script.

    ``slo_class`` names the tenant's QoS class (``interactive`` /
    ``standard`` / ``batch`` / ``best_effort``); ``None`` keeps the
    historical unclassed behaviour where ``slo_latency`` alone defines
    the goodput deadline.  A classed tenant's requests carry the class
    and are judged against *its* latency target.

    ``share_cap`` caps the tenant's GPU footprint at a fraction of total
    fleet memory (enforced by the allocator while the QoS control plane
    runs); ``None`` leaves the tenant uncapped.
    """

    model: str
    segments: tuple[ArrivalSegment, ...] = (ArrivalSegment(),)
    prompt_median: int = 128
    output_median: int = 8
    slo_latency: float = 10.0
    slo_class: str | None = None
    share_cap: float | None = None
    # Names the tenant's ``arrivals…``/``requests…`` random streams
    # (``None`` = the per-segment ``_{model}_s{i}`` tag).  Paper-figure
    # specs set ``""`` (primary) and ``"_bg"`` (background): the seeded
    # traffic their recorded tables and bench asserts were measured on.
    stream: str | None = None

    def __post_init__(self) -> None:
        try:
            # Resolves zoo models and synthetic FLEET-* tenants alike.
            get_model(self.model)
        except KeyError as exc:
            raise ValueError(str(exc)) from None
        if not self.segments:
            raise ValueError(f"{self.model}: at least one arrival segment required")
        if self.slo_class is not None and self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"{self.model}: unknown SLO class {self.slo_class!r}; "
                f"available: {sorted(SLO_CLASSES)}"
            )
        if self.share_cap is not None and not 0.0 < self.share_cap <= 1.0:
            raise ValueError(
                f"{self.model}: share_cap must be in (0, 1], got {self.share_cap}"
            )
        if self.stream is not None:
            if not isinstance(self.stream, str):
                raise ValueError(
                    f"ModelScript {self.model}: field 'stream' must be a "
                    f"string, got {self.stream!r}"
                )
            if len(self.segments) != 1:
                # One named stream per tenant: a second segment would mint
                # request ids from the same namespace.
                raise ValueError(
                    f"ModelScript {self.model}: field 'stream' needs exactly "
                    f"one segment, got {len(self.segments)}"
                )

    @property
    def horizon(self) -> float:
        """Offset at which this tenant's last segment ends."""
        return max(s.end for s in self.segments)

    @property
    def effective_slo(self) -> float:
        """The tenant's goodput deadline: class target when classed."""
        if self.slo_class is not None:
            return SLO_CLASSES[self.slo_class].latency_target
        return self.slo_latency


@dataclass(frozen=True)
class ScenarioEvent:
    """One scripted disturbance, fired ``at`` seconds after traffic starts.

    Actions
    -------
    ``reclaim``
        The platform reclaims ``count`` serving-biased victim GPUs
        (immediate cordon + drain, exponential downtime).
    ``fail_server``
        A whole server fails: every GPU of one (seeded-random) multi-GPU
        server is reclaimed at once.
    ``drain``
        The operator scales in one replica (of ``model``, when given).
    ``refactor``
        Force an inflight refactor of one active replica of ``model``
        toward ``target_stages`` (FlexPipe; a no-op on baselines).
    ``scale_out``
        Deploy one extra replica (of ``model``, random when omitted).
    """

    at: float
    action: str
    model: str | None = None
    count: int = 1
    target_stages: int | None = None

    def __post_init__(self) -> None:
        if self.action not in EVENT_ACTIONS:
            raise ValueError(
                f"unknown event action {self.action!r}; choose from {EVENT_ACTIONS}"
            )
        if self.at < 0:
            raise ValueError(f"event time cannot be negative: {self.at}")
        if self.count < 1:
            raise ValueError(f"event count must be >= 1: {self.count}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario."""

    name: str
    models: tuple[ModelScript, ...]
    events: tuple[ScenarioEvent, ...] = ()
    cluster: str = "small"
    fragmentation: bool = True
    settle: float = 60.0  # initial loads complete before the traffic epoch
    drain: float = 20.0  # grace window after the last segment ends
    # Traffic before the measured epoch: measurement opens at
    # ``settle + warmup`` so steady-state numbers skip the initial
    # scale-to-fit transients (see ``epoch`` and ``measured``).
    warmup: float = 0.0
    admission_cap: int = 0  # backlog cap across all routers; 0 = no gate
    batch_cap: int = 16
    downtime_mean: float = 10.0  # reclamation downtime (s, exponential)
    initial_replicas: int | None = None  # None = the factory's provisioning
    # QoS control plane: "auto" enables it iff any tenant/segment declares
    # an SLO class, "on"/"off" force it.  Class annotations always shape
    # the *workload* (deadlines, request stamping); this switch only
    # gates the control plane (per-tenant admission, priority routing,
    # attainment-driven scaling) — so on-vs-off is an apples-to-apples
    # policy comparison over identical traffic.
    qos: str = "auto"
    # Elastic share contracts: per-tenant caps become borrowable — a
    # tenant may exceed its cap into another capped tenant's idle
    # headroom (reclaimed on demand), and FlexPipe's refactor executor
    # unlocks live in-place transitions.  Only meaningful with QoS on.
    elastic: bool = False
    # Cold-start economy knobs (applied to FlexPipe; baselines keep their
    # fixed behaviour so comparisons stay apples-to-apples):
    # warm-cache eviction policy ("lru" or cost-aware "gdsf"),
    cache_policy: str = "lru"
    # serve from the first loaded stages instead of load-then-activate,
    pipelined_loading: bool = False
    # autoscaler floor 0 — idle tenants release everything (serverless
    # churn; cold-start waves then hit the parameter cache),
    scale_to_zero: bool = False
    # and how long a replica idles before scale-in (None = system default).
    idle_window: float | None = None
    # Per-server cache-tier capacities in GiB (None = the cluster's
    # hardware defaults).  A hardware knob, applied to every system: the
    # coldstart-economy family shrinks both tiers so fleet churn actually
    # exercises eviction — at datacenter defaults (256 GiB host, 2 TiB
    # SSD) nothing ever leaves the cache and every policy looks alike.
    host_cache_gb: float | None = None
    ssd_cache_gb: float | None = None
    # Cluster checkpoint-storage bandwidth in GiB/s (None = hardware
    # default).  Cold loads contend on this shared link; narrowing it is
    # what makes pipelined loading's sequenced transfers matter — on an
    # unsaturated link parallel stage loads always finish first.
    storage_gbps: float | None = None
    # The AzureFunctionsDataset2019 trace source behind ``azure2019``
    # segments: dataset directory ("" = the bundled deterministic
    # fixture), absolute minute window, top-K selection and zoo-mapping
    # seed.  One block per scenario — every azure2019 segment replays a
    # function of this window.
    azure2019: Azure2019Source | None = None
    # Floor on the traffic window.  Shard partitioning replaces a parent
    # scenario with per-shard sub-specs whose own segments/events may end
    # earlier; padding every sub-spec to the parent's duration keeps the
    # measured windows (and therefore rates/utilization denominators)
    # identical across shards and equal to the unsharded run's.
    min_duration: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.qos not in QOS_MODES:
            raise ValueError(
                f"unknown qos mode {self.qos!r}; choose from {QOS_MODES}"
            )
        if self.cluster not in CLUSTERS:
            raise ValueError(
                f"unknown cluster {self.cluster!r}; choose from {CLUSTERS}"
            )
        if not self.models:
            raise ValueError(f"scenario {self.name!r} needs at least one model")
        names = [m.model for m in self.models]
        if len(names) != len(set(names)):
            raise ValueError(f"scenario {self.name!r} repeats a model: {names}")
        for event in self.events:
            if event.model is not None and event.model not in names:
                raise ValueError(
                    f"scenario {self.name!r} event at t={event.at:g} targets "
                    f"model {event.model!r} not in the fleet {names}"
                )
        if self.settle < 0 or self.drain < 0:
            raise ValueError("settle/drain cannot be negative")
        if self.warmup < 0:
            raise ValueError(
                f"ScenarioSpec: field 'warmup' cannot be negative: {self.warmup}"
            )
        if self.warmup >= self.duration:
            raise ValueError(
                f"ScenarioSpec: field 'warmup' ({self.warmup:g} s) must be "
                f"shorter than the traffic window ({self.duration:g} s)"
            )
        streams = [m.stream for m in self.models if m.stream is not None]
        if len(streams) != len(set(streams)):
            raise ValueError(
                f"ScenarioSpec {self.name!r}: tenants share a field 'stream' "
                f"value: {streams}"
            )
        if self.min_duration < 0:
            raise ValueError("min_duration cannot be negative")
        if self.cache_policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {self.cache_policy!r}; "
                f"choose from {CACHE_POLICIES}"
            )
        if self.idle_window is not None and self.idle_window <= 0:
            raise ValueError(f"idle_window must be positive: {self.idle_window}")
        for knob in ("host_cache_gb", "ssd_cache_gb", "storage_gbps"):
            value = getattr(self, knob)
            if value is not None and value <= 0:
                raise ValueError(f"{knob} must be positive: {value}")
        uses_2019 = any(
            s.kind == "azure2019" for m in self.models for s in m.segments
        )
        if uses_2019 and self.azure2019 is None:
            raise ValueError(
                f"scenario {self.name!r} has azure2019 segments but no "
                f"azure2019 trace-source block"
            )

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Traffic window: from the epoch to the last segment end or event."""
        horizon = max(m.horizon for m in self.models)
        if self.events:
            horizon = max(horizon, max(e.at for e in self.events) + 1.0)
        return max(horizon, self.min_duration)

    @property
    def horizon(self) -> float:
        """Total simulated time: settle + traffic + drain."""
        return self.settle + self.duration + self.drain

    @property
    def epoch(self) -> float:
        """When the measured epoch opens: traffic starts at ``settle``,
        measurement ``warmup`` seconds later."""
        return self.settle + self.warmup

    @property
    def measured(self) -> float:
        """The measured window: the denominator of every summary rate."""
        return max(self.duration - self.warmup, 1.0) + self.drain

    @property
    def model_names(self) -> tuple[str, ...]:
        return tuple(m.model for m in self.models)

    @property
    def qos_enabled(self) -> bool:
        """Whether the QoS control plane runs for this scenario."""
        if self.qos == "on":
            return True
        if self.qos == "off":
            return False
        return any(
            m.slo_class is not None
            or m.share_cap is not None
            or any(s.slo_class is not None for s in m.segments)
            for m in self.models
        )

    # ------------------------------------------------------------------
    # Serialisation (dict / JSON round-trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise ValueError(f"{cls.__name__}: expected an object, got {data!r}")
        data = dict(data)
        data["models"] = tuple(
            _model_script(m) for m in _entries("ScenarioSpec", data, "models")
        )
        data["events"] = tuple(
            _build(ScenarioEvent, e, "events")
            for e in _entries("ScenarioSpec", data, "events")
        )
        source = data.get("azure2019")
        if source is not None:
            data["azure2019"] = _build(Azure2019Source, source, "azure2019")
        return _build(cls, data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def quick(
        self, factor: float = 3.0, *, min_segment: float = 5.0
    ) -> "ScenarioSpec":
        """A time-compressed variant for smoke tests (``--quick``).

        Every segment offset, segment duration and event time shrinks by
        one *uniform* effective factor — ``factor``, capped so the
        shortest segment stays at least ``min_segment`` seconds — and
        rates are kept.  Uniform scaling is what preserves the scenario's
        *shape*: relative phasing (sequential phases stay sequential,
        deliberate overlaps stay overlaps), burst-vs-trough structure and
        event ordering all survive, while wall-clock cost drops roughly
        linearly.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive: {factor}")
        shortest = min(
            s.duration for m in self.models for s in m.segments
        )
        effective = max(min(factor, shortest / min_segment), 1.0)

        def shrink_segment(s: ArrivalSegment) -> ArrivalSegment:
            return replace(
                s,
                start=s.start / effective,
                duration=s.duration / effective,
                burst_cycle=max(s.burst_cycle / effective, 5.0),
                period=max(s.period / effective, 10.0),
            )

        return replace(
            self,
            name=f"{self.name}-quick",
            models=tuple(
                replace(m, segments=tuple(shrink_segment(s) for s in m.segments))
                for m in self.models
            ),
            events=tuple(replace(e, at=e.at / effective) for e in self.events),
            settle=self.settle,  # load times do not compress
            warmup=self.warmup / effective,  # traffic time: it compresses
            drain=max(self.drain / effective, 10.0),
            # The scale-in window is part of the churn shape: keep its
            # ratio to the (compressed) wave spacing.
            idle_window=(
                None
                if self.idle_window is None
                else max(self.idle_window / effective, 2.0)
            ),
        )
