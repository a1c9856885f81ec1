"""Inference requests and the Splitwise-like length sampler."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class Request:
    """One inference request plus its measured lifecycle.

    Timing fields are filled in by the pipeline runtime; ``None`` means the
    phase has not happened (yet).
    """

    rid: int
    model: str
    arrival_time: float
    prompt_tokens: int
    output_tokens: int
    slo_latency: float
    # QoS class name (see repro.qos.classes); None = unclassed (the
    # historical behaviour: slo_latency alone defines the deadline).
    slo_class: str | None = None
    # --- lifecycle, filled during simulation ---
    batch_time: float | None = None  # admitted into a batch
    exec_start: float | None = None  # first stage began computing
    prefill_done: float | None = None
    completion_time: float | None = None
    queue_time: float = 0.0
    exec_time: float = 0.0
    comm_time: float = 0.0
    rejected: bool = False
    # Observability: the span tracer's per-request mark sheet (a
    # repro.observability.tracer.RequestTrace); None unless tracing is on.
    trace: object | None = None

    @property
    def latency(self) -> float | None:
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    @property
    def prefill_latency(self) -> float | None:
        if self.prefill_done is None:
            return None
        return self.prefill_done - self.arrival_time

    @property
    def slo_met(self) -> bool:
        latency = self.latency
        return latency is not None and latency <= self.slo_latency

    @property
    def completed(self) -> bool:
        return self.completion_time is not None


@dataclass(frozen=True)
class LengthDistribution:
    """Log-normal token-length distribution clipped to [lo, hi]."""

    median: float
    sigma: float
    lo: int
    hi: int

    def __post_init__(self) -> None:
        # Hoisted out of ``sample``, which runs twice per request; not a
        # dataclass field, so equality, repr and ``asdict`` are unchanged.
        object.__setattr__(self, "_log_median", np.log(self.median))

    def sample(self, rng: np.random.Generator) -> int:
        value = rng.lognormal(self._log_median, self.sigma)
        return min(max(round(value), self.lo), self.hi)


def rid_namespace(name: str) -> int:
    """Deterministic rid base for a named request stream.

    Several samplers feed one run in multi-tenant scenarios; each must
    mint globally unique request ids or conservation audits (and any
    rid-keyed dedup) would conflate requests of different tenants.  The
    empty name maps to 0, keeping single-sampler runs byte-identical to
    the historical numbering.
    """
    from repro.simulation.randomness import stable_hash

    if not name:
        return 0
    return ((stable_hash(name) & 0x7FFFFFFF) | 0x1) << 32


class RequestSampler:
    """Draws request shapes (prompt/output lengths) for a model.

    Defaults follow the Splitwise corpus shape: prompts in the hundreds of
    tokens with a heavy tail, short-to-moderate outputs.  ``rid_base``
    offsets this sampler's request ids (see :func:`rid_namespace`).
    """

    def __init__(
        self,
        model: str,
        rng: np.random.Generator,
        *,
        prompt: LengthDistribution | None = None,
        output: LengthDistribution | None = None,
        slo_latency: float = 5.0,
        rid_base: int = 0,
        slo_class: str | None = None,
    ):
        self.model = model
        self.rng = rng
        self.prompt = prompt or LengthDistribution(median=512, sigma=0.6, lo=16, hi=4096)
        self.output = output or LengthDistribution(median=16, sigma=0.7, lo=1, hi=256)
        self.slo_latency = slo_latency
        self.rid_base = rid_base
        self.slo_class = slo_class
        self._ids = itertools.count()

    def sample(self, arrival_time: float) -> Request:
        return Request(
            rid=self.rid_base + next(self._ids),
            model=self.model,
            arrival_time=arrival_time,
            prompt_tokens=self.prompt.sample(self.rng),
            output_tokens=self.output.sample(self.rng),
            slo_latency=self.slo_latency,
            slo_class=self.slo_class,
        )
