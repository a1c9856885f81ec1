"""Fast workload paths against the implementations they replaced.

Each oracle below keeps the code a fast path replaced: the per-call
``np.log``/``np.clip`` length sampler, the full-array burst mask of
:meth:`DiurnalTrace.generate`, and the recompute-on-every-read
:class:`SlidingWindowCV`.  The sampler and the trace must reproduce
them exactly (same integers, same arrays, same float bits); the running
CV must agree with the recompute within ``1e-9 x max(1, ref)``.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.workloads import cv as cv_module
from repro.workloads.cv import SlidingWindowCV, interarrival_cv
from repro.workloads.requests import LengthDistribution, RequestSampler
from repro.workloads.traces import DiurnalTrace, DiurnalTraceConfig


# ----------------------------------------------------------------------
# Request lengths
# ----------------------------------------------------------------------
def _sample_reference(dist: LengthDistribution, rng: np.random.Generator) -> int:
    value = rng.lognormal(np.log(dist.median), dist.sigma)
    return int(np.clip(round(value), dist.lo, dist.hi))


DISTRIBUTIONS = [
    LengthDistribution(median=512, sigma=0.6, lo=16, hi=4096),
    LengthDistribution(median=16, sigma=0.7, lo=1, hi=256),
    # Chat-style and code-completion prompt/output shapes.
    LengthDistribution(median=1020, sigma=0.9, lo=16, hi=8192),
    LengthDistribution(median=205, sigma=0.8, lo=1, hi=1024),
    LengthDistribution(median=1930, sigma=0.7, lo=64, hi=8192),
    LengthDistribution(median=13, sigma=0.9, lo=1, hi=256),
    # Clamps on both sides most of the time.
    LengthDistribution(median=100, sigma=3.0, lo=90, hi=110),
    LengthDistribution(median=7.5, sigma=0.01, lo=1, hi=1000),
]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 99991])
def test_request_sampler_matches_the_numpy_clip_sampler(seed):
    prompt, output = DISTRIBUTIONS[0], DISTRIBUTIONS[1]
    fast = RequestSampler("m", np.random.default_rng(seed), prompt=prompt, output=output)
    reference = np.random.default_rng(seed)
    got = [fast.sample(float(t)) for t in range(3000)]
    want = [
        (_sample_reference(prompt, reference), _sample_reference(output, reference))
        for _ in range(3000)
    ]
    assert [(r.prompt_tokens, r.output_tokens) for r in got] == want
    assert all(type(r.prompt_tokens) is int for r in got)
    # One lognormal draw per length, in the same order: the streams stay
    # in lockstep after the run.
    assert fast.rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: f"{d.median}-{d.lo}-{d.hi}")
def test_length_distribution_matches_reference_per_draw(dist):
    for seed in (3, 11):
        fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [dist.sample(fast) for _ in range(2000)] == [
            _sample_reference(dist, reference) for _ in range(2000)
        ]


def test_length_distribution_fields_are_unchanged():
    """The hoisted log-median is not a dataclass field: equality, hashing
    and repr still see exactly (median, sigma, lo, hi)."""
    import dataclasses

    dist = LengthDistribution(median=512, sigma=0.6, lo=16, hi=4096)
    assert dataclasses.asdict(dist) == {
        "median": 512,
        "sigma": 0.6,
        "lo": 16,
        "hi": 4096,
    }
    assert dist == LengthDistribution(median=512, sigma=0.6, lo=16, hi=4096)
    assert repr(dist) == "LengthDistribution(median=512, sigma=0.6, lo=16, hi=4096)"


# ----------------------------------------------------------------------
# Diurnal burst mask
# ----------------------------------------------------------------------
def _generate_reference(trace: DiurnalTrace, duration: float) -> np.ndarray:
    cfg = trace.config
    bursts = trace._draw_bursts(duration)
    max_rate = cfg.base_rate * (1 + cfg.diurnal_amplitude) * cfg.burst_factor
    n_candidates = int(trace.rng.poisson(max_rate * duration))
    times = np.sort(trace.rng.uniform(0.0, duration, n_candidates))
    rates = cfg.base_rate * np.maximum(
        1.0 + cfg.diurnal_amplitude * np.sin(2 * np.pi * times / cfg.day_seconds),
        0.05,
    )
    in_burst = np.zeros(times.size, dtype=bool)
    for start, end in bursts:
        in_burst |= (times >= start) & (times < end)
    rates = np.where(in_burst, rates * cfg.burst_factor, rates)
    accept = trace.rng.uniform(0.0, 1.0, times.size) <= rates / max_rate
    return times[accept]


TRACE_CONFIGS = [
    DiurnalTraceConfig(),
    DiurnalTraceConfig(burst_rate_per_hour=0.0),
    # Many long, overlapping bursts that often run past the duration.
    DiurnalTraceConfig(base_rate=0.5, burst_rate_per_hour=60.0, burst_mean_duration=600.0),
]


@pytest.mark.parametrize("config_index", range(len(TRACE_CONFIGS)))
@pytest.mark.parametrize("seed", [0, 1, 5, 42])
@pytest.mark.parametrize("duration", [1.0, 900.0, 7200.0])
def test_burst_mask_by_searchsorted_matches_full_compare(config_index, seed, duration):
    config = TRACE_CONFIGS[config_index]
    fast = DiurnalTrace(np.random.default_rng(seed), config).generate(duration)
    reference = _generate_reference(
        DiurnalTrace(np.random.default_rng(seed), config), duration
    )
    assert np.array_equal(fast, reference)
    assert fast.tobytes() == reference.tobytes()


class _ScriptedRng:
    """Hands ``generate`` fixed candidate stamps, then acceptance draws of
    0.5 (accepted in a burst, rejected outside one)."""

    def __init__(self, candidates):
        self.draws = [np.array(candidates), np.full(len(candidates), 0.5)]

    def poisson(self, lam):
        return len(self.draws[0])

    def uniform(self, low, high, size):
        return self.draws.pop(0)


class _OneBurst(DiurnalTrace):
    def _draw_bursts(self, duration):
        return [(2.0, 4.0)]


def test_burst_mask_edges_are_half_open():
    """A candidate exactly at a burst's start is in it, one exactly at its
    end is not (the ``start <= t < end`` rule of ``rate_at``)."""
    config = DiurnalTraceConfig(base_rate=1.0, diurnal_amplitude=0.0, burst_factor=10.0)
    candidates = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0]
    fast = _OneBurst(_ScriptedRng(candidates), config).generate(6.0)
    reference = _generate_reference(_OneBurst(_ScriptedRng(candidates), config), 6.0)
    assert fast.tolist() == reference.tolist() == [2.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# Windowed CV: running state against the recompute
# ----------------------------------------------------------------------
class _ReferenceSlidingWindowCV:
    """The recompute-on-every-read window the running sums replaced."""

    def __init__(self, window: float, min_samples: int = 4):
        self.window = window
        self.min_samples = min_samples
        self._times: deque[float] = deque()

    def observe(self, timestamp: float) -> None:
        self._times.append(timestamp)

    def _trim(self, now: float) -> None:
        horizon = now - self.window
        while self._times and self._times[0] < horizon:
            self._times.popleft()

    def value(self, now: float) -> float:
        self._trim(now)
        if len(self._times) < self.min_samples:
            return 0.0
        return interarrival_cv(list(self._times))

    def count(self, now: float) -> int:
        self._trim(now)
        return len(self._times)


def _assert_close(got: float, ref: float, where) -> None:
    """The running estimate's contract: within 1e-9 x max(1, ref)."""
    assert abs(got - ref) <= 1e-9 * max(1.0, ref), (where, got, ref)


def _replay(window: float, ops) -> int:
    """Feed ``("observe" | "read", t)`` ops to both windows, checking every
    read; returns how many reads had a non-zero reference CV."""
    fast = SlidingWindowCV(window=window)
    reference = _ReferenceSlidingWindowCV(window)
    nonzero = 0
    last_read = None
    for op, t in ops:
        if op == "observe":
            fast.observe(t)
            reference.observe(t)
            last_read = None
            continue
        got, ref = fast.value(t), reference.value(t)
        _assert_close(got, ref, t)
        if last_read is not None and last_read[0] == t:
            assert got == last_read[1]  # a repeated read is the same value
        last_read = (t, got)
        assert fast.count(t) == reference.count(t)
        nonzero += ref != 0.0
    return nonzero


def _random_ops(rng, window: float):
    now = 0.0
    for _ in range(1500):
        op = rng.random()
        if op < 0.45:  # an arrival: often a burst of equal stamps
            now += float(rng.exponential(0.2)) if rng.random() < 0.7 else 0.0
            for _ in range(int(rng.integers(1, 4))):
                yield "observe", now
        elif op < 0.9:  # a read, often repeated at the same instant
            yield "read", now
            if rng.random() < 0.5:
                yield "read", now
        elif op < 0.97:  # time passes without arrivals
            now += float(rng.exponential(window / 4))
        else:  # a long gap expires the whole window
            now += window * float(rng.uniform(1.0, 3.0))


@pytest.mark.parametrize("seed", range(12))
def test_memoised_cv_equals_a_fresh_recompute(seed):
    """The running window (which replaced the memo) against the recompute
    on seeded join/trim/burst schedules, within 1e-9 x max(1, ref)."""
    rng = np.random.default_rng(seed)
    window = float(rng.choice([0.5, 5.0, 30.0]))
    assert _replay(window, _random_ops(rng, window)) > 0


def _equal_stamp_bursts(rng):
    """Bursts of equal stamps: windows whose mean gap is exactly 0, or
    is carried by a handful of non-zero gaps among many zero ones."""
    now = 100.0
    for _ in range(300):
        for _ in range(int(rng.integers(1, 20))):
            yield "observe", now
            yield "read", now
        now += float(rng.exponential(0.5)) if rng.random() < 0.8 else 6.0


def _idle_gap_then_tiny_gaps(rng):
    """One stamp, a long idle gap, then hundreds of ~0.1 ms gaps.  Reads
    after the old stamp leaves see only the tiny gaps: the idle gap's
    square left the running sum, cancelling all but ~1e-8 of it."""
    now = 0.0
    for _ in range(6):
        start = now
        yield "observe", now
        now += float(rng.uniform(20.0, 29.0))
        for _ in range(400):
            yield "observe", now
            now += float(rng.exponential(1e-4))
        yield "read", now
        for k in range(1, 40):
            yield "read", start + 30.0 + k * 0.05
        now = start + 30.0 + 2.0 + 30.0  # the whole window expires


def _near_periodic(rng):
    """Near-periodic arrivals (CV -> 0) far from t=0, whose period jumps
    midway: the running mean leaves the pivot behind."""
    now = float(rng.uniform(500.0, 5000.0))
    period = float(rng.uniform(0.01, 0.5))
    jitter = float(rng.choice([0.0, 1e-9, 1e-6]))
    for k in range(3000):
        yield "observe", now
        yield "read", now
        now += period * (1.0 + jitter * float(rng.standard_normal()))
        if k == 1500:
            period *= float(rng.uniform(0.3, 3.0))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "schedule", [_equal_stamp_bursts, _idle_gap_then_tiny_gaps, _near_periodic]
)
def test_running_cv_on_adversarial_schedules(schedule, seed):
    window = 5.0 if schedule is _equal_stamp_bursts else 30.0
    assert _replay(window, schedule(np.random.default_rng(seed))) > 0


def test_reads_never_change_the_running_state():
    """The estimate at an instant depends on the arrivals alone, not on
    when or how often the window was read (or counted) before — what
    keeps reports identical across shards and with tracing on."""
    rng = np.random.default_rng(7)
    often, rarely = SlidingWindowCV(window=5.0), SlidingWindowCV(window=5.0)
    checked = 0
    for op, t in _random_ops(rng, 5.0):
        if op == "observe":
            often.observe(t)
            rarely.observe(t)
        else:
            got = often.value(t)
            often.count(t)
            if rng.random() < 0.05:
                assert rarely.value(t) == got
                checked += got != 0.0
    assert checked > 0


def test_unchanged_window_is_not_recomputed(monkeypatch):
    """No window is ever recomputed: observe and value never call
    ``interarrival_cv``, changed window or not."""
    real = cv_module.interarrival_cv

    def forbidden(timestamps):
        raise AssertionError("the running window recomputed from scratch")

    monkeypatch.setattr(cv_module, "interarrival_cv", forbidden)
    window = SlidingWindowCV(window=10.0)
    stamps = [0.0, 1.0, 1.5, 3.0, 3.0, 9.5]
    for t in stamps:
        window.observe(t)
        window.value(t)
    _assert_close(window.value(9.5), real(stamps), 9.5)
    _assert_close(window.value(10.5), real(stamps[1:]), 10.5)  # 0.0 leaves
    assert window.value(60.0) == 0.0  # everything expired
