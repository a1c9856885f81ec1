"""The fused fair-share link against the two-list link it replaced.

``FairShareLink._waterfill`` classifies, assigns rates, floors them and
finds the soonest finisher in two plain passes.  ``ReferenceFairShareLink``
below is the previous class verbatim: capped/uncapped lists, a separate
floor pass and a ``min(key=...)`` argmin.  Both are driven through the
same seeded join/leave sequences — caps that are absent, below the equal
share, above it or exactly equal to it, equal ``remaining / rate`` ties
and zero-byte transfers — and must agree bit for bit on completion times,
completion order and bytes moved.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import pytest

from repro.simulation.engine import Event, Simulator
from repro.transfer.links import GB, FairShareLink, LinkSpec, TransferHandle


class ReferenceFairShareLink:
    """The two-list waterfilling link, kept as the exactness oracle."""

    def __init__(self, sim: Simulator, spec: LinkSpec):
        if spec.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {spec.bandwidth}")
        self.sim = sim
        self.spec = spec
        self._active: list[TransferHandle] = []
        self._last_update = sim.now
        self._next_completion: Event | None = None
        self.bytes_moved = 0.0
        self.transfers_completed = 0

    @property
    def active_count(self) -> int:
        return len(self._active)

    def transfer(
        self,
        nbytes: float,
        callback: Callable[[], None] | None = None,
        *,
        max_rate: float | None = None,
    ) -> TransferHandle:
        if max_rate is not None and max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {max_rate}")
        handle = TransferHandle(nbytes, callback, max_rate)
        handle.started_at = self.sim.now
        if nbytes <= 0:
            self.sim.schedule(self.spec.latency, self._finish_instant, handle)
            return handle
        self._drain_progress()
        lat_rate = min(max_rate or self.spec.bandwidth, self.spec.bandwidth)
        handle.remaining = nbytes + self.spec.latency * lat_rate
        self._active.append(handle)
        self._reallocate_and_schedule()
        return handle

    def _finish_instant(self, handle: TransferHandle) -> None:
        handle.done = True
        handle.finished_at = self.sim.now
        self.transfers_completed += 1
        if handle.callback is not None:
            handle.callback()

    def _waterfill(self) -> None:
        n = len(self._active)
        if n == 0:
            return
        bandwidth = self.spec.bandwidth
        share = bandwidth / n
        capped: list[TransferHandle] = []
        uncapped: list[TransferHandle] = []
        for handle in self._active:
            if handle.max_rate is not None and handle.max_rate < share:
                capped.append(handle)
            else:
                uncapped.append(handle)
        used = 0.0
        for handle in capped:
            handle.rate = handle.max_rate
            used += handle.rate
        if uncapped:
            fair = max(bandwidth - used, 0.0) / len(uncapped)
            for handle in uncapped:
                handle.rate = (
                    min(handle.max_rate, fair) if handle.max_rate is not None else fair
                )
        for handle in self._active:
            handle.rate = max(handle.rate, 1e-9)

    def _drain_progress(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for handle in self._active:
                moved = handle.rate * elapsed
                handle.remaining = max(handle.remaining - moved, 0.0)
                self.bytes_moved += moved
        self._last_update = now

    def _reallocate_and_schedule(self) -> None:
        if self._next_completion is not None:
            self._next_completion.cancel()
            self._next_completion = None
        if not self._active:
            return
        self._waterfill()
        soonest = min(self._active, key=lambda h: h.remaining / h.rate)
        delay = soonest.remaining / soonest.rate
        if math.isnan(delay) or math.isinf(delay):
            raise RuntimeError(f"invalid completion delay on {self.spec.name}")
        self._next_completion = self.sim.schedule(delay, self._complete, soonest)

    def _complete(self, handle: TransferHandle) -> None:
        self._drain_progress()
        if handle in self._active:
            self._active.remove(handle)
        handle.remaining = 0.0
        handle.done = True
        handle.finished_at = self.sim.now
        self.transfers_completed += 1
        self._reallocate_and_schedule()
        if handle.callback is not None:
            handle.callback()


def _script(seed: int):
    """Seeded joins: (start time, batch of (bytes, cap kind, cap factor)).

    Batches of identical transfers starting together produce equal
    ``remaining / rate`` ties; "equal" caps are resolved to exactly the
    equal share at join time."""
    rng = random.Random(seed)
    t = 0.0
    script = []
    for _ in range(rng.randint(5, 40)):
        t += rng.choice([0.0, 0.0, rng.expovariate(4.0)])
        size = rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(0.01, 3.0)]) * GB
        kind = rng.choice(["none", "below", "above", "equal"])
        factor = rng.choice([0.5, rng.uniform(0.01, 0.999), rng.uniform(1.001, 50.0)])
        copies = rng.choice([1, 1, 1, 2, 3])
        script.append((t, [(size, kind, factor)] * copies))
    return rng.uniform(0.5, 20.0) * GB, rng.choice([0.0, 0.0, 0.01]), script


def _drive(link_cls, bandwidth, latency, script):
    sim = Simulator()
    link = link_cls(sim, LinkSpec("oracle", bandwidth, latency))
    done: list[tuple[int, float]] = []
    ids = iter(range(10**6))

    def join(batch):
        for size, kind, factor in batch:
            share = bandwidth / (link.active_count + 1)
            cap = {
                "none": None,
                "below": share * min(factor, 0.999),
                "above": share * max(factor, 1.001),
                "equal": share,
            }[kind]
            tid = next(ids)
            link.transfer(
                size, lambda tid=tid: done.append((tid, sim.now)), max_rate=cap
            )

    for start, batch in script:
        sim.schedule_at(start, join, batch)
    sim.run()
    return done, link.bytes_moved, link.transfers_completed


@pytest.mark.parametrize("seed", range(60))
def test_fused_link_is_bit_identical_to_reference(seed):
    bandwidth, latency, script = _script(seed)
    expected = _drive(ReferenceFairShareLink, bandwidth, latency, script)
    got = _drive(FairShareLink, bandwidth, latency, script)
    assert got[0] == expected[0]  # completion order and times, exactly
    assert got[1] == expected[1]  # bytes moved, exactly
    assert got[2] == expected[2] == sum(len(batch) for _t, batch in script)


def test_script_covers_every_case():
    """The seeded scripts exercise each cap kind, ties and zero bytes."""
    kinds, zero, tied = set(), False, False
    for seed in range(60):
        _bw, _lat, script = _script(seed)
        for _t, batch in script:
            kinds.update(kind for _s, kind, _f in batch)
            zero |= any(size == 0 for size, _k, _f in batch)
            tied |= len(batch) > 1
    assert kinds == {"none", "below", "above", "equal"}
    assert zero and tied
