"""The lazy fair-share link against the eager two-list link.

``FairShareLink`` keeps the two-pass rate rule lazily: sorted caps with
bisected class boundaries, a fixed-finish heap for own-paced streams and a
virtual clock for the fair-paced ones.  ``ReferenceFairShareLink`` below is
the eager two-list class verbatim: every start or finish re-partitions
capped/uncapped streams, drains every stream's progress and takes a
``min(key=...)`` argmin.  Both are driven through the same seeded
join/leave sequences — caps that are absent, below the equal share, above
it or exactly equal to it, equal ``remaining / rate`` ties and zero-byte
transfers.  Rounding differs, so the contract is 1e-9: completion times
and bytes moved within ``1e-9 × max(1, reference)``, completion counts
equal, and the completion order equal except among completions within
1e-9 of each other.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import pytest

from repro.simulation.engine import Event, Simulator
from repro.transfer.links import GB, FairShareLink, LinkSpec


class TransferHandle:
    """The eager link's handle: ``remaining`` and ``rate`` are plain
    attributes the reference link drains and assigns."""

    __slots__ = (
        "nbytes",
        "remaining",
        "callback",
        "max_rate",
        "rate",
        "done",
        "started_at",
        "finished_at",
    )

    def __init__(
        self,
        nbytes: float,
        callback: Callable[[], None] | None,
        max_rate: float | None,
    ):
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.callback = callback
        self.max_rate = max_rate
        self.rate = 0.0
        self.done = False
        self.started_at: float | None = None
        self.finished_at: float | None = None


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


def _many_stream_script(seed: int, streams: int = 600):
    """Hundreds of concurrent streams whose caps straddle the equal share:
    joins arrive much faster than transfers finish, so ``n`` climbs to
    several hundred and then drains, dragging both class boundaries (the
    capped prefix ``cap < B/n`` and the own-paced prefix ``cap <= fair``)
    across many in-flight streams in each direction."""
    rng = random.Random(10_000 + seed)
    t = 0.0
    script = []
    joined = 0
    while joined < streams:
        t += rng.expovariate(150.0)
        size = rng.uniform(0.02, 1.5) * GB
        kind = rng.choice(["none", "below", "above", "above", "equal"])
        factor = rng.choice([rng.uniform(0.3, 0.999), rng.uniform(1.001, 6.0)])
        copies = rng.choice([1, 1, 2, 3])
        script.append((t, [(size, kind, factor)] * copies))
        joined += copies
    return rng.uniform(2.0, 40.0) * GB, rng.choice([0.0, 0.01]), script


def _drive(link_cls, bandwidth, latency, script, on_event=None):
    """Run ``script`` on a fresh ``link_cls``; ``on_event(link)`` (if
    given) runs after every join batch and inside every completion."""
    sim = Simulator()
    link = link_cls(sim, LinkSpec("oracle", bandwidth, latency))
    done: list[tuple[int, float]] = []
    ids = iter(range(10**6))

    def finished(tid):
        done.append((tid, sim.now))
        if on_event is not None:
            on_event(link)

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
            link.transfer(size, lambda tid=tid: finished(tid), max_rate=cap)
        if on_event is not None:
            on_event(link)

    for start, batch in script:
        sim.schedule_at(start, join, batch)
    sim.run()
    return done, link.bytes_moved, link.transfers_completed


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def assert_runs_agree(got, expected) -> None:
    """The 1e-9 link contract between a lazy run and a reference run."""
    got_done, got_bytes, got_count = got
    ref_done, ref_bytes, ref_count = expected
    assert got_count == ref_count
    assert len(got_done) == len(ref_done) == got_count
    ref_at = dict(ref_done)
    got_at = dict(got_done)
    assert got_at.keys() == ref_at.keys()
    for tid, at in ref_at.items():
        assert _close(got_at[tid], at), (tid, got_at[tid], at)
    assert _close(got_bytes, ref_bytes), (got_bytes, ref_bytes)
    # Completion order: any pair the two runs order differently must have
    # finished within 1e-9 of each other in the reference.
    ref_rank = {tid: i for i, (tid, _t) in enumerate(ref_done)}
    ranks = [ref_rank[tid] for tid, _t in got_done]
    for i, a in enumerate(ranks):
        for b in ranks[i + 1 :]:
            if b < a:
                ta, tb = ref_done[a][1], ref_done[b][1]
                assert _close(ta, tb), (ref_done[a], ref_done[b])


@pytest.mark.parametrize("seed", range(60))
def test_fused_link_is_bit_identical_to_reference(seed):
    """Kept name: the contract is now 1e-9, not bit identity (see module
    docstring)."""
    bandwidth, latency, script = _script(seed)
    expected = _drive(ReferenceFairShareLink, bandwidth, latency, script)
    got = _drive(FairShareLink, bandwidth, latency, script)
    assert_runs_agree(got, expected)
    assert got[2] == sum(len(batch) for _t, batch in script)


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


@pytest.mark.parametrize("seed", range(3))
def test_many_streams_move_both_boundaries(seed):
    """>= 500 streams: the lazy link moves streams across both class
    boundaries, in both directions, and still meets the 1e-9 contract."""
    bandwidth, latency, script = _many_stream_script(seed)
    moves: dict[tuple[str, str], int] = {}
    last: dict[int, str] = {}
    peak = [0]

    def observe(link):
        peak[0] = max(peak[0], link.active_count)
        for handle in link.in_flight():
            kind = link.stream_class(handle)
            before = last.get(id(handle))
            if before is not None and before != kind:
                moves[before, kind] = moves.get((before, kind), 0) + 1
            last[id(handle)] = kind

    got = _drive(FairShareLink, bandwidth, latency, script, observe)
    expected = _drive(ReferenceFairShareLink, bandwidth, latency, script)
    assert_runs_agree(got, expected)
    assert got[2] >= 500 and peak[0] >= 300
    for pair in [
        ("capped", "own"),
        ("own", "capped"),
        ("own", "fair"),
        ("fair", "own"),
    ]:
        assert moves.get(pair, 0) > 0, (pair, moves)


def test_all_capped_flip_and_back():
    """Every stream capped below B/n runs at its cap; an uncapped joiner
    flips the link to the fair group and its finish flips it back."""
    sim = Simulator()
    link = FairShareLink(sim, LinkSpec("flip", 10.0 * GB))
    ref_sim = Simulator()
    ref = ReferenceFairShareLink(ref_sim, LinkSpec("flip", 10.0 * GB))
    done, ref_done = [], []
    for i in range(4):
        link.transfer(4.0 * GB, lambda i=i: done.append((i, sim.now)), max_rate=GB)
        ref.transfer(
            4.0 * GB, lambda i=i: ref_done.append((i, ref_sim.now)), max_rate=GB
        )
    handles = link.in_flight()
    assert [link.stream_class(h) for h in handles] == ["capped"] * 4
    assert [h.rate for h in handles] == [GB] * 4
    seen = {}

    def join_open(target, sim_, out):
        target.transfer(3.0 * GB, lambda: out.append((4, sim_.now)))

    def probe():
        seen["flipped"] = [link.stream_class(h) for h in link.in_flight()]
        seen["open_rate"] = link.in_flight()[-1].rate

    sim.schedule_at(0.5, join_open, link, sim, done)
    ref_sim.schedule_at(0.5, join_open, ref, ref_sim, ref_done)
    sim.schedule_at(0.75, probe)
    sim.schedule_at(1.5, lambda: seen.setdefault(
        "back", [link.stream_class(h) for h in link.in_flight()]
    ))
    sim.run()
    ref_sim.run()
    # n = 5: share 2 GB/s, the four 1 GB/s caps stay capped, fair = 6 GB/s.
    assert seen["flipped"] == ["capped"] * 4 + ["fair"]
    assert seen["open_rate"] == 6.0 * GB
    assert seen["back"] == ["capped"] * 4
    assert_runs_agree(
        (done, link.bytes_moved, link.transfers_completed),
        (ref_done, ref.bytes_moved, ref.transfers_completed),
    )


def test_cap_exactly_at_the_equal_share_is_not_capped():
    """``cap == B/n`` is not below the equal share: the stream is own-paced
    at its cap (which here equals ``fair``), not capped."""
    sim = Simulator()
    link = FairShareLink(sim, LinkSpec("edge", 12.0 * GB))
    handles = [link.transfer(GB) for _ in range(3)]
    handles.append(link.transfer(GB, max_rate=3.0 * GB))  # B/n with n = 4
    assert [link.stream_class(h) for h in handles] == ["fair"] * 3 + ["own"]
    assert [h.rate for h in handles] == [3.0 * GB] * 4


def test_cap_exactly_at_fair_runs_own_paced():
    """``cap == fair`` takes the cap branch of ``min(cap, fair)``."""
    sim = Simulator()
    link = FairShareLink(sim, LinkSpec("edge", 10.0 * GB))
    capped = link.transfer(GB, max_rate=1.0 * GB)  # below B/3
    at_fair = link.transfer(GB, max_rate=4.5 * GB)  # (10 - 1) / 2
    open_ = link.transfer(GB)
    assert [link.stream_class(h) for h in (capped, at_fair, open_)] == [
        "capped",
        "own",
        "fair",
    ]
    assert [h.rate for h in (capped, at_fair, open_)] == [GB, 4.5 * GB, 4.5 * GB]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_reads_never_change_the_outcome(seed):
    """Reading every in-flight rate and remaining, and ``estimate_time``,
    at every event leaves completion times ``==`` to a run that never
    reads."""
    if seed < 3:
        bandwidth, latency, script = _script(seed)
    else:
        bandwidth, latency, script = _many_stream_script(seed, streams=500)

    def read_everything(link):
        for handle in link.in_flight():
            assert handle.rate > 0 and handle.remaining >= 0
        link.estimate_time(GB)
        link.estimate_time(GB, max_rate=0.5 * GB)

    quiet = _drive(FairShareLink, bandwidth, latency, script)
    noisy = _drive(FairShareLink, bandwidth, latency, script, read_everything)
    assert noisy == quiet


@pytest.mark.parametrize("own_first", [True, False])
def test_exact_ties_finish_in_join_order(own_first):
    """Equal finish times go to the earlier join, across the own-paced and
    fair-paced groups and within each (the join-ordered scan's
    first-minimum rule)."""
    sim = Simulator()
    link = FairShareLink(sim, LinkSpec("ties", 4.0 * GB))
    done = []

    def start(tag, cap):
        return link.transfer(GB, lambda: done.append((tag, sim.now)), max_rate=cap)

    # cap == B/n == fair: own-paced at 2 GB/s, level with the open stream.
    order = [("own", 2.0 * GB), ("fair", None)] if own_first else [
        ("fair", None),
        ("own", 2.0 * GB),
    ]
    handles = {tag: start(tag, cap) for tag, cap in order}
    assert {tag: link.stream_class(h) for tag, h in handles.items()} == {
        "own": "own",
        "fair": "fair",
    }
    sim.run()
    assert [tag for tag, _t in done] == [tag for tag, _c in order]
    assert done[0][1] == done[1][1] == 0.5
    # Within one group: identical joiners finish in join order.
    for tag in ("a", "b", "c"):
        start(tag, None)
    for tag in ("x", "y"):
        start(tag, 0.5 * GB)
    sim.run()
    assert [tag for tag, _t in done[2:]] == ["a", "b", "c", "x", "y"]
