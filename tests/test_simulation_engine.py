"""Tests for the discrete-event engine, periodic processes, RNG streams."""

from __future__ import annotations

import itertools
import random

import pytest

# The seed engine (tests/_seed_engine.py): a heap of ``Event`` objects
# ordered by ``Event.__lt__``, no live counter, no compaction.  It is the
# reference the (time, seq) tuple heap must match event for event.
from _seed_engine import Simulator as SeedSimulator
from repro.scenarios.driver import ScenarioCase, ScenarioDriver
from repro.scenarios.library import get_scenario
from repro.simulation.engine import SimulationError, Simulator
from repro.simulation.processes import PeriodicProcess, VisitSet
from repro.simulation.randomness import RandomStreams


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self, sim):
        fired = []
        for tag in range(10):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_inf_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []

        def first():
            sim.schedule(1.0, fired.append, "second")

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["second"]
        assert sim.now == 2.0


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0  # clock advanced to the horizon

    def test_run_until_then_continue(self, sim):
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["late"]

    def test_max_events_limits_processing(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_halts_the_loop(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_reentrant_run_rejected(self, sim):
        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run()

    def test_run_until_idle_raises_on_runaway(self, sim):
        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_pending_count_skips_cancelled(self, sim):
        sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_count() == 1

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestLiveEventCounter:
    """The O(1) bookkeeping behind pending_count / run_until_idle."""

    def _brute_count(self, sim):
        # Heap entries are (time, seq, event) tuples.
        return sum(1 for _, _, e in sim._queue if not e.cancelled)

    def test_counter_tracks_schedule_fire_cancel(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_count() == 10
        events[3].cancel()
        events[7].cancel()
        assert sim.pending_count() == 8 == self._brute_count(sim)
        sim.run(until=5.0)
        assert sim.pending_count() == self._brute_count(sim)
        sim.run()
        assert sim.pending_count() == 0

    def test_cancel_after_fire_does_not_corrupt_counter(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        event.cancel()  # already fired: must be a no-op on the counter
        event.cancel()
        assert sim.pending_count() == 1

    def test_cancel_heavy_workload_compacts_the_heap(self, sim):
        keepers = []
        for i in range(500):
            event = sim.schedule(float(i + 1), lambda: None)
            if i % 10 == 0:
                keepers.append(event)
            else:
                event.cancel()
        # Far more cancellations than live events: the heap must have been
        # rebuilt rather than carrying ~450 dead entries to their deadline.
        assert len(sim._queue) < 200
        assert sim.pending_count() == len(keepers)
        fired = []
        sim.schedule(1000.0, lambda: fired.append("sentinel"))
        sim.run()
        assert fired == ["sentinel"]
        assert sim.events_processed == len(keepers) + 1

    def test_order_preserved_across_compaction(self, sim):
        fired = []
        doomed = []
        for i in range(300):
            if i % 3 == 0:
                sim.schedule(float(i), fired.append, i)
            else:
                doomed.append(sim.schedule(float(i), lambda: None))
        for event in doomed:
            event.cancel()
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == 100

    def test_run_until_idle_uses_live_counter(self, sim):
        for i in range(50):
            sim.schedule(float(i + 1), lambda: None).cancel()
        sim.schedule(0.5, lambda: None)
        sim.run_until_idle()  # must not raise: only one live event existed
        assert sim.pending_count() == 0


# A small set of delays, so equal timestamps (FIFO ties) are common.
_DELAYS = (0.0, 0.5, 1.0, 1.0, 1.5, 2.0)


class _Program:
    """One engine under a random program; records every firing.

    What a firing does depends only on its tag, so two engines that fire
    the same tags in the same order take the same actions."""

    def __init__(self, sim):
        self.sim = sim
        self.fired: list[tuple[int, float]] = []
        self.handles = []
        self._tags = itertools.count()

    def add(self, delay: float, absolute: bool = False) -> None:
        tag = next(self._tags)
        if absolute:
            handle = self.sim.schedule_at(self.sim.now + delay, self.fire, tag)
        else:
            handle = self.sim.schedule(delay, self.fire, tag)
        self.handles.append(handle)

    def fire(self, tag: int) -> None:
        self.fired.append((tag, self.sim.now))
        rng = random.Random(tag)
        roll = rng.random()
        if roll < 0.3:
            self.add(rng.choice(_DELAYS), absolute=rng.random() < 0.5)
        elif roll < 0.4:
            # Any handle: pending, already fired, or this very event.
            self.handles[rng.randrange(len(self.handles))].cancel()
        elif roll < 0.43:
            self.sim.stop()


class TestDifferentialAgainstReference:
    """The tuple-keyed heap against the seed engine's heap of Event
    objects, stepped in lockstep through the same seeded program."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_fire_order_and_counters(self, seed):
        new, ref = _Program(Simulator()), _Program(SeedSimulator())
        rng = random.Random(seed)
        compacted = False
        for _ in range(300):
            op = rng.random()
            if op < 0.3:
                delay, absolute = rng.choice(_DELAYS), rng.random() < 0.5
                for program in (new, ref):
                    program.add(delay, absolute)
            elif op < 0.4:
                # A cancel-heavy burst: enough dead entries to compact.
                first = len(new.handles)
                delays = [rng.choice(_DELAYS) + rng.random() for _ in range(150)]
                doomed = [i for i in range(150) if rng.random() < 0.9]
                for program in (new, ref):
                    for delay in delays:
                        program.add(delay)
                    for i in doomed:
                        program.handles[first + i].cancel()
            elif op < 0.55:
                i = rng.randrange(len(new.handles)) if new.handles else None
                for program in (new, ref):
                    if i is not None:
                        program.handles[i].cancel()
            elif op < 0.75:
                until = new.sim.now + rng.choice(_DELAYS) * 3
                before = new.sim.events_processed
                assert new.sim.run(until=until) == new.sim.events_processed - before
                ref.sim.run(until=until)
            elif op < 0.9:
                budget = rng.randint(1, 20)
                new.sim.run(max_events=budget)
                ref.sim.run(max_events=budget)
            else:
                new.sim.run()
                ref.sim.run()
            compacted |= len(new.sim._queue) < len(ref.sim._queue)
            assert new.fired == ref.fired
            assert new.sim.now == ref.sim.now
            assert new.sim.events_processed == ref.sim.events_processed
            assert new.sim.pending_count() == ref.sim.pending_count()
            # Both O(1) counters agree with a scan of the heap entries.
            dead = sum(1 for _, _, e in new.sim._queue if e.cancelled)
            assert (new.sim._live, new.sim._dead) == (len(new.sim._queue) - dead, dead)
        assert compacted, "the program never triggered a heap compaction"
        assert len(new.fired) > 300

    def test_events_processed_exact_when_a_callback_raises(self, sim):
        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, boom)
        sim.schedule(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.events_processed == 1  # the raising event did not finish
        assert sim.pending_count() == 1
        sim.run()
        assert sim.events_processed == 2


class TestScheduleSeam:
    """Every event enters the heap through ``Simulator.schedule_at``:
    tests audit the program after each event by wrapping that one seam
    (see ``test_queue_ledger``), so no entry point may bypass it."""

    def test_schedule_at_sees_every_scheduled_event(self, monkeypatch):
        calls = [0]
        original = Simulator.schedule_at

        def counting(sim, time, callback, *args):
            calls[0] += 1
            return original(sim, time, callback, *args)

        monkeypatch.setattr(Simulator, "schedule_at", counting)
        case = ScenarioCase(get_scenario("reclamation-storm").quick(), "FlexPipe", 0)
        driver = ScenarioDriver(case)
        driver.start()
        report = driver.finish()
        # One sequence number per heap entry; each came through the seam.
        assert calls[0] == driver.sim._seq
        assert calls[0] >= report.engine_events > 0
        assert report.completed > 0


class TestPeriodicProcess:
    def test_fires_every_interval(self, sim):
        ticks = []
        PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_start_delay_zero_fires_immediately(self, sim):
        ticks = []
        PeriodicProcess(sim, 2.0, lambda: ticks.append(sim.now), start_delay=0.0)
        sim.run(until=4.5)
        assert ticks == [0.0, 2.0, 4.0]

    def test_stop_halts_future_ticks(self, sim):
        ticks = []
        proc = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, proc.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not proc.running

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicProcess(sim, 0.0, lambda: None)


class TestVisitSet:
    """A pass visits ranks in order; one added during the pass joins it
    only while still ahead of the member being visited."""

    def test_additions_ahead_join_the_pass_and_behind_wait(self):
        due = VisitSet([1, 5])
        seen = []
        for rank in due.visit():
            seen.append(rank)
            if rank == 1:
                due.add(3)  # ahead: this pass
                due.add(0)  # behind: the next pass
        assert seen == [1, 3, 5]
        assert list(due.visit()) == [0, 1, 3, 5]

    def test_discards_ahead_are_skipped_and_readds_visited_once(self):
        due = VisitSet([0, 1, 2])
        seen = []
        for rank in due.visit():
            seen.append(rank)
            if rank == 0:
                due.discard(2)
                due.discard(1)
                due.add(1)
        assert seen == [0, 1]


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).stream("arrivals")
        b = RandomStreams(7).stream("arrivals")
        assert a.random(5).tolist() == b.random(5).tolist()

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        a = streams.stream("arrivals").random(5)
        b = streams.stream("requests").random(5)
        assert a.tolist() != b.tolist()

    def test_order_of_first_use_does_not_matter(self):
        s1 = RandomStreams(3)
        s1.stream("x")
        x_then_y = s1.stream("y").random(3).tolist()
        s2 = RandomStreams(3)
        y_only = s2.stream("y").random(3).tolist()
        assert x_then_y == y_only

    def test_attribute_access_is_stream(self):
        streams = RandomStreams(1)
        assert streams.arrivals is streams.stream("arrivals")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(-1)

    def test_stream_is_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("a") is streams.stream("a")
