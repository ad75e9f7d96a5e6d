"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.delivery import UniformDelay
from repro.net.network import Envelope, Network
from repro.sim.engine import EventHandle, SimulationError, Simulator
from repro.sim.rand import RandomSource


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=42.5).now == 42.5

    def test_schedule_at_runs_at_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_schedule_in_relative(self):
        sim = Simulator(start_time=10.0)
        seen = []
        sim.schedule_in(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.5]

    def test_schedule_in_past_raises(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.9, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_in(-1.0, lambda: None)

    def test_zero_delay_ok(self):
        sim = Simulator()
        seen = []
        sim.schedule_in(0.0, lambda: seen.append(True))
        sim.run()
        assert seen == [True]

    def test_events_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(3.0, lambda: seen.append(3))
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.schedule_at(2.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1, 2, 3]

    def test_ties_broken_by_scheduling_order(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule_at(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(10))

    def test_event_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(depth: int) -> None:
            seen.append(depth)
            if depth < 5:
                sim.schedule_in(1.0, lambda: chain(depth + 1))

        sim.schedule_in(0.0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5.0


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule_at(1.0, lambda: seen.append(True))
        handle.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_one_of_many(self):
        sim = Simulator()
        seen = []
        keep = sim.schedule_at(1.0, lambda: seen.append("keep"))
        drop = sim.schedule_at(1.0, lambda: seen.append("drop"))
        drop.cancel()
        sim.run()
        assert seen == ["keep"]
        assert not keep.cancelled

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        handle = sim.schedule_at(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1


class TestRunControl:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.schedule_at(5.0, lambda: seen.append(5))
        sim.run_until(3.0)
        assert seen == [1]
        assert sim.now == 3.0

    def test_run_until_leaves_future_events_queued(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(5))
        sim.run_until(3.0)
        sim.run()
        assert seen == [5]

    def test_run_until_inclusive_of_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(3.0, lambda: seen.append(3))
        sim.run_until(3.0)
        assert seen == [3]

    def test_run_max_events(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule_at(float(i), lambda i=i: seen.append(i))
        executed = sim.run(max_events=4)
        assert executed == 4
        assert seen == [0, 1, 2, 3]

    def test_step_single_event(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.schedule_at(2.0, lambda: seen.append(2))
        assert sim.step() is True
        assert seen == [1]

    def test_step_empty_returns_false(self):
        assert Simulator().step() is False

    def test_stop_from_within_event(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule_at(2.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1]

    def test_not_reentrant(self):
        sim = Simulator()

        def recurse() -> None:
            sim.run()

        sim.schedule_at(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 7

    def test_run_until_advances_now_even_with_no_events(self):
        sim = Simulator()
        sim.run_until(9.0)
        assert sim.now == 9.0


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_execution_order_is_sorted_by_time(self, times):
        sim = Simulator()
        seen = []
        for t in times:
            sim.schedule_at(t, lambda t=t: seen.append(t))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(times)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_cancellation_subset(self, spec):
        sim = Simulator()
        seen = []
        expected = []
        for t, keep in spec:
            handle = sim.schedule_at(t, lambda t=t: seen.append(t))
            if keep:
                expected.append(t)
            else:
                handle.cancel()
        sim.run()
        assert sorted(seen) == sorted(expected)


class TestLiveEventAccounting:
    """pending_events is tracked incrementally -- exercise the bookkeeping."""

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        handle = sim.schedule_at(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_execution_is_harmless(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run_until(1.5)
        handle.cancel()  # already executed; must not disturb the count
        assert sim.pending_events == 1
        assert sim.run() == 1
        assert sim.pending_events == 0

    def test_count_tracks_mixed_schedule_cancel_run(self):
        sim = Simulator()
        handles = [sim.schedule_at(float(i), lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_events == 5
        executed = sim.run()
        assert executed == 5
        assert sim.pending_events == 0

    def test_cancel_heavy_queue_pending_is_cheap_and_exact(self):
        sim = Simulator()
        handles = [sim.schedule_at(float(i), lambda: None) for i in range(2000)]
        for handle in handles:
            if handle.time % 2 == 0:
                handle.cancel()
        # Repeated introspection used to be an O(queue) scan per call.
        for _ in range(100):
            assert sim.pending_events == 1000

    def test_step_updates_count(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.step()
        assert sim.pending_events == 1

    def test_rescheduling_inside_action_keeps_count(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 3:
                sim.schedule_in(1.0, tick)

        sim.schedule_in(1.0, tick)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]
        assert sim.pending_events == 0


class TestDeliveryEntries:
    """A queued message copy is one ``(time, seq, action, envelope)`` entry."""

    def build(self, receive):
        sim = Simulator()
        net = Network(sim, UniformDelay(0.1, 1.0), RandomSource(3))
        for node in range(4):
            net.register(node, receive)
        return sim, net

    def test_broadcast_queues_envelopes_keyed_by_their_delivery_time(self):
        sim, net = self.build(lambda env: None)
        sim.schedule_at(0.5, lambda: None)
        net.broadcast(0, "m")
        for entry in sim._queue:
            assert not any(isinstance(part, functools.partial) for part in entry)
        deliveries = [e for e in sim._queue if type(e[3]) is not EventHandle]
        assert len(deliveries) == 4
        for time, _seq, _action, envelope in deliveries:
            assert type(envelope) is Envelope
            assert envelope.delivered_at == time
            assert envelope.sender == 0 and envelope.payload == "m"
            assert envelope.sent_at == 0.0
        assert sorted(e[3].receiver for e in deliveries) == [0, 1, 2, 3]
        assert len({id(e[2]) for e in deliveries}) == 1  # one shared action

    def test_deliveries_and_timers_run_in_time_seq_order(self):
        order = []
        sim, net = self.build(lambda env: order.append(("copy", env.delivered_at)))
        net.broadcast(0, "m")
        times = sorted(e[0] for e in sim._queue)
        for t in (0.0, times[1], (times[1] + times[2]) / 2, times[-1], 2.0):
            sim.schedule_at(t, lambda t=t: order.append(("timer", t)))
        keys = sorted(e[:2] for e in sim._queue)
        assert sim.pending_events == 9
        assert sim.run() == 9
        assert [t for _kind, t in order] == [time for time, _seq in keys]
        # At equal times the copy, queued first, runs first.
        assert order.index(("copy", times[1])) < order.index(("timer", times[1]))
        assert sim.pending_events == 0

    def test_delivery_survives_the_put_back_in_run_until(self):
        got = []
        sim, net = self.build(got.append)
        net.broadcast(0, "m")
        times = sorted(e[0] for e in sim._queue)
        sim.run_until((times[1] + times[2]) / 2)
        assert [env.delivered_at for env in got] == times[:2]
        assert sim.pending_events == 2
        assert all(type(e[3]) is Envelope for e in sim._queue)
        sim.run()
        assert [env.delivered_at for env in got] == times
        assert sim.now == times[-1] and sim.pending_events == 0

    def test_fire_in_the_past_raises(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_fire(4.0, print, None)
