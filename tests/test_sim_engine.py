"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.delivery import DeliveryDecision, UniformDelay
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


class _ScriptedDelay:
    """Delay by receiver from a fixed table: the drawn instants are known."""

    def __init__(self, delays):
        self.delays = delays

    def decide(self, sender, receiver, payload, rng):
        return DeliveryDecision(self.delays[receiver])

    def min_delay(self):
        return min(self.delays.values())


class TestDeliveryEntries:
    """A send is one heap entry: a run of its copies in ``(time, seq)`` order."""

    # Receivers 1 and 2 tie at 0.3: within a run, seq (send order) decides.
    DELAYS = {0: 0.7, 1: 0.3, 2: 0.3, 3: 0.9}

    def build(self, receive, policy=None):
        sim = Simulator()
        net = Network(sim, policy or _ScriptedDelay(self.DELAYS), RandomSource(3))
        for node in range(4):
            net.register(node, receive)
        return sim, net

    def test_broadcast_queues_one_run_entry(self):
        sim, net = self.build(lambda env: None, UniformDelay(0.1, 1.0))
        sim.schedule_at(0.5, lambda: None)
        net.broadcast(0, "m")
        assert len(sim._queue) == 2 and sim.pending_events == 5
        net.send(1, 2, "x")  # a lone send is a run of one
        assert len(sim._queue) == 3 and sim.pending_events == 6
        for entry in sim._queue:
            assert not any(isinstance(part, functools.partial) for part in entry)
            assert not any(type(part) is Envelope for part in entry)
        runs = [e for e in sim._queue if type(e[3]) is not EventHandle]
        assert len(runs) == 2
        assert len({id(e[2]) for e in runs}) == 1  # one shared action
        assert sim.run() == 6 and sim.pending_events == 0 and not sim._queue

    def test_deliveries_and_timers_run_in_time_seq_order(self):
        order = []
        sim, net = self.build(lambda env: order.append(("copy", env.receiver)))
        sim.schedule_at(0.3, lambda: order.append(("timer", "before")))
        net.broadcast(0, "m")
        for t in (0.0, 0.3, 0.5, 0.7, 2.0):
            sim.schedule_at(t, lambda t=t: order.append(("timer", t)))
        assert len(sim._queue) == 7 and sim.pending_events == 10
        times = []
        while sim.step():
            times.append(sim.now)
        assert times == sorted(times) and len(times) == 10
        # Equal instants run in scheduling order: the timer queued before
        # the wave, then copies 1 and 2 in send order, then the later timer.
        assert order == [
            ("timer", 0.0),
            ("timer", "before"),
            ("copy", 1),
            ("copy", 2),
            ("timer", 0.3),
            ("timer", 0.5),
            ("copy", 0),
            ("timer", 0.7),
            ("copy", 3),
            ("timer", 2.0),
        ]
        assert sim.pending_events == 0 and sim.events_executed == 10

    def test_delivery_survives_the_put_back_in_run_until(self):
        got = []
        sim, net = self.build(got.append)
        sim.run_until(0.25)
        net.broadcast(2, "m")
        sim.run_until(0.25 + 0.3)  # inclusive: both tied copies run
        assert [env.receiver for env in got] == [1, 2]
        assert sim.pending_events == 2 and len(sim._queue) == 1
        assert sim.now == 0.55
        sim.run_until(0.9)  # the head copy (0.95) is looked at and kept
        assert len(got) == 2 and sim.pending_events == 2 and sim.now == 0.9
        sim.run()
        assert [env.receiver for env in got] == [1, 2, 0, 3]
        for env in got:
            assert type(env) is Envelope
            assert env.sender == 2 and env.payload == "m" and env.sent_at == 0.25
            # The envelope carries the very instant drawn at send.
            assert env.delivered_at == 0.25 + self.DELAYS[env.receiver]
        assert sim.now == got[-1].delivered_at and sim.pending_events == 0

    def test_fire_in_the_past_raises(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_run([6.0, 4.0], print, None)
        assert sim.pending_events == 0 and not sim._queue


class _PerCopyNetwork(Network):
    """The oracle: each copy its own queue entry, its envelope built at send."""

    def _queue_copies(self, sender, receivers, payload, sent_at, times):
        for receiver, at in zip(receivers, times):
            envelope = Envelope(sender, receiver, payload, sent_at, at)
            self._sim.schedule_at(at, functools.partial(self._deliver_now, envelope))


class _CoarseLossy:
    """Drops one copy in five; delays on a coarse grid, so instants tie."""

    def decide(self, sender, receiver, payload, rng):
        if rng.uniform(0.0, 1.0) < 0.2:
            return DeliveryDecision.dropped()
        return DeliveryDecision(rng.choice([0.25, 0.5, 0.5, 1.0, 1.5]))

    def min_delay(self):
        return 0.25


class _World:
    """One kernel and fabric, logging every delivery and timer it runs."""

    def __init__(self, net_cls, seed):
        self.sim = Simulator()
        self.net = net_cls(self.sim, _CoarseLossy(), RandomSource(seed))
        self.log = []
        for node in range(5):
            self.net.register(node, self.receive)

    def receive(self, env):
        self.log.append((env.delivered_at, env.sender, env.receiver, env.payload))
        tag, hops = env.payload
        if hops and env.receiver % 2:  # odd receivers relay, fanning out
            self.net.broadcast(env.receiver, (tag, hops - 1))

    def timer(self, tag):
        self.log.append((self.sim.now, None, None, tag))


@pytest.mark.parametrize("seed", range(12))
def test_runs_match_the_per_copy_oracle(seed):
    """Runs on the serial kernel are bit-identical to per-copy entries.

    Both fabrics make the same draws; only how copies are queued differs.
    After every step the delivered ``(delivered_at, sender, receiver,
    payload)`` sequence, ``pending_events`` and ``events_executed`` agree.
    """
    rng = random.Random(seed)
    worlds = [_World(Network, seed), _World(_PerCopyNetwork, seed)]
    for step in range(200):
        roll = rng.random()
        sender, receiver = rng.randrange(5), rng.randrange(5)
        if roll < 0.25:
            payload = (f"b{step}", rng.choice([0, 0, 1]))
            for w in worlds:
                w.net.broadcast(sender, payload)
        elif roll < 0.4:
            for w in worlds:
                w.net.send(sender, receiver, (f"s{step}", 0))
        elif roll < 0.47:
            for w in worlds:
                w.net.partition(sender)
        elif roll < 0.55:
            for w in worlds:
                w.net.heal(sender)
        elif roll < 0.7:
            # On the delay grid, so timers tie with copies and each other.
            delay = rng.choice([0.0, 0.25, 0.5, 1.0])
            for w in worlds:
                w.sim.schedule_at(
                    w.sim.now + delay, functools.partial(w.timer, f"t{step}")
                )
        elif roll < 0.85:
            # Often exactly on an instant, so the inclusive bound and the
            # put-back of the first entry beyond it both run.
            span = rng.choice([0.0, 0.25, 0.3, 0.5, 1.0])
            for w in worlds:
                w.sim.run_until(w.sim.now + span)
        elif roll < 0.95:
            budget = rng.randrange(4)
            for w in worlds:
                w.sim.run(max_events=budget)
        else:
            for w in worlds:
                w.sim.step()
        run, oracle = worlds
        assert run.log == oracle.log, f"step {step}"
        assert run.sim.pending_events == oracle.sim.pending_events
        assert run.sim.events_executed == oracle.sim.events_executed
        assert run.sim.now == oracle.sim.now
    for w in worlds:
        w.sim.run()
    run, oracle = worlds
    assert run.log == oracle.log and len(run.log) > 50
    assert run.sim.events_executed == oracle.sim.events_executed
    assert (run.net.delivered_count, run.net.dropped_count) == (
        oracle.net.delivered_count,
        oracle.net.dropped_count,
    )


class TestMemoryGuard:
    """The in-flight copies, the logged records and the watches stay lean
    at n = 25."""

    # tracemalloc peak of the run below, measured when the message log's
    # records and the runs' delivery instants became typed arrays: 5.29 MB
    # on CPython 3.11.7 (x86_64).  With a boxed float per logged arrival
    # and per copy in flight it was 8.69 MB; with one heap entry and one
    # envelope per copy and a set per watch, 13.2 MB.
    MEASURED_PEAK_MB = 5.29

    def test_one_n25_agreement_peak(self):
        import gc
        import tracemalloc

        from repro.core.params import ProtocolParams
        from repro.harness.scenario import Cluster, ScenarioConfig

        params = ProtocolParams(n=25, f=8, delta=1.0, rho=0.0)
        gc.collect()
        tracemalloc.start()
        try:
            cluster = Cluster(ScenarioConfig(params=params, seed=0, trace=False))
            assert cluster.propose(general=0, value="v")
            cluster.run_for(params.delta_agr + 10 * params.d)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cluster.latest_decision_per_node(0)) == 25
        assert peak <= 1.25 * self.MEASURED_PEAK_MB * 1e6, f"{peak / 1e6:.2f} MB"
