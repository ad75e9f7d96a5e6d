"""Unit tests for the node framework and the message log."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.delivery import FixedDelay
from repro.net.network import Envelope, Network
from repro.node.base import Node
from repro.node.msglog import MessageLog
from repro.runtime.sim_host import NodeContext
from repro.sim.clock import ClockConfig
from repro.sim.engine import Simulator
from repro.sim.rand import RandomSource
from repro.sim.trace import Tracer


class EchoNode(Node):
    """Test node that records everything it receives."""

    def __init__(self, node_id, ctx):
        super().__init__(node_id, ctx)
        self.received: list[Envelope] = []

    def on_message(self, envelope: Envelope) -> None:
        self.received.append(envelope)


def build_pair(clock_config=ClockConfig()):
    sim = Simulator()
    net = Network(sim, FixedDelay(1.0), RandomSource(3), Tracer())
    ctx = NodeContext(sim=sim, net=net, tracer=Tracer(), clock_config=clock_config)
    a = EchoNode(0, ctx)
    b = EchoNode(1, ctx)
    return sim, a, b


class TestNodeMessaging:
    def test_send_and_receive(self):
        sim, a, b = build_pair()
        a.send(1, "hi")
        sim.run()
        assert b.received[0].payload == "hi"

    def test_broadcast_includes_self(self):
        sim, a, b = build_pair()
        a.broadcast("x")
        sim.run()
        assert len(a.received) == 1
        assert len(b.received) == 1

    def test_crashed_node_sends_nothing(self):
        sim, a, b = build_pair()
        a.crash()
        a.send(1, "nope")
        sim.run()
        assert b.received == []

    def test_crashed_node_receives_nothing(self):
        sim, a, b = build_pair()
        b.crash()
        a.send(1, "nope")
        sim.run()
        assert b.received == []

    def test_resume_keeps_state(self):
        sim, a, b = build_pair()
        b.crash()
        b.resume()
        a.send(1, "yes")
        sim.run()
        assert len(b.received) == 1


class TestNodeTimers:
    def test_after_local_with_drift(self):
        """A local delay of 10 on a 2x clock is 5 real-time units."""
        sim, a, _b = build_pair(ClockConfig(rate=2.0))
        fired = []
        a.after_local(10.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(5.0)]

    def test_every_local_repeats(self):
        sim, a, _b = build_pair()
        fired = []
        a.every_local(1.0, lambda: fired.append(sim.now))
        sim.run_until(5.5)
        assert len(fired) == 5

    def test_every_local_rearms_after_its_action(self):
        """The next tick is queued after what the tick itself scheduled, as a
        self-re-arming chain's is: same-instant events keep their order."""
        sim, a, _b = build_pair()
        order = []

        def action():
            order.append(("tick", sim.now))
            a.after_local(1.0, lambda: order.append(("after", sim.now)))

        a.every_local(1.0, action)
        sim.run_until(2.5)
        assert order == [("tick", 1.0), ("after", 2.0), ("tick", 2.0)]
        assert a.live_timer_count() == 2  # the next tick and one follow-up

    def test_every_local_rejects_nonpositive(self):
        _sim, a, _b = build_pair()
        with pytest.raises(ValueError):
            a.every_local(0.0, lambda: None)

    def test_every_local_chain_dies_when_crashed_at_tick(self):
        sim, a, _b = build_pair()
        fired = []
        a.every_local(1.0, lambda: fired.append(sim.now))
        sim.run_until(1.5)
        a.crash()
        sim.run_until(2.5)  # the t=2 tick comes due while crashed
        assert fired == [1.0]
        assert a.live_timer_count() == 0, "a crashed tick must not re-arm"

    def test_resume_alone_does_not_revive_a_dead_chain(self):
        sim, a, _b = build_pair()
        fired = []
        a.every_local(1.0, lambda: fired.append(sim.now))
        sim.run_until(1.5)
        a.crash()
        sim.run_until(2.5)
        a.resume()
        sim.run_until(6.5)
        assert fired == [1.0]
        assert a.live_timer_count() == 0

    def test_crash_then_restart_in_process_leaves_one_chain(self):
        from repro.core.params import ProtocolParams
        from repro.faults.transient import crash_in_process, restart_in_process
        from repro.harness.scenario import Cluster, ScenarioConfig

        params = ProtocolParams(n=4, f=1, delta=1.0, rho=0.0)
        cluster = Cluster(ScenarioConfig(params=params, seed=3))
        node = cluster.nodes[1]
        ticks = []
        cleanup_tick = node._cleanup_tick
        # The restart re-arms the chain with whatever ``_cleanup_tick`` is
        # then: count its firings through an instance-level stand-in.
        node._cleanup_tick = lambda: (ticks.append(cluster.sim.now), cleanup_tick())
        cluster.run_for(2.5 * params.d)
        crash_in_process(node, state_loss=False)
        assert node.live_timer_count() == 0
        restart_in_process(node)
        assert node.live_timer_count() == 1
        start = cluster.sim.now
        cluster.run_for(5.5 * params.d)
        assert node.live_timer_count() == 1, "a second chain survived the restart"
        assert len(ticks) == 5, "one tick per period, no double chain"
        gaps = [b - a for a, b in zip([start] + ticks, ticks)]
        assert gaps == pytest.approx([params.d] * 5)

    def test_cancel_timers(self):
        sim, a, _b = build_pair()
        fired = []
        a.after_local(1.0, lambda: fired.append(1))
        a.cancel_timers()
        sim.run()
        assert fired == []

    def test_crash_suppresses_timer_actions(self):
        sim, a, _b = build_pair()
        fired = []
        a.after_local(1.0, lambda: fired.append(1))
        a.crash()
        sim.run()
        assert fired == []

    def test_local_now_uses_offset(self):
        _sim, a, _b = build_pair(ClockConfig(offset=500.0))
        assert a.local_now() == pytest.approx(500.0)


class TestMessageLog:
    def test_add_and_count(self):
        log = MessageLog()
        log.add("k", 1, 10.0)
        log.add("k", 2, 11.0)
        log.add("k", 2, 12.0)  # same sender twice
        assert log.count_distinct("k") == 2
        assert log.senders("k") == {1, 2}

    def test_window_query(self):
        log = MessageLog()
        log.add("k", 1, 10.0)
        log.add("k", 2, 15.0)
        log.add("k", 3, 20.0)
        assert log.count_distinct_in("k", 14.0, 21.0) == 2
        assert log.distinct_senders_in("k", 14.0, 21.0) == {2, 3}
        assert log.count_distinct_in("k", 0.0, 9.0) == 0

    def test_window_is_closed_interval(self):
        log = MessageLog()
        log.add("k", 1, 10.0)
        assert log.count_distinct_in("k", 10.0, 10.0) == 1

    def test_kth_latest_distinct(self):
        log = MessageLog()
        log.add("k", 1, 10.0)
        log.add("k", 2, 12.0)
        log.add("k", 3, 14.0)
        # Latest per sender: {1: 10, 2: 12, 3: 14}; 2nd latest is 12.
        assert log.kth_latest_distinct("k", 2) == 12.0
        assert log.kth_latest_distinct("k", 3) == 10.0
        assert log.kth_latest_distinct("k", 4) is None

    def test_kth_latest_uses_latest_per_sender(self):
        log = MessageLog()
        log.add("k", 1, 5.0)
        log.add("k", 1, 20.0)  # sender 1 re-sends later
        log.add("k", 2, 10.0)
        assert log.kth_latest_distinct("k", 2) == 10.0

    def test_earliest_arrival(self):
        log = MessageLog()
        assert log.earliest_arrival("k") is None
        log.add("k", 5, 9.0)
        log.add("k", 6, 3.0)
        assert log.earliest_arrival("k") == 3.0

    def test_has_from(self):
        log = MessageLog()
        log.add("k", 1, 0.0)
        assert log.has_from("k", 1)
        assert not log.has_from("k", 2)
        assert not log.has_from("other", 1)

    def test_prune_older_than(self):
        log = MessageLog()
        log.add("k", 1, 10.0)
        log.add("k", 2, 20.0)
        dropped = log.prune_older_than(15.0)
        assert dropped == 1
        assert log.senders("k") == {2}

    def test_prune_removes_empty_keys(self):
        log = MessageLog()
        log.add("k", 1, 10.0)
        log.prune_older_than(100.0)
        assert log.keys == []

    def test_prune_future(self):
        log = MessageLog()
        log.corrupt_insert("k", 1, 999.0)
        log.add("k", 2, 5.0)
        dropped = log.prune_future(10.0)
        assert dropped == 1
        assert log.senders("k") == {2}

    def test_decay_prunes_both_ends(self):
        log = MessageLog()
        log.add("k", 1, 5.0)
        log.add("k", 2, 15.0)
        log.corrupt_insert("k", 3, 999.0)
        assert log.decay(10.0, 20.0) == 2
        assert log.senders("k") == {2}
        assert MessageLog().decay(10.0, 20.0) == 0

    def test_out_of_order_insert_keeps_sorted(self):
        log = MessageLog()
        log.add("k", 1, 10.0)
        log.corrupt_insert("k", 1, 5.0)
        latest = log.latest_arrival_per_sender("k")
        assert latest[1] == 10.0

    def test_remove_keys(self):
        log = MessageLog()
        log.add("a", 1, 0.0)
        log.add("b", 1, 0.0)
        log.remove_keys(["a"])
        assert log.keys == ["b"]

    def test_remove_matching(self):
        log = MessageLog()
        log.add(("support", 0, "m"), 1, 0.0)
        log.add(("support", 1, "m"), 1, 0.0)
        log.remove_matching(lambda key: key[1] == 0)
        assert log.keys == [("support", 1, "m")]

    def test_clear_and_total(self):
        log = MessageLog()
        log.add("k", 1, 0.0)
        log.add("k", 1, 1.0)
        assert log.total_records() == 2
        log.clear()
        assert log.total_records() == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=0, max_value=100),
            ),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_query_matches_bruteforce(self, records, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        log = MessageLog()
        for sender, t in records:
            log.add("k", sender, t)
        expected = {s for s, t in records if lo <= t <= hi}
        assert log.distinct_senders_in("k", lo, hi) == expected

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=0, max_value=100),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_kth_latest_matches_bruteforce(self, records, k):
        log = MessageLog()
        latest: dict[int, float] = {}
        for sender, t in records:
            log.add("k", sender, t)
            latest[sender] = max(latest.get(sender, -1.0), t)
        expected = (
            sorted(latest.values(), reverse=True)[k - 1] if len(latest) >= k else None
        )
        assert log.kth_latest_distinct("k", k) == expected
