"""Unit tests for delivery policies and the network fabric."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.delivery import (
    BurstyDelay,
    DeliveryDecision,
    FixedDelay,
    LinkPartitionPolicy,
    UniformDelay,
)
from repro.net.network import Envelope, Network
from repro.sim.engine import Simulator
from repro.sim.rand import RandomSource
from repro.sim.trace import Tracer

from tests.adversaries import AdversarialDelay, IncoherentDelivery


@pytest.fixture
def rng():
    return RandomSource(1)


class TestPolicies:
    def test_fixed_delay(self, rng):
        policy = FixedDelay(2.5)
        decision = policy.decide(0, 1, "x", rng)
        assert decision.delay == 2.5
        assert not decision.drop

    def test_fixed_delay_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedDelay(-1.0)

    def test_uniform_delay_in_range(self, rng):
        policy = UniformDelay(1.0, 2.0)
        for _ in range(100):
            decision = policy.decide(0, 1, "x", rng)
            assert 1.0 <= decision.delay <= 2.0

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformDelay(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformDelay(-1.0, 1.0)

    def test_adversarial_fast_and_slow(self, rng):
        policy = AdversarialDelay(0.1, 1.0, fast_set=frozenset({1, 2}))
        assert policy.decide(0, 1, "x", rng).delay == 0.1
        assert policy.decide(0, 5, "x", rng).delay == 1.0

    def test_incoherent_drops_and_delays(self, rng):
        policy = IncoherentDelivery(drop_probability=0.5, max_delay=100.0)
        outcomes = [policy.decide(0, 1, "x", rng) for _ in range(300)]
        dropped = sum(1 for o in outcomes if o.drop)
        assert 50 < dropped < 250  # roughly half
        assert all(0 <= o.delay <= 100.0 for o in outcomes if not o.drop)

    def test_incoherent_validates(self):
        with pytest.raises(ValueError):
            IncoherentDelivery(1.5, 1.0)
        with pytest.raises(ValueError):
            IncoherentDelivery(0.5, -1.0)

    def test_dropped_constructor(self):
        assert DeliveryDecision.dropped().drop


class TestMinDelay:
    def test_fixed_delay(self):
        assert FixedDelay(0.25).min_delay() == 0.25

    def test_uniform_delay_is_lower_bound(self):
        assert UniformDelay(0.1, 1.0).min_delay() == 0.1

    def test_adversarial_delay_is_fast_bound(self):
        policy = AdversarialDelay(0.2, 1.0, fast_set=frozenset({1, 2}))
        assert policy.min_delay() == 0.2

    def test_incoherent_has_zero_floor(self):
        assert IncoherentDelivery(0.5, 3.0).min_delay() == 0.0

    def test_bursty_fast_regime_floor_is_zero(self):
        policy = BurstyDelay(
            now_fn=lambda: 0.0, period=1.0, fast_max=0.2, slow_min=0.8, slow_max=1.0
        )
        assert policy.min_delay() == 0.0

    def test_partition_wrapper_inherits_inner_bound(self):
        inner = UniformDelay(0.3, 0.9)
        wrapped = LinkPartitionPolicy(inner, frozenset({0, 1}))
        assert wrapped.min_delay() == 0.3
        # Healing does not change the bound: cross-cut copies were dropped,
        # never delayed, so the delivered-copy floor was inner's all along.
        wrapped.heal()
        assert wrapped.min_delay() == 0.3

    def test_nested_wrappers(self):
        policy = LinkPartitionPolicy(
            LinkPartitionPolicy(FixedDelay(0.5), frozenset({0})), frozenset({1})
        )
        assert policy.min_delay() == 0.5


class TestNetwork:
    def build(self, policy=None):
        sim = Simulator()
        net = Network(sim, policy or FixedDelay(1.0), RandomSource(2), Tracer())
        inboxes: dict[int, list[Envelope]] = {i: [] for i in range(3)}
        for i in range(3):
            net.register(i, inboxes[i].append)
        return sim, net, inboxes

    def test_broadcast_with_drops_and_no_tracer(self):
        """Lossy policy + tracer=None must not crash (and with a disabled
        tracer, drops must still be counted via the bump fast path)."""
        sim = Simulator()
        net = Network(sim, IncoherentDelivery(1.0, 1.0), RandomSource(2), tracer=None)
        for i in range(3):
            net.register(i, lambda env: None)
        net.broadcast(0, "x")
        sim.run()
        assert net.dropped_count == 3

        disabled = Tracer(enabled=False)
        sim2 = Simulator()
        net2 = Network(sim2, IncoherentDelivery(1.0, 1.0), RandomSource(2), disabled)
        for i in range(3):
            net2.register(i, lambda env: None)
        net2.broadcast(0, "x")
        sim2.run()
        assert disabled.count("send") == 3
        assert disabled.count("drop") == 3

    def test_send_delivers_with_delay(self):
        sim, net, inboxes = self.build()
        net.send(0, 1, "hello")
        assert inboxes[1] == []
        sim.run()
        assert len(inboxes[1]) == 1
        env = inboxes[1][0]
        assert env.sender == 0
        assert env.payload == "hello"
        assert env.delivered_at == pytest.approx(1.0)

    def test_sender_identity_authenticated(self):
        sim, net, inboxes = self.build()
        net.send(2, 0, "msg")
        sim.run()
        assert inboxes[0][0].sender == 2

    def test_broadcast_reaches_everyone_including_sender(self):
        sim, net, inboxes = self.build()
        net.broadcast(0, "all")
        sim.run()
        assert all(len(inboxes[i]) == 1 for i in range(3))

    def test_unknown_receiver_raises(self):
        _sim, net, _ = self.build()
        with pytest.raises(ValueError):
            net.send(0, 99, "x")

    def test_duplicate_registration_rejected(self):
        _sim, net, _ = self.build()
        with pytest.raises(ValueError):
            net.register(0, lambda env: None)

    def test_accounting(self):
        sim, net, _ = self.build()
        net.broadcast(0, "x")
        sim.run()
        assert net.sent_count == 3
        assert net.delivered_count == 3
        assert net.dropped_count == 0

    def test_partition_drops_messages(self):
        sim, net, inboxes = self.build()
        net.partition(1)
        net.send(0, 1, "lost")
        net.send(1, 0, "also lost")
        sim.run()
        assert inboxes[1] == []
        assert inboxes[0] == []
        assert net.dropped_count == 2

    def test_heal_restores_delivery(self):
        sim, net, inboxes = self.build()
        net.partition(1)
        net.heal(1)
        net.send(0, 1, "back")
        sim.run()
        assert len(inboxes[1]) == 1

    def test_partition_after_send_drops_at_delivery(self):
        sim, net, inboxes = self.build()
        net.send(0, 1, "in-flight")
        net.partition(1)
        sim.run()
        assert inboxes[1] == []

    def test_inject_spurious_bypasses_policy(self):
        sim, net, inboxes = self.build(policy=FixedDelay(50.0))
        net.inject_spurious(claimed_sender=2, receiver=0, payload="forged", delay=0.5)
        sim.run_until(1.0)
        assert len(inboxes[0]) == 1
        assert inboxes[0][0].sender == 2  # forged identity accepted pre-coherence

    def test_policy_swap_takes_effect(self):
        sim, net, inboxes = self.build(policy=FixedDelay(10.0))
        net.set_policy(FixedDelay(0.1))
        net.send(0, 1, "fast")
        sim.run()
        assert inboxes[1][0].delivered_at == pytest.approx(0.1)

    def test_drop_policy_counts(self):
        sim, net, inboxes = self.build(policy=IncoherentDelivery(1.0, 0.0))
        net.send(0, 1, "gone")
        sim.run()
        assert inboxes[1] == []
        assert net.dropped_count == 1

    def test_node_ids_sorted(self):
        _sim, net, _ = self.build()
        assert net.node_ids == [0, 1, 2]


class TestDropAttribution:
    """dropped_count splits into partition-suppressed vs policy-dropped."""

    def build(self, policy=None):
        sim = Simulator()
        net = Network(sim, policy or FixedDelay(1.0), RandomSource(2), Tracer())
        inboxes: dict[int, list[Envelope]] = {i: [] for i in range(3)}
        for i in range(3):
            net.register(i, inboxes[i].append)
        return sim, net, inboxes

    def test_fabric_cut_counts_as_partition(self):
        sim, net, _ = self.build()
        net.partition(1)
        net.send(0, 1, "lost")
        net.broadcast(1, "also lost")  # sender cut: all 3 copies suppressed
        sim.run()
        assert net.dropped_partition == 4
        assert net.dropped_policy == 0
        assert net.dropped_count == 4

    def test_policy_drop_counts_as_policy(self):
        sim, net, _ = self.build(policy=IncoherentDelivery(1.0, 0.0))
        net.send(0, 1, "gone")
        net.broadcast(0, "all gone")
        sim.run()
        assert net.dropped_policy == 4
        assert net.dropped_partition == 0
        assert net.dropped_count == 4

    def test_link_partition_policy_counts_as_partition(self):
        from repro.net.delivery import LinkPartitionPolicy

        cut = LinkPartitionPolicy(FixedDelay(0.5), island=frozenset({0}))
        sim, net, inboxes = self.build(policy=cut)
        net.broadcast(0, "x")  # copies to 1 and 2 cross the cut
        sim.run()
        assert net.dropped_partition == 2
        assert net.dropped_policy == 0
        assert len(inboxes[0]) == 1
        cut.heal()
        net.broadcast(0, "y")
        sim.run()
        assert net.dropped_partition == 2  # unchanged after heal
        assert all(len(inboxes[i]) >= 1 for i in range(3))

    def test_in_flight_cut_counts_as_partition(self):
        sim, net, inboxes = self.build()
        net.send(0, 1, "in-flight")
        net.partition(1)
        sim.run()
        assert inboxes[1] == []
        assert net.dropped_partition == 1
        assert net.dropped_policy == 0

    def test_dropped_decision_partition_flag(self):
        assert DeliveryDecision.dropped().partition is False
        assert DeliveryDecision.dropped(partition=True).partition is True


class TestDeliveryBound:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_uniform_policy_respects_delta(self, seed):
        """Every delivered message arrives within the configured bound."""
        sim = Simulator()
        delta = 1.0
        net = Network(sim, UniformDelay(0.0, delta), RandomSource(seed), Tracer())
        arrivals = []
        net.register(0, lambda env: arrivals.append(env))
        net.register(1, lambda env: arrivals.append(env))
        for _ in range(20):
            net.send(0, 1, "x")
        sim.run()
        assert all(
            env.delivered_at - env.sent_at <= delta + 1e-12 for env in arrivals
        )
