"""Tests for the sharded simulation kernel (repro.sim.shard).

The contract under test is the tentpole invariant: at a fixed seed, a
sharded run -- any shard count, either transport -- produces **bit-identical**
result rows, network counters, and trace digests to the serial kernel.
Plus the guard rails: unsupported features fail with a clear
:class:`ShardError` instead of silently diverging.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import pytest

from repro.faults.timeline import FaultScript, Havoc, Restart, build_timeline
from repro.harness.registry import run_experiment
from repro.harness.scenario import Cluster, ScenarioConfig, set_default_shards
from repro.harness.suite import SUITE_PRESETS, run_suite
from repro.net.delivery import (
    AdversarialDelay,
    BurstyDelay,
    FixedDelay,
    IncoherentDelivery,
    LinkPartitionPolicy,
    UniformDelay,
)
from repro.core.params import ProtocolParams
from repro.net.network import Envelope
from repro.sim.engine import SimulationError
from repro.sim.rand import RandomSource
from repro.sim.shard import (
    KeyedSimulator,
    ShardError,
    ShardedCluster,
    ShardNetwork,
    _ShardState,
)
from repro.sim.trace import trace_digest


def make_params(n: int) -> ProtocolParams:
    return ProtocolParams(n=n, f=1, delta=1.0, rho=1e-4)


# ---------------------------------------------------------------------------
# DeliveryPolicy.min_delay(): the conservative-sync lookahead bound
# ---------------------------------------------------------------------------
class TestMinDelay:
    def test_fixed_delay(self):
        assert FixedDelay(0.25).min_delay() == 0.25

    def test_uniform_delay_is_lower_bound(self):
        assert UniformDelay(0.1, 1.0).min_delay() == 0.1

    def test_adversarial_delay_is_fast_bound(self):
        policy = AdversarialDelay(0.2, 1.0, fast_set=frozenset({1, 2}))
        assert policy.min_delay() == 0.2

    def test_incoherent_offers_no_lookahead(self):
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


# ---------------------------------------------------------------------------
# Serial-vs-sharded differentials
# ---------------------------------------------------------------------------
def _traced_run(
    shards,
    transport="inline",
    timeline="partition_heal",
    n=7,
    seed=0,
) -> tuple:
    """One traced scenario run; returns (digest, net counters, decisions)."""
    params = make_params(n)
    cluster = Cluster(
        ScenarioConfig(
            params=params,
            seed=seed,
            trace=True,
            shards=shards,
            shard_transport=transport,
        )
    )
    try:
        build_timeline(timeline, params).install(cluster)
        cluster.propose(general=0, value="v")
        cluster.run_for(params.delta_agr + 10 * params.d)
        digest = trace_digest(cluster.tracer)
        counters = (
            cluster.net.sent_count,
            cluster.net.delivered_count,
            cluster.net.dropped_partition,
            cluster.net.dropped_policy,
        )
        decisions = sorted(
            (node_id, repr(dec.value), dec.returned_real)
            for node_id, dec in cluster.latest_decision_per_node(0).items()
        )
        return digest, counters, decisions
    finally:
        if cluster.sharded:
            cluster.close()


class TestDifferential:
    """Bit-identical rows and digests at shards in {1, 2, 4}, >= 3 seeds."""

    def test_e1_rows_bit_identical(self):
        serial = run_experiment("e1", ns=(4,), seeds=range(3))
        for shards in (1, 2, 4):
            sharded = run_experiment(
                "e1", ns=(4,), seeds=range(3), shards=shards,
                shard_transport="inline",
            )
            assert sharded == serial, f"shards={shards} diverged"

    def test_e5_rows_bit_identical(self):
        serial = run_experiment("e5", n=4, delay_fracs=(0.5,), seeds=range(3))
        for shards in (1, 2, 4):
            sharded = run_experiment(
                "e5", n=4, delay_fracs=(0.5,), seeds=range(3), shards=shards,
                shard_transport="inline",
            )
            assert sharded == serial, f"shards={shards} diverged"

    def test_e9_rows_bit_identical(self):
        serial = run_experiment("e9", ns=(4, 7), seeds=range(3))
        for shards in (1, 2, 4):
            sharded = run_experiment(
                "e9", ns=(4, 7), seeds=range(3), shards=shards,
                shard_transport="inline",
            )
            assert sharded == serial, f"shards={shards} diverged"

    def test_suite_smoke_rows_and_digests_bit_identical(self):
        seeds = [0, 1, 2]
        serial = run_suite(SUITE_PRESETS["smoke"], seeds=seeds)
        sharded = run_suite(
            SUITE_PRESETS["smoke"], seeds=seeds, shards=2, shard_transport="inline"
        )
        assert sharded == serial

    @pytest.mark.parametrize("timeline", ["none", "partition_heal", "churn"])
    def test_ordered_trace_digest_bit_identical(self, timeline):
        serial = _traced_run(None, timeline=timeline)
        for shards in (2, 4):
            assert _traced_run(shards, timeline=timeline) == serial

    def test_multiple_seeds_traced(self):
        for seed in (0, 1, 2):
            assert _traced_run(2, seed=seed) == _traced_run(None, seed=seed)

    def test_process_transport_matches_serial(self):
        assert _traced_run(2, transport="process") == _traced_run(None)

    def test_default_shards_context(self):
        serial = _traced_run(None)
        previous = set_default_shards(2, "inline")
        try:
            assert _traced_run(None) == serial
        finally:
            set_default_shards(*previous)


class TestDegenerate:
    def test_one_shard_goes_through_facade(self):
        params = make_params(4)
        cluster = Cluster(
            ScenarioConfig(params=params, seed=0, shards=1, shard_transport="inline")
        )
        try:
            assert cluster.sharded
            assert cluster.shard_count == 1
        finally:
            cluster.close()
        assert _traced_run(1, n=4) == _traced_run(None, n=4)

    def test_one_node_per_shard(self):
        assert _traced_run(7, n=7) == _traced_run(None, n=7)

    def test_shard_count_above_n_is_clamped(self):
        params = make_params(4)
        cluster = Cluster(
            ScenarioConfig(params=params, seed=0, shards=9, shard_transport="inline")
        )
        try:
            assert cluster.requested_shards == 9
            assert cluster.shard_count == 4  # one node per shard at most
        finally:
            cluster.close()
        assert _traced_run(9, n=4) == _traced_run(None, n=4)


# ---------------------------------------------------------------------------
# Facade surface and guard rails
# ---------------------------------------------------------------------------
def _sharded(n=4, **config_kwargs) -> ShardedCluster:
    config = ScenarioConfig(
        params=make_params(n),
        seed=0,
        shards=2,
        shard_transport="inline",
        **config_kwargs,
    )
    return Cluster(config)


class TestFacade:
    def test_context_manager_and_idempotent_close(self):
        with _sharded() as cluster:
            assert cluster.sharded
            cluster.close()  # early close inside the block is fine
        cluster.close()

    def test_correct_and_byzantine_ids_match_serial(self):
        from repro.faults.byzantine import CrashStrategy

        byz = {3: CrashStrategy()}
        serial = Cluster(ScenarioConfig(params=make_params(4), seed=0, byzantine=byz))
        with _sharded(byzantine=byz) as sharded:
            assert sharded.correct_ids == serial.correct_ids
            assert sharded.byzantine_ids == serial.byzantine_ids

    def test_byzantine_cast_validation_matches_serial(self):
        from repro.faults.byzantine import CrashStrategy

        byz = {1: CrashStrategy(), 2: CrashStrategy()}  # f=1 for n=4
        with pytest.raises(ValueError, match="exceeds f="):
            _sharded(byzantine=byz)

    def test_propose_byzantine_general_raises(self):
        from repro.faults.byzantine import CrashStrategy

        with _sharded(byzantine={3: CrashStrategy()}) as cluster:
            with pytest.raises(TypeError, match="not a correct protocol node"):
                cluster.propose(general=3, value="v")

    def test_live_node_access_raises_shard_error(self):
        with _sharded() as cluster:
            with pytest.raises(ShardError):
                cluster.nodes
            with pytest.raises(ShardError):
                cluster.correct_nodes()
            with pytest.raises(ShardError):
                cluster.protocol_node(0)
            with pytest.raises(ShardError):
                cluster.node(0)
            with pytest.raises(ShardError):
                cluster.net.policy

    def test_unknown_transport_raises(self):
        with pytest.raises(ShardError, match="unknown shard transport"):
            Cluster(
                ScenarioConfig(
                    params=make_params(4), seed=0, shards=2, shard_transport="bogus"
                )
            )


class TestUnsupported:
    def test_max_events_raises(self):
        with _sharded() as cluster:
            with pytest.raises(ShardError, match="max_events"):
                cluster.run_for(1.0, max_events=10)

    def test_havoc_timeline_raises(self):
        script = FaultScript((Havoc(at_d=1.0, garbage=10),))
        with _sharded() as cluster:
            with pytest.raises(ShardError, match="Havoc"):
                script.install(cluster)

    def test_scrambled_restart_raises(self):
        script = FaultScript((Restart(at_d=1.0, nodes=(0,), scramble=True),))
        with _sharded() as cluster:
            with pytest.raises(ShardError, match="scramble"):
                script.install(cluster)

    def test_zero_lookahead_policy_raises_with_multiple_shards(self):
        with _sharded() as cluster:
            cluster.net.set_policy(IncoherentDelivery(0.1, 2.0))
            cluster.propose(general=0, value="v")
            with pytest.raises(ShardError, match="lookahead"):
                cluster.run_for(5.0)

    def test_zero_lookahead_policy_fine_on_one_shard(self):
        params = make_params(4)
        config = ScenarioConfig(
            params=params, seed=0, shards=1, shard_transport="inline"
        )
        with Cluster(config) as cluster:
            cluster.net.set_policy(IncoherentDelivery(0.1, 2.0))
            cluster.propose(general=0, value="v")
            cluster.run_for(5.0)  # single shard needs no lookahead


# ---------------------------------------------------------------------------
# The keyed kernel's delivery entries
# ---------------------------------------------------------------------------
class TestKeyedDeliveryEntries:
    """A copy is one ``(time, rank, action, envelope, receiver)`` entry on its
    receiver's home shard, and a plain tuple in the outbox for any other."""

    def build(self, shard_index, receive):
        sim = KeyedSimulator(shard_index, 2)
        net = ShardNetwork(sim, UniformDelay(0.1, 1.0), RandomSource(3))
        for node in range(4):
            net.register(node, receive)
        return sim, net

    def broadcast(self, sim, net):
        with sim.owner_scope(0):
            net.broadcast(0, "m")

    def test_local_copies_queue_envelopes_and_remote_ones_plain_tuples(self):
        sim, net = self.build(0, lambda env: None)
        self.broadcast(sim, net)
        assert len(sim._queue) == 2
        for time, _rank, action, envelope, owner in sim._queue:
            assert not isinstance(action, functools.partial)
            assert type(envelope) is Envelope
            assert envelope.delivered_at == time
            assert owner == envelope.receiver and owner % 2 == 0
        assert [item[3] for item in sim.outbox] == [1, 3]
        for item in sim.outbox:
            assert len(item) == 6 and item[2:] == (0, item[3], "m", 0.0)

    def test_the_keyed_kernel_refuses_runs(self):
        # Its _run_round executes one copy per entry, never a run.
        sim = KeyedSimulator(0, 2)
        with pytest.raises(SimulationError):
            sim.schedule_run([1.0, 2.0], print, None)
        assert sim.pending_events == 0 and not sim._queue

    def test_injected_arrivals_and_timers_run_in_time_rank_order(self):
        sender_sim, sender_net = self.build(0, lambda env: None)
        self.broadcast(sender_sim, sender_net)
        order = []
        sim, net = self.build(
            1, lambda env: order.append(("copy", env.receiver, env.delivered_at))
        )
        state = SimpleNamespace(sim=sim, cluster=SimpleNamespace(net=net))
        _ShardState._inject(state, sender_sim.outbox)
        times = sorted(item[0] for item in sender_sim.outbox)
        for time, _rank, _action, envelope, _owner in sim._queue:
            assert type(envelope) is Envelope and envelope.delivered_at == time
        sim.begin_control(owner=1)  # ranks after every setup-time copy
        timer_times = [0.0, times[0], times[1] + 1.0]
        for t in timer_times:
            sim.schedule_at(t, lambda t=t: order.append(("timer", None, t)))
        assert sim.pending_events == 5
        sim.run_until((times[0] + times[1]) / 2)
        # The equal-time timer ranks after the copy, as on the serial kernel.
        assert [kind for kind, _r, _t in order] == ["timer", "copy", "timer"]
        assert sim.pending_events == 2
        sim.run()
        assert [t for _k, _r, t in order] == sorted(times + timer_times)
        assert sorted(r for kind, r, _t in order if kind == "copy") == [1, 3]
        assert sim.pending_events == 0
