"""Tests for declarative fault timelines (repro.faults.timeline).

The core contract: a :class:`FaultScript` run is a pure function of
(scenario config, script, master seed) -- rows *and trace digests* are
bit-identical across repeated runs and across any worker count.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.params import ProtocolParams
from repro.faults.byzantine import CrashStrategy, MirrorParticipantStrategy
from repro.faults.timeline import (
    Crash,
    FaultScript,
    Heal,
    Isolate,
    Partition,
    Reconnect,
    Restart,
    SwapPolicy,
    SwapStrategy,
    TIMELINE_BUILDERS,
    build_policy,
    build_timeline,
)
from repro.faults.live import validate_live_script
from repro.harness import properties
from repro.harness.parallel import SeedPool, shutdown_shared_pools
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.harness.suite import _run_cell
from repro.net.delivery import LinkPartitionPolicy, UniformDelay
from repro.sim.trace import trace_digest


def _params(n=4):
    return ProtocolParams(n=n, f=1, delta=1.0, rho=1e-4)


def _cluster(params, seed=0, **kwargs):
    return Cluster(ScenarioConfig(params=params, seed=seed, **kwargs))


class TestActions:
    def test_partition_wraps_and_heal_unwraps(self):
        params = _params()
        cluster = _cluster(params)
        script = FaultScript(
            (Partition(at_d=1.0, island=(0, 1)), Heal(at_d=2.0))
        )
        script.install(cluster)
        cluster.run_for(1.5 * params.d)
        assert isinstance(cluster.net.policy, LinkPartitionPolicy)
        assert cluster.net.policy.active
        cluster.run_for(1.0 * params.d)
        # Healing unwraps the wrapper entirely: flapping partition/heal
        # cycles must not deepen the per-message decide() chain.
        assert isinstance(cluster.net.policy, UniformDelay)

    def test_flapping_partitions_do_not_stack_wrappers(self):
        params = _params()
        cluster = _cluster(params)
        script = FaultScript(
            tuple(
                action
                for i in range(4)
                for action in (
                    Partition(at_d=1.0 + i, island=(0, 1)),
                    Heal(at_d=1.5 + i),
                )
            )
        )
        script.install(cluster)
        cluster.run_for(10 * params.d)
        assert isinstance(cluster.net.policy, UniformDelay)

    def test_partition_suppresses_cross_island_traffic(self):
        params = _params()
        cluster = _cluster(params)
        FaultScript((Partition(at_d=0.5, island=(0, 1)),)).install(cluster)
        cluster.propose(general=0, value="v")
        cluster.run_for(6 * params.d)
        assert cluster.net.dropped_partition > 0
        # A permanent quorum-less cut: nobody can decide.
        assert not any(
            dec.decided
            for dec in cluster.latest_decision_per_node(0).values()
        )

    def test_partition_heal_lets_agreement_complete_later(self):
        params = _params()
        # Long horizon: re-sends after the heal must finish the agreement.
        ok_seeds = 0
        for seed in range(3):
            cluster = _cluster(params, seed=seed)
            build_timeline("partition_heal", params).install(cluster)
            cluster.propose(general=0, value="v")
            cluster.run_for(24 * params.d)
            assert properties.agreement(cluster, 0).holds
            if any(
                dec.decided
                for dec in cluster.latest_decision_per_node(0).values()
            ):
                ok_seeds += 1
        assert ok_seeds >= 1  # at least some seeds decide through the cut

    def test_isolate_and_reconnect(self):
        params = _params()
        cluster = _cluster(params)
        script = FaultScript(
            (Isolate(at_d=0.5, nodes=(3,)), Reconnect(at_d=2.0, nodes=(3,)))
        )
        script.install(cluster)
        cluster.run_for(1.0 * params.d)
        assert 3 in cluster.net._partitioned
        cluster.run_for(1.5 * params.d)
        assert 3 not in cluster.net._partitioned

    def test_swap_policy_by_name(self):
        params = _params()
        cluster = _cluster(params)
        FaultScript((SwapPolicy(at_d=1.0, policy="fixed_max"),)).install(cluster)
        cluster.run_for(1.5 * params.d)
        from repro.net.delivery import FixedDelay

        assert isinstance(cluster.net.policy, FixedDelay)

    def test_unknown_policy_name_raises(self):
        params = _params()
        cluster = _cluster(params)
        with pytest.raises(KeyError, match="unknown policy"):
            build_policy("warp_speed", cluster)

    def test_crash_stops_participation_and_restart_resumes(self):
        params = _params()
        cluster = _cluster(params)
        script = FaultScript(
            (
                Crash(at_d=1.0, nodes=(3,), state_loss=True),
                Restart(at_d=3.0, nodes=(3,)),
            )
        )
        script.install(cluster)
        cluster.run_for(1.5 * params.d)
        node = cluster.nodes[3]
        assert node.crashed
        assert node.instances == {}  # state loss wiped the protocol state
        cluster.run_for(2.0 * params.d)
        assert not node.crashed
        # The cleanup tick was re-armed: it fires again after restart.
        before = cluster.sim.events_executed
        cluster.run_for(3.0 * params.d)
        assert cluster.sim.events_executed > before

    def test_restart_of_running_node_is_noop(self):
        params = _params()
        cluster = _cluster(params)
        # Restart without a matching crash: must not double the cleanup tick.
        FaultScript((Restart(at_d=1.0, nodes=(3,)),)).install(cluster)
        reference = _cluster(params, seed=0)
        cluster.propose(general=0, value="v")
        reference.propose(general=0, value="v")
        cluster.run_for(10 * params.d)
        reference.run_for(10 * params.d)
        # Same protocol behaviour as an unscripted run (modulo the one
        # timeline trace event / simulator event of the no-op firing).
        assert cluster.tracer.count("decide") == reference.tracer.count("decide")
        assert cluster.sim.events_executed == reference.sim.events_executed + 1

    def test_swap_strategy_validates_at_construction(self):
        with pytest.raises(ValueError, match="needs a Strategy"):
            SwapStrategy(at_d=1.0, node=2, strategy=None)
        with pytest.raises(ValueError, match="needs a Strategy"):
            FaultScript.from_spec([{"at_d": 1.0, "do": "swap_strategy", "node": 2}])

    def test_same_offset_havocs_get_independent_streams(self):
        from repro.faults.timeline import Havoc

        params = _params()
        action = Havoc(at_d=2.0, garbage=30)
        digests = []
        for index in (0, 1, 0):
            cluster = _cluster(params, seed=3)
            cluster.run_for(2 * params.d)
            action.apply(cluster, index=index)
            cluster.run_for(2 * params.d)
            digests.append(trace_digest(cluster.tracer))
        # The script position salts the stream: two equal actions at the
        # same offset inject *different* garbage (but each replays exactly).
        assert digests[0] != digests[1]
        assert digests[0] == digests[2]

    def test_churn_preserves_agreement_among_uncrashed(self):
        params = _params()
        script = build_timeline("churn", params)
        assert script.churned_nodes() == frozenset({3})
        cluster = _cluster(params)
        script.install(cluster)
        cluster.propose(general=0, value="v")
        cluster.run_for(24 * params.d)
        assert properties.agreement(
            cluster, 0, exclude=script.churned_nodes()
        ).holds

    def test_swap_strategy_requires_byzantine_node(self):
        params = _params()
        cluster = _cluster(params, byzantine={3: CrashStrategy()})
        ok = FaultScript(
            (SwapStrategy(at_d=1.0, node=3, strategy=MirrorParticipantStrategy()),)
        )
        ok.install(cluster)
        cluster.run_for(2 * params.d)
        assert isinstance(cluster.nodes[3].strategy, MirrorParticipantStrategy)

        bad = FaultScript(
            (SwapStrategy(at_d=1.0, node=1, strategy=MirrorParticipantStrategy()),)
        )
        cluster2 = _cluster(params)
        bad.install(cluster2)
        with pytest.raises(TypeError, match="not Byzantine"):
            cluster2.run_for(2 * params.d)


class TestFromSpec:
    def test_round_trip_from_dicts(self):
        script = FaultScript.from_spec(
            [
                {"at_d": 1.0, "do": "partition", "island": [0, 1]},
                {"at_d": 3.0, "do": "heal"},
                {"at_d": 4.0, "do": "crash", "nodes": [3], "state_loss": True},
                {"at_d": 5.0, "do": "restart", "nodes": [3]},
                {"at_d": 6.0, "do": "policy", "policy": "bursty"},
            ]
        )
        assert len(script.actions) == 5
        assert script.actions[0] == Partition(at_d=1.0, island=(0, 1))
        assert script.churned_nodes() == frozenset({3})

    def test_unknown_action_raises(self):
        with pytest.raises(KeyError, match="unknown action"):
            FaultScript.from_spec([{"at_d": 0.0, "do": "meteor_strike"}])

    def test_unknown_timeline_name_raises(self):
        with pytest.raises(KeyError, match="unknown timeline"):
            build_timeline("nope", _params())

    @pytest.mark.parametrize("name", sorted(TIMELINE_BUILDERS))
    def test_every_named_timeline_builds_validates_and_runs(self, name):
        params = _params()
        script = build_timeline(name, params)
        validate_live_script(script)  # each is legal on the live driver too
        assert all(0.0 <= action.at_d < 24.0 for action in script.actions)
        assert script.churned_nodes() <= set(range(params.n))
        row = _run_cell({"n": 4, "timeline": name, "run_for_d": 24.0}, 0)
        proposed, agreement, dropped_partition = row[0], row[1], row[6]
        assert proposed and agreement
        cuts = any(isinstance(action, Partition) for action in script.actions)
        assert (dropped_partition > 0) == cuts

    def test_build_timeline_passthrough_and_inline(self):
        params = _params()
        script = FaultScript((Heal(at_d=1.0),))
        assert build_timeline(script, params) is script
        inline = build_timeline([{"at_d": 1.0, "do": "heal"}], params)
        assert inline.actions == script.actions


class TestDeterminism:
    """Bit-identical rows and trace digests: repeats and worker counts."""

    CELL = {
        "n": 4,
        "delta": 1.0,
        "rho": 1e-4,
        "value": "v",
        "trace": True,
        "run_for_d": 20.0,
        "timeline": [
            {"at_d": 1.0, "do": "partition", "island": [0, 1]},
            {"at_d": 3.0, "do": "heal"},
            {"at_d": 4.0, "do": "crash", "nodes": [3], "state_loss": True},
            {"at_d": 8.0, "do": "restart", "nodes": [3]},
            {"at_d": 10.0, "do": "policy", "policy": "bursty"},
        ],
    }

    def teardown_method(self):
        shutdown_shared_pools()

    def test_repeated_runs_identical(self):
        first = [_run_cell(self.CELL, seed) for seed in range(3)]
        second = [_run_cell(self.CELL, seed) for seed in range(3)]
        assert first == second
        # The digest covers the full event trace, not just the row numbers.
        assert all(len(r[-1]) == 64 for r in first)

    def test_workers_do_not_change_rows_or_digests(self):
        seeds = list(range(4))
        serial = [_run_cell(self.CELL, seed) for seed in seeds]
        for workers in (1, 4):
            fanned = SeedPool.shared(workers).map(partial(_run_cell, self.CELL), seeds)
            assert fanned == serial, f"workers={workers} diverged"

    def test_digest_sensitive_to_timeline(self):
        quiet = dict(self.CELL, timeline="none")
        a = _run_cell(self.CELL, 0)
        b = _run_cell(quiet, 0)
        assert a[-1] != b[-1]

    def test_scripted_havoc_is_seed_deterministic(self):
        cell = {
            "n": 4,
            "trace": True,
            "run_for_d": 20.0,
            "timeline": [
                {"at_d": 2.0, "do": "havoc", "garbage": 50},
                {"at_d": 2.0, "do": "coherent"},
            ],
        }
        assert _run_cell(cell, 7) == _run_cell(cell, 7)
        assert _run_cell(cell, 7) != _run_cell(cell, 8)


class TestTraceDigest:
    def test_digest_matches_for_equal_traces(self):
        params = _params()
        a = _cluster(params, seed=5)
        b = _cluster(params, seed=5)
        for cluster in (a, b):
            cluster.propose(general=0, value="x")
            cluster.run_for(6 * params.d)
        assert trace_digest(a.tracer) == trace_digest(b.tracer)

    def test_digest_differs_across_seeds(self):
        params = _params()
        a = _cluster(params, seed=5)
        b = _cluster(params, seed=6)
        for cluster in (a, b):
            cluster.propose(general=0, value="x")
            cluster.run_for(6 * params.d)
        assert trace_digest(a.tracer) != trace_digest(b.tracer)

    def test_disabled_tracing_still_digests_counts(self):
        params = _params()
        a = _cluster(params, seed=5, trace=False)
        a.propose(general=0, value="x")
        a.run_for(6 * params.d)
        digest = trace_digest(a.tracer)
        assert len(digest) == 64
        b = _cluster(params, seed=5, trace=False)
        b.propose(general=0, value="x")
        b.run_for(6 * params.d)
        assert trace_digest(b.tracer) == digest
