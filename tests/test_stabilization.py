"""Self-stabilization: convergence from arbitrary states (Corollary 5)."""

from __future__ import annotations

import pytest

from repro.core.params import ProtocolParams
from repro.faults.transient import TransientFaultInjector
from repro.harness import properties
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.net.delivery import UniformDelay

from tests.adversaries import IncoherentDelivery
from tests.conftest import make_cluster


@pytest.fixture
def params7() -> ProtocolParams:
    return ProtocolParams(n=7, f=2, delta=1.0, rho=1e-4)


def injector_for(cluster: Cluster, generals=(0, 1)) -> TransientFaultInjector:
    return TransientFaultInjector(
        cluster.params,
        cluster.rng.split("injector"),
        value_pool=["A", "B", "C"],
        generals=list(generals),
    )


def stabilize_and_agree(cluster: Cluster, value="recovered", general=0):
    """Wait Delta_stb, then run one agreement; returns (since, t0)."""
    cluster.mark_coherent()
    cluster.run_for(cluster.params.delta_stb)
    since = cluster.sim.now
    t0 = cluster.sim.now
    assert cluster.propose(general=general, value=value)
    cluster.run_for(cluster.params.delta_agr + 10 * cluster.params.d)
    return since, t0


class TestRandomCorruption:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_havoc_recovers(self, params7, seed):
        cluster = make_cluster(params7, seed=seed)
        cluster.run_for(5.0 * params7.d)
        injector_for(cluster).havoc(cluster.correct_nodes(), cluster.net, 300)
        since, t0 = stabilize_and_agree(cluster)
        properties.validity(cluster, 0, "recovered", since_real=since).expect()
        properties.timeliness_validity(cluster, 0, t0, since_real=since).expect()

    def test_corruption_of_clocks_only(self, params7):
        cluster = make_cluster(params7, seed=50)
        for node in cluster.correct_nodes():
            node.clock.corrupt_offset(
                cluster.rng.split(f"o/{node.node_id}").uniform(-1e6, 1e6)
            )
        since, t0 = stabilize_and_agree(cluster)
        properties.validity(cluster, 0, "recovered", since_real=since).expect()

    def test_garbage_traffic_only(self, params7):
        cluster = make_cluster(params7, seed=51)
        injector_for(cluster).inject_garbage_traffic(cluster.net, 500, 2 * params7.d)
        since, _t0 = stabilize_and_agree(cluster)
        properties.validity(cluster, 0, "recovered", since_real=since).expect()

    def test_repeated_havoc_cycles(self, params7):
        """Corrupt, recover, corrupt again -- each recovery must succeed."""
        cluster = make_cluster(params7, seed=52)
        for cycle in range(2):
            injector_for(cluster).havoc(cluster.correct_nodes(), cluster.net, 150)
            since, _ = stabilize_and_agree(cluster, value=f"cycle{cycle}")
            properties.validity(
                cluster, 0, f"cycle{cycle}", since_real=since
            ).expect()
            # Wait out the General's same/different-value pacing.
            cluster.run_for(params7.delta_v)


class TestTargetedCorruption:
    def test_fake_ready_wave_cannot_cascade(self, params7):
        """Claim 4's hazard: planted near-miss ready quorums must drain."""
        cluster = make_cluster(params7, seed=60)
        inj = injector_for(cluster)
        for node in cluster.correct_nodes():
            inj.plant_fake_ready_wave(node, general=0, value="ghost")
        cluster.run_for(params7.delta_stb)
        # No correct node may have decided the ghost value.
        assert all(
            dec.value != "ghost" for dec in cluster.decisions(0)
        )
        since, _ = stabilize_and_agree(cluster)
        properties.validity(cluster, 0, "recovered", since_real=since).expect()

    def test_stale_anchor_heals(self, params7):
        cluster = make_cluster(params7, seed=61)
        inj = injector_for(cluster)
        for node in cluster.correct_nodes()[:3]:
            inj.plant_stale_anchor(node, general=0, value="old")
        since, _ = stabilize_and_agree(cluster)
        properties.validity(cluster, 0, "recovered", since_real=since).expect()

    def test_poisoned_last_gm_does_not_block_forever(self, params7):
        """Future last(G, m) stamps must be cleaned, restoring liveness."""
        cluster = make_cluster(params7, seed=62)
        inj = injector_for(cluster)
        for node in cluster.correct_nodes():
            inj.plant_poisoned_last_gm(node, general=0, value="recovered")
        since, _ = stabilize_and_agree(cluster)
        properties.validity(cluster, 0, "recovered", since_real=since).expect()


class TestIncoherentPeriod:
    def test_recovery_after_lossy_network_phase(self, params7):
        """Run through a drop-happy network phase, then stabilize."""
        cluster = make_cluster(params7, seed=70)
        cluster.set_policy(IncoherentDelivery(0.4, 20.0 * params7.d))
        injector_for(cluster).havoc(cluster.correct_nodes(), cluster.net, 200)
        cluster.run_for(50.0 * params7.d)  # chaos with losses and huge delays
        cluster.set_policy(UniformDelay(0.1 * params7.delta, params7.delta))
        since, t0 = stabilize_and_agree(cluster)
        properties.validity(cluster, 0, "recovered", since_real=since).expect()
        properties.timeliness_validity(cluster, 0, t0, since_real=since).expect()

    def test_no_ghost_decisions_after_stabilization(self, params7):
        """Post-stabilization, decisions only follow real initiations."""
        cluster = make_cluster(params7, seed=71)
        injector_for(cluster).havoc(cluster.correct_nodes(), cluster.net, 300)
        cluster.mark_coherent()
        cluster.run_for(params7.delta_stb)
        since = cluster.sim.now
        cluster.run_for(2 * params7.delta_agr)  # nobody proposes
        assert cluster.decisions(0, since_real=since) == []
        assert cluster.decisions(1, since_real=since) == []


class TestConvergenceTime:
    def test_convergence_within_delta_stb(self, params7):
        """The paper's bound: stable after 2 * Delta_reset of coherence.

        We verify the *measured* convergence: an agreement started exactly
        Delta_stb after coherence always succeeds (tested across seeds).
        """
        for seed in range(3):
            cluster = make_cluster(params7, seed=100 + seed)
            injector_for(cluster).havoc(cluster.correct_nodes(), cluster.net, 300)
            since, t0 = stabilize_and_agree(cluster)
            properties.validity(cluster, 0, "recovered", since_real=since).expect()

    def test_empirical_convergence_often_faster(self, params7):
        """Shape check: in practice the state drains before Delta_stb."""
        cluster = make_cluster(params7, seed=110)
        injector_for(cluster).havoc(cluster.correct_nodes(), cluster.net, 200)
        cluster.mark_coherent()
        # Try at half the bound; record (not assert) the outcome, then assert
        # at the full bound.  Half-bound success is typical but not promised.
        cluster.run_for(params7.delta_stb / 2)
        half_ok = cluster.propose(general=1, value="early")
        if half_ok:
            cluster.run_for(params7.delta_agr + 10 * params7.d)
        cluster.run_for(params7.delta_stb)
        since = cluster.sim.now
        guard = 0
        while not cluster.propose(general=0, value="late"):
            cluster.run_for(params7.delta_0)
            guard += 1
            assert guard < 100, "General blocked long past stabilization"
        cluster.run_for(params7.delta_agr + 10 * params7.d)
        properties.validity(cluster, 0, "late", since_real=since).expect()
