"""Tests for the TPS'87 and EIG baselines."""

from __future__ import annotations

import pytest

from repro.baselines.eig import DEFAULT_VALUE, EigCluster
from repro.baselines.tps87 import Tps87Cluster, TpsInitiate
from repro.core.params import BOTTOM, ProtocolParams
from repro.net.delivery import UniformDelay


@pytest.fixture
def params7() -> ProtocolParams:
    return ProtocolParams(n=7, f=2, delta=1.0)


class TestTps87:
    def test_happy_path_all_decide(self, params7):
        cluster = Tps87Cluster(params7, seed=1)
        cluster.initiate("V")
        decisions = cluster.run_to_completion()
        assert len(decisions) == params7.n
        assert {d.value for d in decisions} == {"V"}

    def test_latency_is_phase_quantized(self, params7):
        """Time-driven rounds: decision lands exactly at a phase boundary."""
        for frac in (0.1, 1.0):
            cluster = Tps87Cluster(
                params7, seed=2, policy=UniformDelay(0.0, frac * params7.delta)
            )
            cluster.initiate("V")
            decisions = cluster.run_to_completion()
            for dec in decisions:
                phases = dec.returned_real / params7.phi
                assert phases == pytest.approx(round(phases), abs=1e-6)

    def test_latency_does_not_improve_with_fast_network(self, params7):
        fast = Tps87Cluster(params7, seed=3, policy=UniformDelay(0.0, 0.05))
        fast.initiate("V")
        slow = Tps87Cluster(params7, seed=3, policy=UniformDelay(0.5, 1.0))
        slow.initiate("V")
        fast_latency = max(d.returned_real for d in fast.run_to_completion())
        slow_latency = max(d.returned_real for d in slow.run_to_completion())
        assert fast_latency == pytest.approx(slow_latency)

    def test_no_initiation_aborts(self, params7):
        cluster = Tps87Cluster(params7, seed=4)
        decisions = cluster.run_to_completion()
        assert all(d.value is BOTTOM for d in decisions)

    def test_nodes_missed_at_round_0_decide_through_the_relay(self, params7):
        """A General that withholds its value from two nodes: they adopt
        nothing at round 0, accept the adopters' k = 1 inits through the
        echo relay, and decide the same value on the round-1 chain."""
        cluster = Tps87Cluster(params7, seed=6)
        general = cluster.nodes[0]
        for receiver in range(5):
            general.send(receiver, TpsInitiate(0, "V"))
        decisions = {d.node: d for d in cluster.run_to_completion()}
        assert sorted(decisions) == list(range(params7.n))
        assert {d.value for d in decisions.values()} == {"V"}
        for node in (5, 6):
            assert decisions[node].returned_real == pytest.approx(3 * params7.phi)
            assert any(k == 1 for (_, _, k) in cluster.nodes[node].accepted)

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_scales_across_n(self, n):
        from repro.core.params import max_faults

        params = ProtocolParams(n=n, f=max_faults(n), delta=1.0)
        cluster = Tps87Cluster(params, seed=5)
        cluster.initiate("V")
        decisions = cluster.run_to_completion()
        assert {d.value for d in decisions} == {"V"}
        assert len(decisions) == n


class TestEig:
    def test_happy_path(self, params7):
        cluster = EigCluster(params7, seed=1)
        cluster.initiate("V")
        decisions = cluster.run_to_completion()
        assert decisions == {i: "V" for i in range(params7.n)}

    def test_equivocating_general_still_agrees(self, params7):
        """EIG handles *Byzantine* faults fine -- that is not its weakness."""
        cluster = EigCluster(params7, seed=2)
        # General (node 0, counted among the f faults) splits its value.
        cluster.initiate_equivocating(
            {i: ("A" if i < 4 else "B") for i in range(params7.n)}
        )
        decisions = cluster.run_to_completion()
        non_general = {v for node, v in decisions.items() if node != 0}
        assert len(non_general) == 1  # agreement among the rest

    def test_transient_corruption_breaks_it(self, params7):
        """EIG's weakness: corrupted state yields wrong/garbage decisions."""
        bad_runs = 0
        for seed in range(10):
            cluster = EigCluster(params7, seed=seed)
            cluster.initiate("V")
            cluster.corrupt_mid_run(["A", "B"], at_round=params7.f)
            decisions = cluster.run_to_completion()
            values = set(decisions.values())
            if values != {"V"}:
                bad_runs += 1
        assert bad_runs >= 8  # corruption almost always destroys the outcome

    def test_default_value_on_empty_tree(self, params7):
        cluster = EigCluster(params7, seed=3)
        decisions = cluster.run_to_completion()  # nobody initiated
        assert set(decisions.values()) == {DEFAULT_VALUE}

    def test_malformed_reports_discarded(self, params7):
        """Reports with wrong path length or duplicate labels are dropped."""
        from repro.baselines.eig import EigRoundMsg

        cluster = EigCluster(params7, seed=4)
        cluster.initiate("V")
        victim = cluster.nodes[1]
        # Path too long for round 1 and a duplicate-label path.
        forged = EigRoundMsg(0, 1, (((0, 2, 3), "X"),))
        cluster.net.send(2, 1, forged)
        decisions = cluster.run_to_completion()
        assert decisions[1] == "V"
        assert all((0, 2, 3, 2) not in victim.tree for victim in [victim])
