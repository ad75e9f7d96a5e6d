"""Tests for the ss-Byz-Agree protocol layer (Figure 1)."""

from __future__ import annotations

import pytest

from repro.core.agreement import ProtocolNode, distinct_chain_exists
from repro.core.params import BOTTOM, ProtocolParams
from repro.harness import properties
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.net.delivery import FixedDelay, UniformDelay

from tests.adversaries import AdversarialDelay
from tests.conftest import make_cluster, run_agreement


class TestChainMatching:
    """The Block-S system-of-distinct-representatives check."""

    def check(self, per_level, r):
        return distinct_chain_exists(per_level, r)

    def test_empty_fails(self):
        assert not self.check({}, 1)

    def test_single_level(self):
        assert self.check({1: {5}}, 1)

    def test_missing_level_fails(self):
        assert not self.check({1: {5}, 3: {6}}, 3)

    def test_distinctness_required(self):
        # Same single node at both levels: no distinct assignment.
        assert not self.check({1: {5}, 2: {5}}, 2)

    def test_distinct_assignment_found(self):
        assert self.check({1: {5, 6}, 2: {5}}, 2)

    def test_backtracking_needed(self):
        # Greedy picking 5 for level 1 would starve level 2; matching exists.
        per_level = {1: {5, 6}, 2: {5}, 3: {6, 7}}
        assert self.check(per_level, 3)

    def test_no_assignment_when_pool_too_small(self):
        per_level = {1: {5, 6}, 2: {5, 6}, 3: {5, 6}}
        assert not self.check(per_level, 3)


class TestHappyPath:
    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_all_decide_generals_value(self, n):
        from repro.core.params import max_faults

        params = ProtocolParams(n=n, f=max_faults(n), delta=1.0, rho=1e-4)
        cluster = make_cluster(params, seed=1)
        run_agreement(cluster, general=0, value="v")
        properties.validity(cluster, 0, "v").expect()

    def test_timeliness_bounds(self, params7):
        cluster = make_cluster(params7, seed=2)
        t0 = run_agreement(cluster, general=0, value="v")
        properties.timeliness_validity(cluster, 0, t0).expect()
        properties.timeliness_agreement(cluster, 0, validity_held=True).expect()

    def test_non_general_cannot_be_forged(self, params7):
        """No decision materializes for a General that never proposed."""
        cluster = make_cluster(params7, seed=3)
        run_agreement(cluster, general=0, value="v")
        assert cluster.decisions(5) == []
        properties.ia_unforgeability(cluster, 5, "v").expect()

    def test_decision_records_have_consistent_fields(self, params7):
        cluster = make_cluster(params7, seed=4)
        run_agreement(cluster, general=0, value="v")
        for dec in cluster.decisions(0):
            assert dec.general == 0
            assert dec.decided
            assert dec.tau_g_local is not None
            assert dec.tau_g_real is not None
            assert dec.tau_g_real <= dec.returned_real
            assert dec.returned_local is not None

    def test_every_correct_node_i_accepts(self, params7):
        from repro.harness.metrics import i_accept_events

        cluster = make_cluster(params7, seed=5)
        run_agreement(cluster, general=0, value="v")
        accepts = i_accept_events(cluster, 0)
        assert {node for node, *_ in accepts} == set(cluster.correct_ids)

    def test_fixed_extreme_delays_still_valid(self, params7):
        """Worst legal network: every message takes exactly delta."""
        cluster = make_cluster(params7, seed=6, policy=FixedDelay(params7.delta))
        t0 = run_agreement(cluster, general=0, value="v")
        properties.validity(cluster, 0, "v").expect()
        properties.timeliness_validity(cluster, 0, t0).expect()

    def test_adversarial_skewed_delays_still_valid(self, params7):
        policy = AdversarialDelay(
            0.01 * params7.delta, params7.delta, fast_set=frozenset({0, 1, 2})
        )
        cluster = make_cluster(params7, seed=7, policy=policy)
        run_agreement(cluster, general=0, value="v")
        properties.validity(cluster, 0, "v").expect()
        properties.timeliness_agreement(cluster, 0).expect()

    def test_clock_offsets_do_not_matter(self, params7):
        """Identical runs modulo clock offsets produce the same decisions."""
        a = make_cluster(params7, seed=8, random_clock_offsets=False)
        b = make_cluster(params7, seed=8, random_clock_offsets=True)
        run_agreement(a, general=0, value="v")
        run_agreement(b, general=0, value="v")
        assert {d.node for d in a.decisions(0)} == {d.node for d in b.decisions(0)}
        assert {d.value for d in a.decisions(0)} == {d.value for d in b.decisions(0)}

    def test_general_itself_decides(self, params7):
        cluster = make_cluster(params7, seed=9)
        run_agreement(cluster, general=3, value="mid")
        assert any(d.node == 3 for d in cluster.decisions(3))


class TestGeneralPacing:
    """The Sending Validity Criteria IG1-IG3."""

    def test_back_to_back_proposals_refused(self, params7):
        cluster = make_cluster(params7, seed=10)
        assert cluster.propose(0, "a")
        assert not cluster.propose(0, "b")  # IG1: within Delta_0

    def test_different_value_allowed_after_delta_0(self, params7):
        cluster = make_cluster(params7, seed=11)
        assert cluster.propose(0, "a")
        cluster.run_for(params7.delta_agr + 10 * params7.d)
        node = cluster.protocol_node(0)
        # Wait out Delta_0 on the General's own clock.
        while not node.may_propose("b"):
            cluster.run_for(params7.d)
        assert cluster.propose(0, "b")

    def test_same_value_needs_delta_v(self, params7):
        cluster = make_cluster(params7, seed=12)
        assert cluster.propose(0, "a")
        cluster.run_for(params7.delta_0 + 5 * params7.d)
        assert not cluster.propose(0, "a")  # IG2: same value within Delta_v
        cluster.run_for(params7.delta_v)
        assert cluster.propose(0, "a")

    def test_two_sequential_agreements_both_valid(self, params7):
        cluster = make_cluster(params7, seed=13)
        run_agreement(cluster, general=0, value="a")
        node = cluster.protocol_node(0)
        while not node.may_propose("b"):
            cluster.run_for(params7.d)
        run_agreement(cluster, general=0, value="b")
        values = [d.value for d in cluster.decisions(0)]
        assert values.count("a") == len(cluster.correct_ids)
        assert values.count("b") == len(cluster.correct_ids)

    def test_separation_across_agreements(self, params7):
        cluster = make_cluster(params7, seed=14)
        run_agreement(cluster, general=0, value="a")
        node = cluster.protocol_node(0)
        while not node.may_propose("b"):
            cluster.run_for(params7.d)
        run_agreement(cluster, general=0, value="b")
        properties.separation(cluster, 0).expect()

    def test_different_generals_independent(self, params7):
        cluster = make_cluster(params7, seed=15)
        run_agreement(cluster, general=0, value="from0")
        run_agreement(cluster, general=1, value="from1")
        properties.validity(cluster, 0, "from0").expect()
        properties.validity(cluster, 1, "from1").expect()


class TestTpsProperties:
    """The msgd-broadcast TPS-* properties over real cluster runs."""

    def test_tps_suite_on_happy_path(self, params7):
        cluster = make_cluster(params7, seed=16)
        run_agreement(cluster, general=0, value="v")
        properties.tps_correctness(cluster, 0).expect()
        properties.tps_unforgeability(cluster, 0).expect()
        properties.tps_relay(cluster, 0).expect()
        properties.tps_detection(cluster, 0).expect()

    def test_ia_relay_on_happy_path(self, params7):
        cluster = make_cluster(params7, seed=17)
        run_agreement(cluster, general=0, value="v")
        properties.ia_relay(cluster, 0).expect()


class TestCrashFaults:
    @pytest.mark.parametrize("crashed", [1, 2])
    def test_validity_with_crashed_nodes(self, params7, crashed):
        from repro.faults.byzantine import CrashStrategy

        byz = {6 - i: CrashStrategy() for i in range(crashed)}
        cluster = make_cluster(params7, seed=18, byzantine=byz)
        run_agreement(cluster, general=0, value="v")
        properties.validity(cluster, 0, "v").expect()

    def test_crashed_general_no_decisions(self, params7):
        from repro.faults.byzantine import CrashStrategy

        cluster = make_cluster(params7, seed=19, byzantine={0: CrashStrategy()})
        cluster.run_for(2 * params7.delta_agr)
        assert cluster.decisions(0) == []


class TestInstanceHygiene:
    def test_instance_resets_after_return(self, params7):
        cluster = make_cluster(params7, seed=20)
        run_agreement(cluster, general=0, value="v")
        for node in cluster.correct_nodes():
            inst = node.instance(0)
            assert inst.tau_g is None
            assert not inst.stopped
            assert inst.mb.anchor is None

    def test_stale_anchor_self_heals(self, params7):
        cluster = make_cluster(params7, seed=21)
        node = cluster.correct_nodes()[2]
        inst = node.instance(0)
        inst.tau_g = node.local_now() - 10 * params7.delta_agr
        inst.mb.set_anchor(inst.tau_g)
        cluster.run_for(3 * params7.d)
        assert inst.tau_g is None

    def test_future_anchor_self_heals(self, params7):
        cluster = make_cluster(params7, seed=22)
        node = cluster.correct_nodes()[2]
        inst = node.instance(0)
        inst.tau_g = node.local_now() + 100 * params7.d
        cluster.run_for(3 * params7.d)
        assert inst.tau_g is None

    def test_anchor_without_tau_g_self_heals(self, params7):
        """tau_G and the msgd-broadcast anchor are set and cleared together;
        a corrupted anchor with no tau_G goes at the next cleanup tick."""
        cluster = make_cluster(params7, seed=3)
        node = cluster.correct_nodes()[1]
        inst = node.instance(0)
        inst.mb.anchor = node.local_now() + 1e6
        cluster.run_for(2 * params7.d)
        assert inst.tau_g is None
        assert inst.mb.anchor is None

    def test_lost_reset_timer_self_heals(self, params7):
        cluster = make_cluster(params7, seed=23)
        node = cluster.correct_nodes()[1]
        inst = node.instance(0)
        inst.stopped = True
        inst.returned_at = node.local_now()
        node.cancel_timers()  # lose the 3d reset timer (simulated fault)
        # Restart the cleanup tick that cancel_timers also removed.
        node.every_local(params7.d, node._cleanup_tick)
        cluster.run_for(10 * params7.d)
        assert not inst.stopped
