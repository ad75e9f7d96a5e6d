"""The checkers themselves must detect violations (tests of the test tools).

Each test fabricates a trace/decision set with a known violation and checks
the corresponding checker flags it.  Without these, a silently-broken
checker would make the whole reproduction vacuous.
"""

from __future__ import annotations

import pytest

from repro.core.agreement import Decision
from repro.core.params import BOTTOM, ProtocolParams
from repro.harness import properties
from repro.harness.scenario import Cluster, ScenarioConfig

from tests.conftest import make_cluster, run_agreement


@pytest.fixture
def params4() -> ProtocolParams:
    return ProtocolParams(n=4, f=1, delta=1.0, rho=0.0)


def record_i_accept(cluster, node_id, accept_real, value, anchor_real):
    """Forge a correct node's I-accept of ``value`` anchored at ``anchor_real``."""
    clock = cluster.protocol_node(node_id).clock
    cluster.tracer.record(
        accept_real, node_id, "i_accept", general=0, value=value,
        tau_g_local=clock.local_at(anchor_real),
    )


def forged_decision(cluster, node, value, tau_g_real=None, returned_real=1.0):
    return Decision(
        node=node,
        general=0,
        value=value,
        tau_g_local=tau_g_real,
        tau_g_real=tau_g_real,
        returned_local=returned_real,
        returned_real=returned_real,
    )


class TestAgreementChecker:
    def test_detects_split(self, params4):
        cluster = make_cluster(params4, seed=1)
        cluster.protocol_node(0).decisions.append(forged_decision(cluster, 0, "A"))
        cluster.protocol_node(1).decisions.append(forged_decision(cluster, 1, "B"))
        assert not properties.agreement(cluster, 0).holds

    def test_detects_partial_decision(self, params4):
        cluster = make_cluster(params4, seed=2)
        cluster.protocol_node(0).decisions.append(forged_decision(cluster, 0, "A"))
        # Other correct nodes have no decision at all -> violated.
        assert not properties.agreement(cluster, 0).holds

    def test_decide_plus_abort_mix_is_violation(self, params4):
        cluster = make_cluster(params4, seed=3)
        cluster.protocol_node(0).decisions.append(forged_decision(cluster, 0, "A"))
        for node_id in cluster.correct_ids[1:]:
            cluster.protocol_node(node_id).decisions.append(
                forged_decision(cluster, node_id, BOTTOM)
            )
        assert not properties.agreement(cluster, 0).holds

    def test_all_abort_is_fine(self, params4):
        cluster = make_cluster(params4, seed=4)
        for node_id in cluster.correct_ids:
            cluster.protocol_node(node_id).decisions.append(
                forged_decision(cluster, node_id, BOTTOM)
            )
        assert properties.agreement(cluster, 0).holds

    def test_uses_latest_decision_only(self, params4):
        """Pre-stabilization garbage decisions are superseded by later ones."""
        cluster = make_cluster(params4, seed=5)
        for node_id in cluster.correct_ids:
            node = cluster.protocol_node(node_id)
            node.decisions.append(
                forged_decision(cluster, node_id, f"garbage{node_id}", returned_real=1.0)
            )
            node.decisions.append(
                forged_decision(cluster, node_id, "final", returned_real=2.0)
            )
        assert properties.agreement(cluster, 0).holds


class TestTerminationChecker:
    def test_flags_an_anchor_that_never_returned(self, params4):
        cluster = make_cluster(params4, seed=18)
        record_i_accept(cluster, 2, 3.0, "v", 1.0)
        report = properties.termination(cluster, 0)
        assert not report.holds
        assert report.details["failures"] == [(2, "anchored but never returned")]

    def test_flags_a_late_return(self, params4):
        cluster = make_cluster(params4, seed=19)
        record_i_accept(cluster, 1, 3.0, "v", 1.0)
        late = 1.0 + params4.delta_agr + 9 * params4.d
        cluster.protocol_node(1).decisions.append(
            forged_decision(cluster, 1, "v", tau_g_real=1.0, returned_real=late)
        )
        report = properties.termination(cluster, 0)
        assert not report.holds
        ((node, why),) = report.details["failures"]
        assert node == 1 and why.startswith("returned ") and "after anchor" in why


class TestValidityChecker:
    def test_detects_wrong_value(self, params4):
        cluster = make_cluster(params4, seed=6)
        run_agreement(cluster, general=0, value="v")
        assert not properties.validity(cluster, 0, "other").holds

    def test_detects_missing_node(self, params4):
        cluster = make_cluster(params4, seed=7)
        for node_id in cluster.correct_ids[:-1]:
            cluster.protocol_node(node_id).decisions.append(
                forged_decision(cluster, node_id, "v")
            )
        assert not properties.validity(cluster, 0, "v").holds


class TestTimelinessCheckers:
    def test_detects_late_decision(self, params4):
        cluster = make_cluster(params4, seed=8)
        for node_id in cluster.correct_ids:
            cluster.protocol_node(node_id).decisions.append(
                forged_decision(
                    cluster, node_id, "v", tau_g_real=0.0, returned_real=100.0
                )
            )
        assert not properties.timeliness_validity(cluster, 0, t0_real=0.0).holds

    def test_validity_flags_a_decision_without_anchor(self, params4):
        cluster = make_cluster(params4, seed=20)
        for node_id in cluster.correct_ids:
            cluster.protocol_node(node_id).decisions.append(
                forged_decision(
                    cluster, node_id, "v",
                    tau_g_real=None if node_id == 3 else 0.5,
                    returned_real=2.0,
                )
            )
        report = properties.timeliness_validity(cluster, 0, t0_real=0.0)
        assert not report.holds
        assert report.details["failures"] == [(3, "no anchor")]

    def test_validity_flags_an_anchor_off_the_window(self, params4):
        # Timeliness-2 needs t0 - d <= rt(tau_G) <= rt(tau); this anchor is
        # 2d before the invocation.
        cluster = make_cluster(params4, seed=21)
        t0 = 10.0
        for node_id in cluster.correct_ids:
            anchor = t0 - 2 * params4.d if node_id == 0 else t0
            cluster.protocol_node(node_id).decisions.append(
                forged_decision(
                    cluster, node_id, "v", tau_g_real=anchor, returned_real=t0 + 2.0
                )
            )
        report = properties.timeliness_validity(cluster, 0, t0_real=t0)
        assert not report.holds
        assert report.details["failures"] == [(0, "anchor 8.000")]

    def test_detects_excess_spread(self, params4):
        cluster = make_cluster(params4, seed=9)
        times = {0: 1.0, 1: 1.5, 2: 1.4, 3: 30.0}  # node 3 way off
        for node_id in cluster.correct_ids:
            cluster.protocol_node(node_id).decisions.append(
                forged_decision(
                    cluster, node_id, "v", tau_g_real=0.5, returned_real=times[node_id]
                )
            )
        assert not properties.timeliness_agreement(cluster, 0).holds

    def test_detects_anchor_after_decision(self, params4):
        cluster = make_cluster(params4, seed=10)
        for node_id in cluster.correct_ids:
            cluster.protocol_node(node_id).decisions.append(
                forged_decision(
                    cluster, node_id, "v", tau_g_real=5.0, returned_real=1.0
                )
            )
        assert not properties.timeliness_agreement(cluster, 0).holds


class TestIaCheckers:
    def test_unforgeability_flags_accepts(self, params4):
        cluster = make_cluster(params4, seed=11)
        run_agreement(cluster, general=0, value="v")
        # The value *was* accepted, so claiming it was never invoked fails.
        assert not properties.ia_unforgeability(cluster, 0, "v").holds

    def test_separation_flags_close_distinct_values(self, params4):
        cluster = make_cluster(params4, seed=12)
        node = cluster.protocol_node(0)
        # Two I-accepts for different values 1d apart (must be > 4d).
        t = cluster.sim.now
        cluster.tracer.record(t, 0, "i_accept", general=0, value="a",
                              tau_g_local=node.clock.local_at(t))
        cluster.tracer.record(
            t, 0, "i_accept", general=0, value="b",
            tau_g_local=node.clock.local_at(t + params4.d),
        )
        assert not properties.separation(cluster, 0).holds


    def test_separation_flags_same_value_anchors_in_the_forbidden_gap(self, params4):
        # Same value: anchors within 6d, or more than 2*Delta_rmv - 3d apart.
        cluster = make_cluster(params4, seed=22)
        gap = 10 * params4.d
        assert 6 * params4.d < gap <= 2 * params4.delta_rmv - 3 * params4.d
        record_i_accept(cluster, 0, 1.0, "a", 1.0)
        record_i_accept(cluster, 1, 1.0 + gap, "a", 1.0 + gap)
        report = properties.separation(cluster, 0)
        assert not report.holds
        ((n1, n2, m1, m2, seen),) = report.details["violations"]
        assert (n1, n2, m1, m2) == (0, 1, "'a'", "'a'")
        assert seen == pytest.approx(gap)

    def test_relay_flags_missing_accepts(self, params4):
        cluster = make_cluster(params4, seed=23)
        for node_id in (0, 1, 2):  # node 3 never I-accepts
            record_i_accept(cluster, node_id, 5.0, "a", 4.0)
        report = properties.ia_relay(cluster, 0)
        assert not report.holds
        assert report.details["failures"] == [("'a'", "missing accepts", [0, 1, 2])]

    def test_relay_flags_accept_spread(self, params4):
        cluster = make_cluster(params4, seed=24)
        for node_id in cluster.correct_ids:  # node 3 accepts 3d after the rest
            accept = 8.0 if node_id == 3 else 5.0
            record_i_accept(cluster, node_id, accept, "a", 4.0)
        report = properties.ia_relay(cluster, 0)
        assert not report.holds
        ((value, why, spread),) = report.details["failures"]
        assert (value, why) == ("'a'", "accept spread")
        assert spread == pytest.approx(3 * params4.d)

    def test_relay_flags_anchor_spread(self, params4):
        cluster = make_cluster(params4, seed=25)
        for node_id in cluster.correct_ids:  # accepts together, anchors 7d apart
            anchor = 2.0 if node_id == 0 else 9.0
            record_i_accept(cluster, node_id, 10.0, "a", anchor)
        report = properties.ia_relay(cluster, 0)
        assert not report.holds
        ((value, why, spread),) = report.details["failures"]
        assert (value, why) == ("'a'", "anchor spread")
        assert spread == pytest.approx(7 * params4.d)


class TestTpsCheckers:
    def test_correctness_flags_missing_accepts(self, params4):
        cluster = make_cluster(params4, seed=13)
        cluster.tracer.record(0.0, 0, "mb_invoke", general=0, value="v", k=1)
        # No accepts recorded at all.
        assert not properties.tps_correctness(cluster, 0).holds

    def test_correctness_flags_late_accepts(self, params4):
        cluster = make_cluster(params4, seed=26)
        cluster.tracer.record(0.0, 0, "mb_invoke", general=0, value="v", k=1)
        for node_id in cluster.correct_ids:  # node 2 accepts 4d after, not 3d
            t = 4 * params4.d if node_id == 2 else params4.d
            cluster.tracer.record(
                t, node_id, "mb_accept", general=0, origin=0, value="v", k=1
            )
        report = properties.tps_correctness(cluster, 0)
        assert not report.holds
        assert report.details["failures"] == [
            (0, "v", 1, "late", {2: 4 * params4.d})
        ]

    def test_unforgeability_flags_uninvoked_accept(self, params4):
        cluster = make_cluster(params4, seed=14)
        cluster.tracer.record(
            0.0, 0, "mb_accept", general=0, origin=1, value="v", k=1
        )
        assert not properties.tps_unforgeability(cluster, 0).holds

    def test_detection_flags_false_broadcaster(self, params4):
        cluster = make_cluster(params4, seed=15)
        cluster.tracer.record(0.0, 0, "mb_broadcaster", general=0, origin=2, k=1)
        assert not properties.tps_detection(cluster, 0).holds

    def test_relay_flags_accept_spread(self, params4):
        cluster = make_cluster(params4, seed=27)
        for node_id in cluster.correct_ids:  # 5d from first to last, not 4d
            t = 6.0 if node_id == 1 else 1.0
            cluster.tracer.record(
                t, node_id, "mb_accept", general=0, origin=1, value="v", k=1
            )
        report = properties.tps_relay(cluster, 0)
        assert not report.holds
        ((triplet, why, spread),) = report.details["failures"]
        assert (triplet, why) == ((1, "v", 1), "spread")
        assert spread == pytest.approx(5 * params4.d)

    def test_relay_flags_partial_accepts(self, params4):
        cluster = make_cluster(params4, seed=16)
        cluster.tracer.record(
            0.0, 0, "mb_accept", general=0, origin=9, value="v", k=1
        )
        # Only one of four correct nodes accepted.
        assert not properties.tps_relay(cluster, 0).holds


class TestReportApi:
    def test_bool_protocol(self):
        good = properties.PropertyReport("x", True)
        bad = properties.PropertyReport("x", False, {"why": "because"})
        assert good and not bad

    def test_expect_raises_with_details(self):
        bad = properties.PropertyReport("prop", False, {"why": "because"})
        with pytest.raises(AssertionError, match="prop violated"):
            bad.expect()

    def test_check_all_stable_runs_every_checker(self, params4):
        cluster = make_cluster(params4, seed=17)
        run_agreement(cluster, general=0, value="v")
        reports = properties.check_all_stable(cluster, 0)
        assert len(reports) == 8
        assert all(reports)
