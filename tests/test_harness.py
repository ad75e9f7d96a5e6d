"""Tests for scenario construction, metrics, and stats helpers."""

from __future__ import annotations

import pytest

from repro.core.params import BOTTOM, ProtocolParams
from repro.harness import metrics
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.harness.stats import percentile, summarize
from repro.faults.byzantine import CrashStrategy

from tests.conftest import make_cluster, run_agreement


@pytest.fixture
def params4() -> ProtocolParams:
    return ProtocolParams(n=4, f=1, delta=1.0, rho=1e-4)


class TestScenario:
    def test_builds_requested_topology(self, params4):
        cluster = make_cluster(params4, seed=1, byzantine={3: CrashStrategy()})
        assert cluster.correct_ids == [0, 1, 2]
        assert cluster.byzantine_ids == [3]
        assert len(cluster.nodes) == 4

    def test_rejects_too_many_byzantine(self, params4):
        with pytest.raises(ValueError):
            make_cluster(
                params4,
                byzantine={2: CrashStrategy(), 3: CrashStrategy()},
            )

    def test_allow_extra_byzantine_flag(self, params4):
        cluster = Cluster(
            ScenarioConfig(
                params=params4,
                byzantine={2: CrashStrategy(), 3: CrashStrategy()},
                allow_extra_byzantine=True,
            )
        )
        assert len(cluster.byzantine_ids) == 2

    def test_same_seed_reproduces_run_exactly(self, params4):
        a = make_cluster(params4, seed=9)
        b = make_cluster(params4, seed=9)
        run_agreement(a, general=0, value="v")
        run_agreement(b, general=0, value="v")
        da = [(d.node, d.value, d.returned_real) for d in a.decisions(0)]
        db = [(d.node, d.value, d.returned_real) for d in b.decisions(0)]
        assert da == db

    def test_different_seeds_differ(self, params4):
        a = make_cluster(params4, seed=1)
        b = make_cluster(params4, seed=2)
        run_agreement(a, general=0, value="v")
        run_agreement(b, general=0, value="v")
        ta = sorted(d.returned_real for d in a.decisions(0))
        tb = sorted(d.returned_real for d in b.decisions(0))
        assert ta != tb

    def test_drift_rates_within_rho(self, params4):
        cluster = make_cluster(params4, seed=3)
        for node in cluster.correct_nodes():
            assert 1 - params4.rho <= node.clock.rate <= 1 + params4.rho

    def test_drift_disabled(self, params4):
        cluster = make_cluster(params4, seed=4, drifted_rates=False)
        assert all(n.clock.rate == 1.0 for n in cluster.correct_nodes())

    def test_protocol_node_accessor_type_checks(self, params4):
        cluster = make_cluster(params4, seed=5, byzantine={3: CrashStrategy()})
        with pytest.raises(TypeError):
            cluster.protocol_node(3)

    def test_propose_via_byzantine_general_raises(self, params4):
        cluster = make_cluster(params4, seed=6, byzantine={0: CrashStrategy()})
        with pytest.raises(TypeError):
            cluster.propose(0, "v")


class TestMetrics:
    def test_spreads_and_latencies(self, params4):
        cluster = make_cluster(params4, seed=7)
        t0 = run_agreement(cluster, general=0, value="v")
        decs = cluster.decisions(0)
        spread = metrics.decision_spread_real(decs)
        anchors = metrics.anchor_spread_real(decs)
        lats = metrics.decision_latencies(decs, t0)
        assert spread is not None and spread >= 0
        assert anchors is not None and anchors >= 0
        assert len(lats) == len(decs)
        assert all(lat > 0 for lat in lats)

    def test_spread_none_for_singletons(self):
        assert metrics.decision_spread_real([]) is None

    def test_decided_only_filters_bottom(self, params4):
        cluster = make_cluster(params4, seed=8)
        from tests.test_properties_checkers import forged_decision

        decs = [
            forged_decision(cluster, 0, "v"),
            forged_decision(cluster, 1, BOTTOM),
        ]
        assert len(metrics.decided_only(decs)) == 1
        assert metrics.decision_values(decs) == {"v"}

    def test_message_stats(self, params4):
        cluster = make_cluster(params4, seed=9)
        run_agreement(cluster, general=0, value="v")
        stats = metrics.message_stats(cluster)
        assert stats["sent"] > 0
        assert stats["delivered"] <= stats["sent"]

    def test_i_accept_events_translation(self, params4):
        cluster = make_cluster(params4, seed=10)
        t0 = run_agreement(cluster, general=0, value="v")
        events = metrics.i_accept_events(cluster, 0)
        assert len(events) == len(cluster.correct_ids)
        for _node, real_t, value, anchor_real in events:
            assert value == "v"
            # Anchor (real) must sit near the initiation, before the accept.
            assert t0 - 2 * params4.d <= anchor_real <= real_t


class TestStats:
    def test_summarize_basics(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.p50 == 2.5

    def test_summarize_empty(self):
        assert summarize([]) is None

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5

    def test_percentile_single(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_summary_as_dict(self):
        s = summarize([5.0])
        assert s.as_dict()["count"] == 1


class TestSummarizeLatencies:
    """Nearest-rank percentiles, verified against hand-computed values.

    Nearest-rank: the q-th percentile of a sorted n-sample is the
    ``ceil(q * n)``-th smallest value.  The old ``int(q * n)`` index was
    one rank high everywhere it mattered: p50 of an even-sized sample
    took the upper middle, and p99 of exactly 100 samples took the max.
    """

    def test_even_sample_p50_is_lower_middle(self):
        from repro.harness.stats import summarize_latencies

        out = summarize_latencies([0.004, 0.001, 0.003, 0.002])
        # ceil(0.5 * 4) = 2nd smallest = 2ms (the buggy index gave 3ms).
        assert out["p50_ms"] == pytest.approx(2.0)
        # ceil(0.99 * 4) = 4th smallest: p99 of 4 samples IS the max.
        assert out["p99_ms"] == pytest.approx(4.0)
        assert out["mean_ms"] == pytest.approx(2.5)
        assert out["max_ms"] == pytest.approx(4.0)

    def test_p99_of_100_samples_is_99th_value_not_max(self):
        from repro.harness.stats import summarize_latencies

        out = summarize_latencies([i / 1000.0 for i in range(1, 101)])
        assert out["p50_ms"] == pytest.approx(50.0)
        # ceil(0.99 * 100) = 99th smallest = 99ms (the buggy index
        # returned the 100th -- the max -- so p99 == max on every
        # 100-sample run).
        assert out["p99_ms"] == pytest.approx(99.0)
        assert out["max_ms"] == pytest.approx(100.0)

    def test_odd_sample_p50_is_exact_middle(self):
        from repro.harness.stats import summarize_latencies

        out = summarize_latencies([0.005, 0.001, 0.003])
        assert out["p50_ms"] == pytest.approx(3.0)

    def test_single_sample_and_empty(self):
        from repro.harness.stats import summarize_latencies

        out = summarize_latencies([0.007])
        assert out["p50_ms"] == pytest.approx(7.0)
        assert out["p99_ms"] == pytest.approx(7.0)
        assert out["max_ms"] == pytest.approx(7.0)
        zeros = summarize_latencies([])
        assert zeros == {
            "p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0, "max_ms": 0.0
        }
