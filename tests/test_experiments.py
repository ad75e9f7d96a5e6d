"""End-to-end checks of the registered experiments with tiny seed budgets.

Each test asserts the *pass criteria* EXPERIMENTS.md reports: paper bounds
hold, shapes point the right way.
"""

from __future__ import annotations

import pytest

from repro.harness.registry import run_experiment


class TestE1:
    def test_validity_and_bounds(self):
        rows = run_experiment("e1", ns=(4, 7), seeds=range(3))
        for row in rows:
            assert row["validity_ok"] == row["runs"]
            assert row["timeliness_ok"] == row["runs"]
            assert row["latency_max_d"] <= row["latency_bound_d"]
            assert row["spread_max_d"] <= row["spread_bound_d"]


class TestE2:
    def test_agreement_under_all_attacks(self):
        rows = run_experiment("e2", seeds=range(2))
        for row in rows:
            assert row["agreement_ok"] == row["runs"], row
            assert row["splits"] == 0


class TestE3:
    def test_stabilization(self):
        rows = run_experiment("e3", seeds=range(2))
        row = rows[0]
        assert row["proposal_unblocked"] == row["runs"]
        assert row["post_stb_validity"] == row["runs"]
        assert row["post_stb_timeliness"] == row["runs"]


class TestE4:
    def test_early_stopping_shape(self):
        rows = run_experiment("e4", n=10, seeds=range(2))
        assert all(row["validity_ok"] == row["runs"] for row in rows)
        # Latency grows with f' but stays far below the worst-case bound.
        means = [row["latency_mean_d"] for row in rows]
        assert means[0] <= means[-1]
        assert all(
            row["latency_max_d"] < row["worstcase_bound_d"] / 2 for row in rows
        )


class TestE5:
    def test_message_driven_speedup(self):
        rows = run_experiment("e5", seeds=range(2), delay_fracs=(0.1, 1.0))
        fast, slow = rows[0], rows[1]
        # ss-Byz-Agree tracks actual delay; TPS'87 does not.
        assert fast["ss_latency_mean"] < slow["ss_latency_mean"]
        assert fast["tps_latency_mean"] == pytest.approx(slow["tps_latency_mean"])
        assert fast["speedup"] > slow["speedup"] > 1.0


class TestE6:
    def test_bound_is_tight(self):
        rows = run_experiment("e6", seeds=range(3))
        within, beyond = rows[0], rows[1]
        assert within["agreement_ok"] == within["runs"]
        assert beyond["splits"] == beyond["runs"]


class TestE7:
    def test_ia_bounds(self):
        rows = run_experiment("e7", ns=(4, 7), seeds=range(2))
        for row in rows:
            assert row["ia1_ok"] == row["runs"]
            assert row["accept_spread_max_d"] <= row["accept_spread_bound_d"]
            assert row["anchor_spread_max_d"] <= row["anchor_spread_bound_d"]


class TestE8:
    def test_separation(self):
        rows = run_experiment("e8", seeds=range(1), rounds=2)
        row = rows[0]
        assert row["separation_ok"] == row["runs"]
        assert row["separation_and_agreement_ok"] == row["runs"]


class TestE9:
    def test_scaling_shape(self):
        rows = run_experiment("e9", ns=(4, 7, 10), seeds=range(1))
        messages = [row["messages_mean"] for row in rows]
        assert messages == sorted(messages)  # grows with n
        # Latency stays roughly flat (message-driven, independent of n).
        latencies = [row["latency_mean_d"] for row in rows]
        assert max(latencies) < 4.0


class TestE10:
    def test_classic_fails_ss_recovers(self):
        rows = run_experiment("e10", seeds=range(3))
        row = rows[0]
        assert row["eig_agreed_on_garbage"] + row["eig_disagreement"] == row["runs"]
        assert row["ss_byz_agree_recovered"] == row["runs"]
