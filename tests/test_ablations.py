"""Tests for the ablations A1..A3 (small seed budgets)."""

from __future__ import annotations

import pytest

from repro.core.params import ProtocolParams
from repro.harness.registry import run_experiment


class TestPhiScaleKnob:
    def test_phi_scale_scales_phase(self):
        base = ProtocolParams(n=7, f=2, delta=1.0)
        half = ProtocolParams(n=7, f=2, delta=1.0, phi_scale=0.5)
        assert half.phi == pytest.approx(base.phi / 2)
        assert half.delta_agr == pytest.approx(base.delta_agr / 2)

    def test_phi_scale_validated(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=7, f=2, phi_scale=0.0)


class TestA1:
    def test_paper_phi_safe_small_phi_broken(self):
        rows = run_experiment("a1", phi_scales=(0.25, 1.0), seeds=range(4))
        small, paper = rows[0], rows[1]
        assert paper["violations"] == 0
        assert small["violations"] > 0


class TestA2:
    def test_default_cadence_recovers(self):
        rows = run_experiment("a2", intervals_d=(1.0, 4.0), seeds=range(2))
        for row in rows:
            assert row["recovered"] == row["runs"]


class TestA3:
    def test_throttle_trades_messages_not_correctness(self):
        rows = run_experiment("a3", gaps_d=(0.5, 2.0), seeds=range(2))
        assert all(row["validity_ok"] == row["runs"] for row in rows)
        assert rows[0]["messages_mean"] >= rows[1]["messages_mean"]
