"""Unit tests for bounded-drift clocks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ProtocolParams
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.sim.clock import ClockConfig, DriftClock
from repro.sim.engine import Simulator


class TestClockConfig:
    def test_defaults(self):
        cfg = ClockConfig()
        assert cfg.rate == 1.0
        assert cfg.offset == 0.0

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            ClockConfig(rate=0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ClockConfig(rate=-0.5)


class TestReading:
    def test_identity_clock_tracks_real_time(self):
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig())
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        assert clock.local_now() == pytest.approx(5.0)

    def test_offset_shifts_reading(self):
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig(offset=100.0))
        assert clock.local_now() == pytest.approx(100.0)
        sim.schedule_at(3.0, lambda: None)
        sim.run()
        assert clock.local_now() == pytest.approx(103.0)

    def test_fast_clock_runs_fast(self):
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig(rate=1.1))
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        assert clock.local_now() == pytest.approx(11.0)

    def test_slow_clock_runs_slow(self):
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig(rate=0.9))
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        assert clock.local_now() == pytest.approx(9.0)

    def test_local_at_arbitrary_real_time(self):
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig(rate=2.0, offset=1.0))
        assert clock.local_at(3.0) == pytest.approx(7.0)


class TestInverse:
    def test_real_at_local_roundtrip(self):
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig(rate=1.00005, offset=77.0))
        for real in (0.0, 1.5, 100.0):
            assert clock.real_at_local(clock.local_at(real)) == pytest.approx(real)

    def test_real_delay_for_local(self):
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig(rate=2.0))
        assert clock.real_delay_for_local(10.0) == pytest.approx(5.0)

    def test_negative_interval_rejected(self):
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig())
        with pytest.raises(ValueError):
            clock.real_delay_for_local(-1.0)

    def test_local_elapsed_between(self):
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig(rate=1.5))
        assert clock.local_at(6.0) - clock.local_at(2.0) == pytest.approx(6.0)


class TestCorruption:
    def test_corrupt_offset_changes_reading_not_rate(self):
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig(rate=1.2))
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        clock.corrupt_offset(1000.0)
        assert clock.local_now() == pytest.approx(1000.0)
        assert clock.rate == 1.2
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        # Still advances at the hardware rate after corruption.
        assert clock.local_now() == pytest.approx(1000.0 + 1.2 * 5.0)

    def test_intervals_after_corruption_are_consistent(self):
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig())
        clock.corrupt_offset(-500.0)
        a = clock.local_now()
        sim.schedule_at(7.0, lambda: None)
        sim.run()
        assert clock.local_now() - a == pytest.approx(7.0)


class TestDriftBound:
    def test_check_drift_bound(self):
        """Every clock a scenario builds meets Definition 1's rate bound."""
        params = ProtocolParams(n=7, f=2, delta=1.0, rho=1e-3)
        cluster = Cluster(ScenarioConfig(params=params, seed=4))
        rates = [node.clock.rate for node in cluster.correct_nodes()]
        assert all(1 - params.rho <= rate <= 1 + params.rho for rate in rates)
        assert len(set(rates)) == len(rates)  # drawn per node, not shared

    @given(
        rate=st.floats(min_value=0.99, max_value=1.01),
        interval=st.floats(min_value=0.0, max_value=1000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_paper_drift_inequality(self, rate, interval):
        """Definition 1: (1-rho)(v-u) <= local(v)-local(u) <= (1+rho)(v-u)."""
        rho = 0.01
        sim = Simulator()
        clock = DriftClock(sim, ClockConfig(rate=rate))
        elapsed_local = clock.local_at(interval) - clock.local_at(0.0)
        assert (1 - rho) * interval - 1e-9 <= elapsed_local <= (1 + rho) * interval + 1e-9
