"""Soak tests: long multi-agreement workloads with continuous checking."""

from __future__ import annotations

import pytest

from repro.core.params import ProtocolParams
from repro.faults.byzantine import MirrorParticipantStrategy
from repro.harness import properties
from repro.harness.scenario import Cluster, ScenarioConfig
from tests.adversaries import ReplayStrategy
from tests.workloads import (
    ChurnEvent,
    run_churn_stream,
    run_interleaved_generals,
    run_round_robin_generals,
    run_sequential_stream,
)


@pytest.fixture
def params7() -> ProtocolParams:
    return ProtocolParams(n=7, f=2, delta=1.0, rho=1e-4)


class TestSequentialStream:
    def test_ten_agreements_all_clean(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=1))
        records = run_sequential_stream(
            cluster, general=0, values=[f"v{i}" for i in range(10)]
        )
        assert len(records) == 10
        assert all(rec.validity_ok and rec.agreement_ok for rec in records)
        properties.separation(cluster, 0).expect()

    def test_stream_with_byzantine_participant(self, params7):
        cluster = Cluster(
            ScenarioConfig(
                params=params7, seed=2, byzantine={6: MirrorParticipantStrategy()}
            )
        )
        records = run_sequential_stream(
            cluster, general=0, values=[f"v{i}" for i in range(5)]
        )
        assert all(rec.validity_ok for rec in records)

    def test_stream_with_replay_attacker(self, params7):
        """Replayed stale waves must not produce phantom agreements."""
        cluster = Cluster(
            ScenarioConfig(
                params=params7,
                seed=3,
                byzantine={
                    6: ReplayStrategy(delay_local=20 * params7.d, bursts=4)
                },
            )
        )
        records = run_sequential_stream(
            cluster, general=0, values=["a", "b", "c"]
        )
        assert all(rec.validity_ok and rec.agreement_ok for rec in records)
        properties.separation(cluster, 0).expect()
        # No decision may exist that does not correspond to a real proposal.
        values_decided = {
            dec.value for dec in cluster.decisions(0) if dec.decided
        }
        assert values_decided <= {"a", "b", "c"}


class TestMultiGeneral:
    def test_round_robin(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=4))
        records = run_round_robin_generals(cluster, generals=(0, 1, 2), rounds=2)
        assert len(records) == 6
        assert all(rec.validity_ok and rec.agreement_ok for rec in records)

    def test_interleaved_concurrent_generals(self, params7):
        """Three Generals initiating simultaneously: instances independent."""
        cluster = Cluster(ScenarioConfig(params=params7, seed=5))
        records = run_interleaved_generals(
            cluster, generals=(0, 1, 2), values_per_general=2
        )
        assert len(records) == 6
        assert all(rec.validity_ok and rec.agreement_ok for rec in records)


class TestChurn:
    def test_crash_and_resume_mid_stream(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=6))
        churn = [
            ChurnEvent(step=1, node=5, action="crash"),
            ChurnEvent(step=2, node=6, action="crash"),
            ChurnEvent(step=3, node=5, action="resume"),
            ChurnEvent(step=4, node=6, action="resume"),
        ]
        records = run_churn_stream(
            cluster,
            general=0,
            values=[f"v{i}" for i in range(6)],
            churn=churn,
        )
        assert all(rec.validity_ok for rec in records), [
            (rec.value, rec.validity_ok) for rec in records
        ]
        assert all(rec.agreement_ok for rec in records)

    def test_churn_beyond_f_rejected(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=7))
        churn = [
            ChurnEvent(step=0, node=4, action="crash"),
            ChurnEvent(step=0, node=5, action="crash"),
            ChurnEvent(step=0, node=6, action="crash"),
        ]
        with pytest.raises(ValueError, match="exceeds the fault bound"):
            run_churn_stream(cluster, 0, ["v"], churn)

    def test_unknown_action_rejected(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=8))
        with pytest.raises(ValueError, match="unknown churn action"):
            run_churn_stream(
                cluster, 0, ["v"], [ChurnEvent(step=0, node=5, action="reboot")]
            )
