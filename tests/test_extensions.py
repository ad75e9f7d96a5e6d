"""Concurrent indexed invocations of one General (paper footnote 9)."""

from __future__ import annotations

import pytest

from repro.core.params import ProtocolParams
from repro.faults.byzantine import MirrorParticipantStrategy
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.service.coordinator import (
    ConcurrentGeneral,
    IndexReuseError,
    indexed_general,
)


@pytest.fixture
def params7() -> ProtocolParams:
    return ProtocolParams(n=7, f=2, delta=1.0, rho=1e-4)


def decisions_at(node, general: int) -> dict:
    """Latest decision per index of ``general`` as observed by one node."""
    out = {}
    for dec in node.decisions:
        key = dec.general
        if isinstance(key, tuple) and key[0] == general:
            held = out.get(key[1])
            if held is None or dec.returned_real > held.returned_real:
                out[key[1]] = dec
    return out


def decided_values(cluster, general: int = 0) -> dict[int, set]:
    """Index -> the values the correct nodes decided for it."""
    out: dict[int, set] = {}
    for node in cluster.correct_nodes():
        for index, dec in decisions_at(node, general).items():
            if dec.decided:
                out.setdefault(index, set()).add(dec.value)
    return out


class TestConcurrentInvocations:
    def test_three_concurrent_agreements(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=1))
        cg = ConcurrentGeneral(cluster.protocol_node(0))
        indexes = [cg.propose(v) for v in ("a", "b", "c")]
        assert indexes == [0, 1, 2]
        cluster.run_for(params7.delta_agr + 10 * params7.d)
        values = decided_values(cluster)
        assert values == {0: {"a"}, 1: {"b"}, 2: {"c"}}

    def test_no_pacing_across_indexes(self, params7):
        """The whole point: back-to-back initiations are legal."""
        cluster = Cluster(ScenarioConfig(params=params7, seed=2))
        cg = ConcurrentGeneral(cluster.protocol_node(0))
        for i in range(5):
            cg.propose(f"v{i}")  # no waiting whatsoever
        cluster.run_for(params7.delta_agr + 10 * params7.d)
        values = decided_values(cluster)
        assert values == {i: {f"v{i}"} for i in range(5)}

    def test_index_reuse_within_delta_v_rejected(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=3))
        cg = ConcurrentGeneral(cluster.protocol_node(0))
        cg.propose("a", index=7)
        with pytest.raises(ValueError, match="reused within Delta_v"):
            cg.propose("b", index=7)

    def test_index_reuse_error_is_typed(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=8))
        cg = ConcurrentGeneral(cluster.protocol_node(0))
        cg.propose("a", index=0)
        with pytest.raises(IndexReuseError):
            cg.propose("b", index=0)
        assert issubclass(IndexReuseError, ValueError)

    def test_reuse_allowed_after_delta_v(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=9))
        cg = ConcurrentGeneral(cluster.protocol_node(0))
        cg.propose("a", index=7)
        cluster.run_for(params7.delta_v + params7.d)
        cg.propose("b", index=7)  # pacing satisfied: no error

    def test_explicit_index_bumps_allocator(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=10))
        cg = ConcurrentGeneral(cluster.protocol_node(0))
        cg.propose("a", index=5)
        assert cg.next_index == 6
        # The next default allocation cannot collide with the explicit one.
        assert cg.propose("b") == 6

    def test_pacing_map_pruned_after_delta_v(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=11))
        cg = ConcurrentGeneral(cluster.protocol_node(0))
        for _ in range(10):
            cg.propose("v")
        assert len(cg._index_last_used) == 10
        cluster.run_for(params7.delta_v + params7.d)
        cg.propose("fresh")
        # Expired stamps were swept; only the fresh initiation remains.
        assert len(cg._index_last_used) == 1

    def test_agreement_per_index_with_byzantine_participant(self, params7):
        cluster = Cluster(
            ScenarioConfig(
                params=params7, seed=4, byzantine={6: MirrorParticipantStrategy()}
            )
        )
        cg = ConcurrentGeneral(cluster.protocol_node(0))
        cg.propose("x")
        cg.propose("y")
        cluster.run_for(params7.delta_agr + 10 * params7.d)
        values = decided_values(cluster)
        assert all(len(vals) == 1 for vals in values.values())
        assert values[0] == {"x"} and values[1] == {"y"}

    def test_indexed_key_shape(self):
        assert indexed_general(3, 9) == (3, 9)

    def test_each_node_records_indexed_decisions(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=5))
        cg = ConcurrentGeneral(cluster.protocol_node(0))
        cg.propose("solo")
        cluster.run_for(params7.delta_agr + 10 * params7.d)
        for node in cluster.correct_nodes():
            per_index = decisions_at(node, 0)
            assert per_index[0].value == "solo"
            assert per_index[0].general == (0, 0)
