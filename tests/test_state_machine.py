"""The replicated state machine on the sim: ``ReplicaApplier`` fed by a
``ConcurrentGeneral``, and the ``DecisionTap`` chain it is built on."""

from __future__ import annotations

import pytest

from repro.core.agreement import Decision
from repro.core.params import BOTTOM, ProtocolParams
from repro.faults.byzantine import CrashStrategy, MirrorParticipantStrategy
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.net.network import Envelope
from repro.service.applier import DecisionTap, ReplicaApplier, batch_digest
from repro.service.coordinator import ConcurrentGeneral


@pytest.fixture
def params7() -> ProtocolParams:
    return ProtocolParams(n=7, f=2, delta=1.0, rho=1e-4)


def _replicate(cluster, commands) -> dict:
    """Each command as one slot through the sim: the primary (node 0)
    pushes the body and proposes its digest, one applier per correct node."""
    appliers = {
        node_id: ReplicaApplier(cluster.protocol_node(node_id), primary=0)
        for node_id in cluster.correct_ids
    }
    primary = cluster.protocol_node(0)
    general = ConcurrentGeneral(primary)
    for slot, command in enumerate(commands):
        primary.broadcast(("body", slot, (command,)))
        assert general.propose(batch_digest((command,))) == slot
    params = cluster.params
    cluster.run_for(params.delta_agr + 10 * params.d)
    return appliers


class TestReplication:
    def test_batch_applies_in_order_everywhere(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=1))
        commands = [f"cmd{i}" for i in range(6)]
        appliers = _replicate(cluster, commands)
        expected = [(slot, (cmd,)) for slot, cmd in enumerate(commands)]
        assert all(a.applied == expected for a in appliers.values())

    def test_with_crashed_and_byzantine_replicas(self, params7):
        cluster = Cluster(
            ScenarioConfig(
                params=params7,
                seed=2,
                byzantine={5: CrashStrategy(), 6: MirrorParticipantStrategy()},
            )
        )
        commands = ["a", "b", "c", "d"]
        appliers = _replicate(cluster, commands)
        expected = [(slot, (cmd,)) for slot, cmd in enumerate(commands)]
        assert all(a.applied == expected for a in appliers.values())

    def test_duplicate_decisions_ignored(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=5))
        node = cluster.protocol_node(1)
        applier = ReplicaApplier(node, primary=0)
        node.on_message(
            Envelope(sender=0, receiver=1, payload=("body", 0, ("once",)),
                     sent_at=0.0, delivered_at=0.0)
        )
        dec = _decision(batch_digest(("once",)))
        applier._on_decision(dec)
        applier._on_decision(dec)
        assert applier.applied == [(0, ("once",))]

    def test_preserves_prior_decision_callback(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=6))
        node = cluster.protocol_node(2)
        seen = []
        node.on_decision = lambda dec: seen.append(dec.value)
        ReplicaApplier(node, primary=0)
        ConcurrentGeneral(cluster.protocol_node(0)).propose("hello")
        cluster.run_for(params7.delta_agr + 10 * params7.d)
        assert "hello" in seen


class _Probe(DecisionTap):
    """Minimal concrete tap: records every decision it observes."""

    def __init__(self, node) -> None:
        self.seen: list = []
        super().__init__(node)

    def _on_decision(self, decision) -> None:
        self.seen.append(decision.value)


def _decision(value, index: int = 0) -> Decision:
    return Decision(
        node=1,
        general=(0, index),
        value=value,
        tau_g_local=0.0,
        tau_g_real=0.0,
        returned_local=1.0,
        returned_real=1.0,
    )


class TestDecisionTapChaining:
    def test_detach_head_restores_previous_callback(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=20))
        node = cluster.protocol_node(1)
        base_seen = []
        node.on_decision = lambda dec: base_seen.append(dec.value)
        original = node.on_decision
        probe = _Probe(node)
        node.on_decision(_decision("a"))
        assert probe.seen == ["a"] and base_seen == ["a"]
        probe.detach()
        assert node.on_decision is original
        node.on_decision(_decision("b"))
        assert probe.seen == ["a"] and base_seen == ["a", "b"]

    def test_detach_middle_splices_chain(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=21))
        node = cluster.protocol_node(1)
        lower = _Probe(node)
        upper = _Probe(node)  # stacked on top of lower
        node.on_decision(_decision("a"))
        assert lower.seen == ["a"] and upper.seen == ["a"]
        lower.detach()  # middle of the chain: upper still installed
        node.on_decision(_decision("b"))
        assert lower.seen == ["a"]
        assert upper.seen == ["a", "b"]

    def test_detach_in_any_order(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=22))
        node = cluster.protocol_node(1)
        taps = [_Probe(node) for _ in range(3)]
        taps[1].detach()
        taps[2].detach()
        node.on_decision(_decision("x"))
        assert taps[0].seen == ["x"]
        assert taps[1].seen == [] and taps[2].seen == []
        taps[0].detach()
        assert node.on_decision is None
        taps[0].detach()  # idempotent

    def test_foreign_interposed_callback_leaves_inert_tap(self, params7):
        cluster = Cluster(ScenarioConfig(params=params7, seed=23))
        node = cluster.protocol_node(1)
        probe = _Probe(node)
        # Someone overwrites on_decision with a plain closure that wraps the
        # tap's dispatch: the tap cannot be spliced out structurally.
        inner = node.on_decision
        outer_seen = []

        def wrapper(dec):
            inner(dec)
            outer_seen.append(dec.value)

        node.on_decision = wrapper
        probe.detach()
        node.on_decision(_decision("z"))
        # The chain keeps working; the detached tap is an inert pass-through.
        assert outer_seen == ["z"]
        assert probe.seen == []

    def test_replica_detach_composes_with_observers(self, params7):
        """A ReplicaApplier is a DecisionTap: stacking and detaching compose."""
        cluster = Cluster(ScenarioConfig(params=params7, seed=24))
        node = cluster.protocol_node(1)
        replica = ReplicaApplier(node, primary=0)
        probe = _Probe(node)
        node.on_decision(_decision(BOTTOM))
        assert replica.skipped == [0] and probe.seen == [BOTTOM]
        replica.detach()
        node.on_decision(_decision(BOTTOM, index=1))
        assert replica.skipped == [0]  # detached: no longer applying
        assert probe.seen == [BOTTOM, BOTTOM]
