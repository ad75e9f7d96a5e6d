"""Agreement must survive every Byzantine strategy in the repertoire."""

from __future__ import annotations

import pytest

from repro.core.params import ProtocolParams
from repro.faults.byzantine import (
    ByzantineNode,
    CrashStrategy,
    EquivocatingGeneralStrategy,
    MirrorParticipantStrategy,
    ScriptedStrategy,
    SelectiveGeneralStrategy,
    SplitWorldStrategy,
    StaggeredGeneralStrategy,
    TwoFacedParticipantStrategy,
)
from repro.core.messages import InitiatorMsg, ReadyMsg, SupportMsg
from repro.harness import properties
from repro.harness.scenario import Cluster, ScenarioConfig

from tests.adversaries import NoiseStrategy
from tests.conftest import make_cluster, run_agreement


@pytest.fixture
def params7() -> ProtocolParams:
    return ProtocolParams(n=7, f=2, delta=1.0, rho=1e-4)


class TestByzantineGeneral:
    def test_equivocating_general_never_splits(self, params7):
        for seed in range(5):
            byz = {0: EquivocatingGeneralStrategy("A", "B", (1, 2, 3), (4, 5, 6))}
            cluster = make_cluster(params7, seed=seed, byzantine=byz)
            cluster.run_for(3 * params7.delta_agr)
            properties.agreement(cluster, 0).expect()

    def test_equivocation_with_twofaced_helper(self, params7):
        for seed in range(5):
            byz = {
                0: EquivocatingGeneralStrategy("A", "B", (1, 2, 3), (4, 5)),
                6: TwoFacedParticipantStrategy((1, 2, 3)),
            }
            cluster = make_cluster(params7, seed=seed, byzantine=byz)
            cluster.run_for(3 * params7.delta_agr)
            properties.agreement(cluster, 0).expect()
            properties.separation(cluster, 0).expect()

    @pytest.mark.parametrize("spread_d", [1.0, 4.0, 10.0, 24.0])
    def test_staggered_general(self, params7, spread_d):
        for seed in range(3):
            byz = {0: StaggeredGeneralStrategy("S", spread_local=spread_d * params7.d)}
            cluster = make_cluster(params7, seed=seed, byzantine=byz)
            cluster.run_for(3 * params7.delta_agr)
            properties.agreement(cluster, 0).expect()

    def test_selective_general_above_quorum_all_decide(self, params7):
        byz = {0: SelectiveGeneralStrategy("X", (1, 2, 3, 4, 5))}
        cluster = make_cluster(params7, seed=3, byzantine=byz)
        cluster.run_for(3 * params7.delta_agr)
        rep = properties.agreement(cluster, 0)
        rep.expect()
        latest = cluster.latest_decision_per_node(0)
        # With 5 of 6 correct nodes seeded, the wave completes: all decide.
        assert all(dec.decided for dec in latest.values())
        assert len(latest) == len(cluster.correct_ids)

    def test_selective_general_below_quorum_nobody_decides(self, params7):
        byz = {0: SelectiveGeneralStrategy("X", (1, 2))}
        cluster = make_cluster(params7, seed=4, byzantine=byz)
        cluster.run_for(3 * params7.delta_agr)
        latest = cluster.latest_decision_per_node(0)
        assert not any(dec.decided for dec in latest.values())

    def test_split_world_within_bound_holds(self, params7):
        for seed in range(5):
            byz = {
                0: EquivocatingGeneralStrategy("A", "B", (1, 2, 3), (4, 5)),
                6: SplitWorldStrategy(0, "A", "B", (1, 2, 3), (4, 5)),
            }
            cluster = make_cluster(params7, seed=seed, byzantine=byz)
            cluster.run_for(3 * params7.delta_agr)
            properties.agreement(cluster, 0).expect()

    def test_split_world_beyond_bound_breaks(self, params7):
        """With f' = 3 > f the partition attack succeeds: the bound is tight."""
        splits = 0
        for seed in range(5):
            byz = {
                0: EquivocatingGeneralStrategy("A", "B", (1, 2), (3, 4)),
                5: SplitWorldStrategy(0, "A", "B", (1, 2), (3, 4)),
                6: SplitWorldStrategy(0, "A", "B", (1, 2), (3, 4)),
            }
            cluster = Cluster(
                ScenarioConfig(
                    params=params7,
                    seed=seed,
                    byzantine=byz,
                    allow_extra_byzantine=True,
                )
            )
            cluster.run_for(3 * params7.delta_agr)
            if not properties.agreement(cluster, 0).holds:
                splits += 1
        assert splits >= 4  # the attack is essentially deterministic


class TestByzantineParticipants:
    def test_noise_does_not_disturb_correct_general(self, params7):
        byz = {
            6: lambda rng: NoiseStrategy(
                rng, ["A", "B", "v"], [0, 1, 6], interval_local=0.5 * params7.d
            )
        }
        cluster = make_cluster(params7, seed=5, byzantine=byz)
        run_agreement(cluster, general=0, value="v")
        properties.validity(cluster, 0, "v").expect()

    def test_mirror_does_not_disturb_correct_general(self, params7):
        byz = {6: MirrorParticipantStrategy()}
        cluster = make_cluster(params7, seed=6, byzantine=byz)
        run_agreement(cluster, general=0, value="v")
        properties.validity(cluster, 0, "v").expect()

    def test_two_byzantine_participants(self, params7):
        byz = {5: MirrorParticipantStrategy(), 6: TwoFacedParticipantStrategy((1, 2))}
        cluster = make_cluster(params7, seed=7, byzantine=byz)
        run_agreement(cluster, general=0, value="v")
        properties.validity(cluster, 0, "v").expect()
        properties.timeliness_agreement(cluster, 0).expect()

    def test_noise_cannot_forge_acceptance_for_correct_general(self, params7):
        """IA-2: f noisy nodes cannot forge a value on behalf of a *correct*
        General -- Initiator messages claiming node 0 fail the authenticated-
        sender check, and the noise alone can never assemble n - f quorums.

        (A noisy node claiming its *own* general-ship is a legitimate
        Byzantine initiation, not forgery -- see the Byzantine-General tests.)
        """
        byz = {
            5: lambda rng: NoiseStrategy(
                rng, ["forged"], [0], interval_local=0.3 * params7.d
            ),
            6: lambda rng: NoiseStrategy(
                rng, ["forged"], [0], interval_local=0.3 * params7.d
            ),
        }
        cluster = make_cluster(params7, seed=8, byzantine=byz)
        cluster.run_for(2 * params7.delta_agr)
        properties.ia_unforgeability(cluster, 0, "forged").expect()
        assert cluster.decisions(0) == []

    def test_noisy_self_general_preserves_agreement(self, params7):
        """A noisy node may legitimately initiate as its *own* General; the
        outcome may be a decision, but Agreement must hold regardless."""
        byz = {
            5: lambda rng: NoiseStrategy(
                rng, ["x", "y"], [5], interval_local=0.3 * params7.d
            ),
            6: lambda rng: NoiseStrategy(
                rng, ["x", "y"], [5], interval_local=0.3 * params7.d
            ),
        }
        for seed in range(4):
            cluster = make_cluster(params7, seed=seed, byzantine=byz)
            cluster.run_for(2 * params7.delta_agr)
            properties.agreement(cluster, 5).expect()


class TestScriptedEdges:
    def test_forged_ready_quorum_alone_is_ignored(self, params7):
        """f scripted nodes sending ready cannot trigger N4 (needs n - f)."""
        script = tuple(
            (i * 0.1 * params7.d, (1, 2, 3, 4), ReadyMsg(5, "evil")) for i in range(20)
        )
        byz = {5: ScriptedStrategy(script), 6: ScriptedStrategy(script)}
        cluster = make_cluster(params7, seed=9, byzantine=byz)
        cluster.run_for(params7.delta_agr)
        properties.ia_unforgeability(cluster, 5, "evil").expect()

    def test_support_at_window_boundary(self, params7):
        """Supports spread just over 2d never trigger an approve wave."""
        gap = 2.0 * params7.d + 0.01
        script = tuple(
            (i * gap, tuple(range(7)), SupportMsg(6, "edge")) for i in range(5)
        )
        byz = {6: ScriptedStrategy(script)}
        cluster = make_cluster(params7, seed=10, byzantine=byz)
        cluster.run_for(params7.delta_agr)
        # One Byzantine supporter is far below every quorum anyway, but more
        # importantly no correct node ever sends approve for the value.
        approvals = [
            ev
            for ev in cluster.tracer.of_kind("ia_approve_sent")
            if ev.detail.get("general") == 6 and ev.detail.get("value") == "edge"
        ]
        assert approvals == []

    def test_replayed_initiator_respects_last_gm(self, params7):
        """A General replaying (Initiator, G, m) every few d cannot make
        correct nodes send support repeatedly (Block K's last(G, m) guard)."""
        script = tuple(
            (i * 3.0 * params7.d, tuple(range(7)), InitiatorMsg(6, "replay"))
            for i in range(10)
        )
        byz = {6: ScriptedStrategy(script)}
        cluster = make_cluster(params7, seed=11, byzantine=byz)
        cluster.run_for(params7.delta_agr)
        per_node_supports: dict[int, int] = {}
        for ev in cluster.tracer.of_kind("ia_support_sent"):
            if ev.detail.get("general") == 6:
                per_node_supports[ev.node] = per_node_supports.get(ev.node, 0) + 1
        # Each correct node supports at most once per last(G, m) lifetime;
        # over Delta_agr = 40d that is a single support.
        assert all(count <= 2 for count in per_node_supports.values())
