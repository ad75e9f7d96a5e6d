"""Tests for the replicated command-log service.

Unit layer: the coordinator's windowing/batching/abort-requeue and the
applier's gap buffering, abort-as-skip, and measured retirement run against
the deterministic simulator.  Service layer: end-to-end open-loop runs on
the asyncio wall-clock backend, including a Crash/Restart churn timeline
the revenant heals from f+1 matching peer answers, lossy / Byzantine
delivery of the batch bodies the decided digests stand for, and two socket
runs: a SIGKILLed replica, and a SIGSTOPped primary whose full control pipe
the parent must not block on.  The socket primary's stamp-ordered release
of commands shipped ahead is tested on a hand-fired loop.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from functools import partial
from types import SimpleNamespace

import pytest

from repro.core.agreement import Decision
from repro.core.messages import SupportMsg
from repro.core.params import BOTTOM, ProtocolParams
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.net.delivery import DeliveryDecision, UniformDelay
from repro.net.network import Envelope
from repro.runtime.framing import FrameEncoder, OversizedFrameError, derive_key
from repro.service.applier import ReplicaApplier, batch_digest
from repro.service.coordinator import (
    ConcurrentGeneral,
    LogCoordinator,
    window_bounds,
)
from repro.service.workload import OpenLoopWorkload, StampRelease, arrival_offsets
from repro.sim.engine import Simulator


@pytest.fixture
def params4() -> ProtocolParams:
    return ProtocolParams(n=4, f=1, delta=1.0, rho=0.0)


#: The catch-up exchange's payload kinds (absent from a clean run).
CATCH_UP = {"outcome_req", "outcomes"}


def _decision(general: tuple, value, when: float = 1.0) -> Decision:
    return Decision(
        node=1,
        general=general,
        value=value,
        tau_g_local=0.0,
        tau_g_real=0.0,
        returned_local=when,
        returned_real=when,
    )


def _deliver(node, sender: int, payload) -> None:
    """Hand ``node`` one delivered payload from an authenticated sender."""
    node.on_message(
        Envelope(
            sender=sender,
            receiver=node.node_id,
            payload=payload,
            sent_at=0.0,
            delivered_at=0.0,
        )
    )


def _push_and_decide(applier: ReplicaApplier, slot: int, batch: tuple) -> None:
    """What a clean slot looks like at a replica: body, then its digest."""
    _deliver(applier.node, applier.primary, ("body", slot, batch))
    applier._on_decision(
        _decision((applier.primary, slot), batch_digest(batch))
    )


class TestCoordinator:
    def test_windowing_and_batching(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=1))
        coord = LogCoordinator(
            cluster.protocol_node(0), window=2, max_batch=5
        )
        for i in range(23):
            coord.submit_nowait(f"c{i}")
        # Launching is eager while the window has room (the first submits go
        # out solo); once it fills, the remainder queue for batching.
        assert coord.in_flight == 2
        assert coord.backlog == 21
        assert coord.peak_in_flight == 2
        cluster.run_for(6 * params4.delta_agr + 20 * params4.d)
        assert coord.in_flight == 0
        assert coord.backlog == 0
        assert coord.slots_decided == coord.slots_launched
        # Batching compressed 21 queued commands into max_batch-sized slots.
        assert coord.slots_decided < 23
        assert coord.slots_aborted == 0
        assert coord.commands_decided == 23
        assert len(coord.latencies) == 23
        assert all(lat >= 0.0 for lat in coord.latencies)

    def test_abort_requeues_batch_at_front(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=2))
        coord = LogCoordinator(
            cluster.protocol_node(0), window=1, max_batch=4
        )
        for i in range(4):
            coord.submit_nowait(f"c{i}")
        assert coord.in_flight == 1
        coord._on_decision(_decision((0, 0), BOTTOM))
        # The batch went back to the head of the queue and immediately
        # relaunched under a fresh slot -- commands are never lost.
        assert coord.slots_aborted == 1
        assert coord.slots_launched == 2
        assert coord.in_flight == 1
        relaunched = coord._in_flight[1]
        assert [cmd for cmd, _stamp in relaunched] == [f"c{i}" for i in range(4)]

    def test_retirement_gate_bounds_unretired_slots(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=7))
        # The coordinator reads only these two attributes of its applier.
        applier = SimpleNamespace(retire_watermark=0, retire_after_d=6.0)
        coord = LogCoordinator(
            cluster.protocol_node(0), window=2, max_batch=1, applier=applier
        )
        assert coord.unretired_cap == 6  # default 3 * window
        for i in range(20):
            coord.submit_nowait(f"c{i}")
        assert coord.slots_launched == 1  # paced: one slot per token
        # Decide every in-flight slot and let each token fire, without moving
        # the watermark: launches must stop at the cap even though the
        # in-flight window has room and tokens keep coming.
        for _ in range(2 * coord.unretired_cap):
            while coord.in_flight:
                slot = next(iter(coord._in_flight))
                coord._on_decision(_decision((0, slot), (f"v{slot}",)))
            cluster.run_for(2 * params4.d)  # > launch_interval
            assert coord.unretired <= coord.unretired_cap
        assert coord.slots_launched == coord.unretired_cap
        assert coord.unretired == coord.unretired_cap
        assert coord.in_flight == 0  # gated: decided slots still unretired
        assert coord.backlog == 20 - coord.unretired_cap
        # Retirement advancing re-opens the gate via notify_retired, and the
        # next token launches the second slot the window admits.
        applier.retire_watermark = 3
        coord.notify_retired()
        assert coord.slots_launched == coord.unretired_cap + 1
        cluster.run_for(1.01 * coord.launch_interval)
        assert coord.in_flight == 2
        assert coord.slots_launched == coord.unretired_cap + 2
        assert coord.unretired == coord.unretired_cap - 1

    def test_foreign_decisions_ignored(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=3))
        coord = LogCoordinator(cluster.protocol_node(0), window=1)
        coord.submit_nowait("mine")
        # A decision for another primary's slot must not consume ours.
        coord._on_decision(_decision((2, 0), "other"))
        assert coord.in_flight == 1
        assert coord.slots_decided == 0

    def test_failed_launch_restores_batch_and_slot(self, params4):
        # 128 commands of 200 chars cannot fit one 16 KB frame.  The launch
        # must fail loudly with nothing lost and no slot index spent.
        from repro.runtime.aio import AsyncioCluster

        big = [f"{i:03d}" + "x" * 197 for i in range(128)]

        async def body():
            cluster = AsyncioCluster(params4, seed=11, time_scale=0.02)
            # Six slots unretired: the gate (3 * window) is shut.
            applier = SimpleNamespace(retire_watermark=-6, retire_after_d=6.0)
            coord = LogCoordinator(
                cluster.protocol_node(0), window=2, max_batch=128, applier=applier
            )
            try:
                for cmd in big[:-1]:
                    coord.submit_nowait(cmd)  # gated: queued, not launched
                assert coord.slots_launched == 0
                applier.retire_watermark = 0  # the gate opens
                # From a protocol callback the failure is kept, not raised.
                coord.notify_retired()
                assert isinstance(coord.launch_error, OversizedFrameError)
                assert coord.backlog == 127
                # From the client's side it surfaces.
                with pytest.raises(OversizedFrameError):
                    coord.submit_nowait(big[-1])
                assert coord.backlog == 128
                assert [cmd for cmd, _stamp in coord._queue] == big
                assert coord.slots_launched == 0
                assert coord.in_flight == 0
                assert coord.general.next_index == 0
                # A following small batch launches as the very next slot.
                coord.max_batch = 8
                coord.notify_retired()
                assert coord.launch_error is None
                assert coord.slots_launched == 1
                assert coord.general.next_index == 1
                assert [cmd for cmd, _stamp in coord._in_flight[0]] == big[:8]
                assert coord.backlog == 120
            finally:
                coord.detach()
                cluster.close()

        asyncio.run(body())


class TestLaunchPacing:
    """One launch per token once the retirement gate is wired (sim time)."""

    def _service(self, params4, seed, **kwargs):
        from repro.service import ReplicatedLogService

        cluster = Cluster(ScenarioConfig(params=params4, seed=seed))
        return cluster, ReplicatedLogService(cluster, primary=0, **kwargs)

    def test_launches_are_an_interval_apart_and_never_pass_the_cap(self, params4):
        cluster, service = self._service(params4, 50, window=4, max_batch=16)
        coord = service.coordinator
        node = cluster.protocol_node(0)
        launches: list[tuple[float, float]] = []
        propose = coord.general.propose

        def recording_propose(value, index):
            launches.append((node.local_now(), coord.launch_interval))
            return propose(value, index=index)

        coord.general.propose = recording_propose
        # Derived, not configured: (retire_after_d * d + decide_ewma) / cap,
        # with the EWMA's prior at d.
        assert coord.launch_interval == pytest.approx(
            (6.0 * params4.d + params4.d) / coord.unretired_cap
        )
        submitted = 0
        for _step in range(200):  # 20 d of arrivals, three per 0.1 d
            for _ in range(3):
                coord.submit_nowait(f"c{submitted}")
                submitted += 1
            cluster.run_for(0.1 * params4.d)
            assert coord.unretired <= coord.unretired_cap
        cluster.run_for(params4.delta_agr + 10 * params4.d)
        assert coord.commands_decided == submitted
        assert coord.slots_aborted == 0
        assert len(launches) == coord.slots_launched > 20
        for (before, _), (after, interval) in zip(launches, launches[1:]):
            assert after - before >= interval - 1e-9
        # Commands that queue between tokens leave together.
        assert coord.slots_launched < submitted / 2
        assert service.appliers[1].next_index == coord.slots_launched

    def test_token_timer_dies_with_detach_and_never_outlives_the_host(
        self, params4
    ):
        cluster, service = self._service(params4, 51)
        coord = service.coordinator
        node = cluster.protocol_node(0)
        coord.submit_nowait("c0")  # the first token is free
        assert coord._stall_check.alive  # slot 0 is in flight
        baseline = node.live_timer_count()
        coord.submit_nowait("c1")  # waits for the next one
        assert coord.backlog == 1 and coord._token.alive
        assert node.live_timer_count() == baseline + 1
        coord.submit_nowait("c2")  # the same token: no second timer
        assert node.live_timer_count() == baseline + 1
        coord.detach()
        assert not (coord._token.alive or coord._stall_check.alive)
        assert node.live_timer_count() == baseline - 1
        coord.notify_retired()  # a detached coordinator arms nothing
        assert node.live_timer_count() == baseline - 1

        cluster, service = self._service(params4, 52)
        coord = service.coordinator
        node = cluster.protocol_node(0)
        coord.submit_nowait("c0")
        node.host.close()
        coord.submit_nowait("c1")
        coord.notify_retired()
        assert not coord._token.alive
        assert node.live_timer_count() == 0
        # Decisions still reach the closed node and retry the launch; none
        # of those retries may arm a token either.
        for _ in range(10):
            cluster.run_for(0.5 * params4.d)
            coord.submit_nowait("more")
            assert not coord._token.alive
            assert node.live_timer_count() == 0

    def test_a_stalled_slot_is_proposed_again_and_applied_once(self, params4):
        # A timing violation can leave a slot returning nowhere; here its
        # first initiation is lost outright.  ``retry_after`` later the same
        # slot is proposed again with the same digest, and every replica
        # applies it exactly once.
        cluster, service = self._service(params4, 53, window=2, max_batch=4)
        coord = service.coordinator
        propose = coord.general.propose
        lost: list[int] = []

        def lose_first(value, index):
            if not lost:
                lost.append(index)
                return index
            return propose(value, index=index)

        coord.general.propose = lose_first
        coord.submit_nowait("c0")
        cluster.run_for(coord.retry_after - params4.d)
        assert coord.in_flight == 1 and coord.slots_retried == 0
        cluster.run_for(params4.delta_agr + 10 * params4.d)
        assert lost == [0] and coord.slots_retried == 1
        assert coord.in_flight == 0 and coord.slots_decided == 1
        for applier in service.appliers.values():
            assert applier.applied == [(0, ("c0",))]
        assert not coord._stall_check.alive

    def _deaf_primary(self, params4, seed):
        # Timing breaks for the primary alone: every copy a peer sends it is
        # lost while ``deaf[0]`` holds, so the other three finalize slot 0
        # and the primary never returns from it.
        from repro.service import ReplicatedLogService

        deaf = [True]
        inner = UniformDelay(0.1, 1.0)

        class _Deafen:
            def decide(self, sender, receiver, payload, rng):
                if deaf[0] and receiver == 0 and sender != 0:
                    return DeliveryDecision.dropped()
                return inner.decide(sender, receiver, payload, rng)

            def min_delay(self):
                return inner.min_delay()

        cluster = Cluster(ScenarioConfig(params=params4, seed=seed, policy=_Deafen()))
        service = ReplicatedLogService(cluster, primary=0, window=2, max_batch=4)
        service.coordinator.submit_nowait("c0")
        cluster.run_for(params4.delta_agr + 10 * params4.d)
        assert [a.next_index for a in service.appliers.values()] == [0, 1, 1, 1]
        assert service.coordinator.in_flight == 1
        return cluster, service, deaf

    def test_a_slot_the_others_finalized_is_adopted_not_retried(self, params4):
        # The replicas that finalized slot 0 build no instance for it, so a
        # retry could never decide it.  Once the primary hears its peers
        # again, its applier adopts the slot from their f+1 matching
        # answers at its next ask (at most ``retire_after_d * d`` apart),
        # long before the stall check, which then settles the slot from
        # that applier instead of retrying it.
        cluster, service, deaf = self._deaf_primary(params4, 55)
        coord = service.coordinator
        primary = service.appliers[0]
        deaf[0] = False
        cluster.run_for((service.retire_after_d + 2) * params4.d)
        assert primary.slots_adopted == 1
        assert primary.applied == [(0, ("c0",))]
        assert coord.in_flight == 1  # settled by the stall check, not here
        cluster.run_for(coord.retry_after)
        assert coord.slots_retried == 0
        assert coord.in_flight == 0 and coord.slots_decided == 1
        assert coord.commands_decided == 1 and coord.backlog == 0
        for applier in service.appliers.values():
            assert applier.applied == [(0, ("c0",))]
        assert service.report().repaired_entries == 1
        assert not coord._stall_check.alive

    def test_retries_stop_once_the_primary_is_past_the_slot(self, params4):
        # Still deaf at the stall check, the primary retries: the retry
        # reaches only replicas that refuse the slot, so none decides it and
        # none applies it twice.  Once the primary hears its peers again it
        # adopts the slot, the next check settles it, and the retries stop.
        cluster, service, deaf = self._deaf_primary(params4, 56)
        coord = service.coordinator
        cluster.run_for(coord.retry_after)
        assert coord.slots_retried == 1 and coord.in_flight == 1
        assert service.appliers[0].next_index == 0
        for node_id in (1, 2, 3):
            assert service.appliers[node_id].applied == [(0, ("c0",))]
        deaf[0] = False
        cluster.run_for(coord.retry_after)
        assert coord.slots_retried == 1
        assert coord.in_flight == 0 and coord.slots_decided == 1
        for applier in service.appliers.values():
            assert applier.applied == [(0, ("c0",))]
        assert not coord._stall_check.alive

    def test_a_failing_retry_keeps_the_stall_check(self, params4):
        # A retry that raises must not unwind the timer or kill the check:
        # the slot is tried again ``retry_after`` later and decides then.
        cluster, service = self._service(params4, 57, window=2, max_batch=4)
        coord = service.coordinator
        propose = coord.general.propose
        calls: list[int] = []

        def lose_then_raise(value, index):
            calls.append(index)
            if len(calls) == 1:
                return index  # the first initiation is lost
            if len(calls) == 2:
                raise RuntimeError("transport closed")
            return propose(value, index=index)

        coord.general.propose = lose_then_raise
        coord.submit_nowait("c0")
        cluster.run_for(coord.retry_after + params4.d)
        assert len(calls) == 2 and coord.slots_retried == 0
        assert coord.in_flight == 1 and coord._stall_check.alive
        cluster.run_for(coord.retry_after + params4.delta_agr)
        assert len(calls) == 3 and coord.slots_retried == 1
        assert coord.in_flight == 0 and coord.slots_decided == 1
        for applier in service.appliers.values():
            assert applier.applied == [(0, ("c0",))]

    def test_token_read_a_rounding_error_early_still_launches(self, params4):
        # A drifting sim clock, read at the instant a token was armed for,
        # can come out one rounding error short of it.  Re-arming for that
        # shortfall must not land on the same instant again and again: with
        # real time far larger than local time, the shortfall is below one
        # step of the real-time axis, so such a timer never moves it.
        config = ScenarioConfig(params=params4, seed=54, random_clock_offsets=False)
        cluster = Cluster(config, _sim=Simulator(start_time=1e4))
        applier = SimpleNamespace(retire_watermark=0, retire_after_d=6.0)
        coord = LogCoordinator(
            cluster.protocol_node(0), window=4, max_batch=1, applier=applier
        )
        total = 50
        for i in range(total):
            coord.submit_nowait(f"c{i}")
        cap = 50_000
        for _step in range(150):
            applier.retire_watermark = coord.general.next_index
            executed = cluster.sim.run_until(
                cluster.sim.now + params4.d, max_events=cap
            )
            assert executed < cap, "a launch token re-armed at one instant"
            if coord.slots_launched == total:
                break
        assert coord.slots_launched == total

    def test_ungated_coordinator_launches_greedily(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=53))
        coord = LogCoordinator(cluster.protocol_node(0), window=4, max_batch=1)
        for i in range(10):
            coord.submit_nowait(f"c{i}")
        # No applier, no pacing: the whole window at once, no token timer.
        assert coord.slots_launched == coord.in_flight == 4
        assert not coord._token.alive


class TestApplier:
    def test_out_of_order_decisions_buffer_then_heal(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=4))
        applier = ReplicaApplier(cluster.protocol_node(1), primary=0)
        _push_and_decide(applier, 1, ("b",))
        assert applier.applied == []  # gap at 0: buffered, not applied
        _push_and_decide(applier, 0, ("a",))
        assert applier.applied == [(0, ("a",)), (1, ("b",))]
        assert applier.commands_applied == 2
        assert applier.next_index == 2
        assert applier.bodies_held == 0
        assert applier.body_fetches == 0 and applier.bodies_rejected == 0

    def test_decided_digest_holds_until_its_body_arrives(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=4))
        node = cluster.protocol_node(1)
        applier = ReplicaApplier(node, primary=0)
        applier._on_decision(_decision((0, 0), batch_digest(("a",))))
        _push_and_decide(applier, 1, ("b",))
        # Slot 0 is decided but bodiless: nothing applies, not even slot 1.
        assert applier.applied == [] and applier.next_index == 0
        # A body that does not hash to the decided digest is refused, from
        # the primary or anyone else; the right one is taken from any peer.
        _deliver(node, 0, ("body", 0, ("evil",)))
        _deliver(node, 2, ("body", 0, ("evil",)))
        assert applier.applied == [] and applier.bodies_rejected == 2
        _deliver(node, 2, ("body", 0, ("a",)))
        assert applier.applied == [(0, ("a",)), (1, ("b",))]
        assert applier.bodies_held == 0
        # Malformed service payloads are ignored, never raised on.
        for junk in (("body",), ("body", "x", ("a",)), ("body", 5, "str"),
                     ("body_req", None), ("other", 1), (), "text"):
            _deliver(node, 2, junk)
        assert applier.next_index == 2

    def test_one_fetch_round_asks_for_every_held_slot_in_the_span(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=10))
        node = cluster.protocol_node(1)
        applier = ReplicaApplier(node, primary=0)
        applier.body_span = 4
        asked: list = []
        node.broadcast = asked.append
        for slot in (0, 2, 3):  # decided, body never seen
            applier._on_decision(_decision((0, slot), batch_digest((slot,))))
        _push_and_decide(applier, 1, ("b",))  # decided, body in hand
        cluster.run_for(0.9 * params4.d)
        assert asked == [] and applier.body_fetches == 0  # not before d
        cluster.run_for(0.2 * params4.d)
        # One round: the held head of the line and the bodiless slots
        # behind it -- and one timer.
        assert applier.body_fetches == 1
        assert sorted(asked) == [("body_req", 0), ("body_req", 2), ("body_req", 3)]
        # Nothing beyond the span (slot 9) is ever asked for.
        applier._on_decision(_decision((0, 9), batch_digest((9,))))
        cluster.run_for(params4.d)
        assert applier.body_fetches == 2
        assert ("body_req", 9) not in asked and len(asked) == 6
        # The bodies arrive (from any peer): everything drains, fetching stops.
        for slot in (3, 2, 0):
            _deliver(node, 3, ("body", slot, (slot,)))
        assert applier.next_index == 4
        cluster.run_for(3 * params4.d)
        assert applier.body_fetches == 2

    def test_abort_recorded_as_skip(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=5))
        applier = ReplicaApplier(cluster.protocol_node(1), primary=0)
        applier._on_decision(_decision((0, 0), BOTTOM))
        _push_and_decide(applier, 1, ("x", "y"))
        assert applier.skipped == [0]
        assert applier.applied == [(1, ("x", "y"))]
        assert applier.commands_applied == 2
        assert applier.next_index == 2  # skips keep the sequence dense
        assert applier.outcome(0) is BOTTOM

    def test_retirement_drains_state_and_gates_stragglers(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=6))
        node1 = cluster.protocol_node(1)
        applier = ReplicaApplier(node1, primary=0, retire_after_d=6.0)
        primary = cluster.protocol_node(0)
        cg = ConcurrentGeneral(primary)
        for slot, v in enumerate(("a", "b", "c")):
            primary.broadcast(("body", slot, (v,)))
            cg.propose(batch_digest((v,)))
        cluster.run_for(params4.delta_agr + 10 * params4.d)
        assert applier.next_index == 3
        # 6d after each decision its instance retires, in slot order.
        cluster.run_for(10 * params4.d)
        assert applier.retired_count == 3
        assert applier.live_slot_instances == 0
        # The gate refuses to resurrect retired keys from straggler relays
        # with one monotone check, while future slots pass.
        assert node1.instance_gate((0, 0)) is False
        assert node1.instance_gate((0, 2)) is False
        assert node1.instance_gate((0, 3)) is True
        assert node1.instance_gate("plain-general") is True

    def test_adopt_entries_heals_contiguously(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=7))
        node = cluster.protocol_node(1)
        applier = ReplicaApplier(node, primary=0)
        entries = [(0, batch_digest(("a",))), (1, BOTTOM), (2, batch_digest(("c",)))]
        assert applier.adopt_entries(entries) == 3
        # Vouched digests hold like decided ones; their bodies are taken
        # from any peer on hash match.
        assert applier.applied == []
        _deliver(node, 2, ("body", 2, ("c",)))
        _deliver(node, 3, ("body", 0, ("a",)))
        assert applier.applied == [(0, ("a",)), (2, ("c",))]
        assert applier.skipped == [1]
        assert applier.slots_adopted == 3
        # Re-adopting settled slots is a no-op.
        assert applier.adopt_entries(entries[:1]) == 0

    def test_adoption_applies_a_held_body_without_a_fetch(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=8))
        node = cluster.protocol_node(1)
        applier = ReplicaApplier(node, primary=0)
        _deliver(node, 0, ("body", 0, ("a",)))  # the primary's push
        applier._on_decision(_decision((0, 1), BOTTOM))
        assert applier.next_index == 0  # slot 0 undecided here
        # Slot 1 was decided here: an agreeing entry is passed over.
        assert applier.adopt_entries([(0, batch_digest(("a",))), (1, BOTTOM)]) == 1
        assert applier.applied == [(0, ("a",))]
        assert applier.skipped == [1]
        assert applier.body_fetches == 0 and applier.bodies_rejected == 0

    def test_adoption_never_overrides_a_decided_digest(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=9))
        node = cluster.protocol_node(1)
        applier = ReplicaApplier(node, primary=0)
        applier._on_decision(_decision((0, 1), batch_digest(("b",))))
        # Slot 1 was decided here as H(("b",)): an f+1 vote for anything
        # else is refused and contiguous adoption stops in front of it.
        adopted = applier.adopt_entries(
            [(0, batch_digest(("a",))), (1, batch_digest(("not-b",))),
             (2, batch_digest(("c",)))]
        )
        assert adopted == 1
        assert applier.bodies_rejected == 1
        _deliver(node, 2, ("body", 0, ("a",)))
        assert applier.applied == [(0, ("a",))]
        assert applier.next_index == 1
        assert applier.outcome(2) is None
        # ... and so is a vote that the decided slot was skipped.
        assert applier.adopt_entries([(1, BOTTOM)]) == 0
        assert applier.bodies_rejected == 2
        assert applier.adopt_entries(
            [(1, batch_digest(("b",))), (2, batch_digest(("c",)))]
        ) == 1
        _deliver(node, 2, ("body", 1, ("b",)))
        _deliver(node, 2, ("body", 2, ("c",)))
        assert applier.applied == [(0, ("a",)), (1, ("b",)), (2, ("c",))]

    @staticmethod
    def _adopt_and_fetch(applier: ReplicaApplier, k: int) -> None:
        """Adopt slots 0..k, then hand over their bodies from a peer."""
        batches = [(f"c{i}",) for i in range(k + 1)]
        entries = [(i, batch_digest(batch)) for i, batch in enumerate(batches)]
        assert applier.adopt_entries(entries) == k + 1
        for i, batch in enumerate(batches):
            _deliver(applier.node, 2, ("body", i, batch))

    def test_adopted_slot_with_a_stray_instance_still_retires(self, params4):
        # A revenant builds an instance from one stray relay for a slot it
        # never decides, then adopts that slot: the instance must retire on
        # schedule, or the watermark stops in front of it for good.
        cluster = Cluster(ScenarioConfig(params=params4, seed=12))
        node = cluster.protocol_node(1)
        applier = ReplicaApplier(node, primary=0)
        k = 3
        _deliver(node, 2, SupportMsg((0, k), batch_digest(("x",))))
        assert (0, k) in node.instances
        self._adopt_and_fetch(applier, k)
        cluster.run_for(applier.retire_after_d * params4.d + 0.1)
        assert applier.retire_watermark > k
        assert (0, k) not in node.instances
        assert applier.live_slot_instances == 0

    def test_relay_for_an_adopted_slot_does_not_wedge_retirement(self, params4):
        # Slot 0's stray instance holds the watermark at 0 while slots 0..k
        # are adopted; a relay for k then arrives.  A slot finalized here
        # must not get an instance (it would have no retire timer), or the
        # watermark stops in front of k for good.
        cluster = Cluster(ScenarioConfig(params=params4, seed=12))
        node = cluster.protocol_node(1)
        applier = ReplicaApplier(node, primary=0)
        k = 3
        _deliver(node, 2, SupportMsg((0, 0), batch_digest(("x",))))
        self._adopt_and_fetch(applier, k)
        assert applier.retire_watermark <= k < applier.next_index
        _deliver(node, 2, SupportMsg((0, k), batch_digest((f"c{k}",))))
        assert (0, k) not in node.instances
        cluster.run_for(applier.retire_after_d * params4.d + 0.1)
        assert applier.retire_watermark > k
        assert applier.live_slot_instances == 0


class TestOpenLoopWorkload:
    def test_rejects_bad_config(self):
        async def nop(command, arrival):
            return None

        with pytest.raises(ValueError, match="rate"):
            OpenLoopWorkload(nop, rate=0.0, total=10)
        with pytest.raises(ValueError, match="total"):
            OpenLoopWorkload(nop, rate=10.0, total=0)

    def test_stamps_are_theoretical_arrivals(self):
        stamps: list[float] = []

        async def capture(command, arrival):
            stamps.append(arrival)

        wl = OpenLoopWorkload(
            capture, rate=1000.0, total=50, poisson=False
        )
        asyncio.run(wl.run())
        assert wl.issued == 50
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        # Fixed-interval arrivals: every stamp exactly 1/rate apart,
        # regardless of how fast the submits actually ran.
        assert all(abs(gap - 1e-3) < 1e-9 for gap in gaps)

    def test_arrival_offsets_pin_the_draw_order(self):
        rng = random.Random(7)
        poisson = [0.0]
        for _ in range(19):
            poisson.append(poisson[-1] + rng.expovariate(250.0))
        fixed = [0.0]
        for _ in range(19):
            fixed.append(fixed[-1] + 1.0 / 250.0)
        assert list(arrival_offsets(250.0, 20, seed=7)) == poisson
        assert list(arrival_offsets(250.0, 20, seed=7, poisson=False)) == fixed
        assert list(arrival_offsets(250.0, 1, seed=7)) == [0.0]

    def test_generator_stamps_exactly_the_scheduled_arrivals(self):
        # A fake clock that never advances on its own: every arrival is
        # ahead, so the generator sleeps to it (the sleep moves the clock).
        now = [100.0]
        stamps: list[tuple[object, float]] = []

        async def capture(command, arrival):
            stamps.append((command, arrival))

        async def fake_sleep(delay):
            now[0] += delay

        wl = OpenLoopWorkload(
            capture, rate=250.0, total=20, seed=7, clock=lambda: now[0]
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(asyncio, "sleep", fake_sleep)
            asyncio.run(wl.run())
        offsets = arrival_offsets(250.0, 20, seed=7)
        assert stamps == [(f"cmd{i}", 100.0 + o) for i, o in enumerate(offsets)]
        assert wl.max_lag_s == 0.0


class _TimerLoop:
    """Just the ``call_later`` a :class:`StampRelease` uses, fired by hand."""

    def __init__(self) -> None:
        self.armed: list[list] = []  # [delay, callback, cancelled]

    def call_later(self, delay, callback):
        timer = [delay, callback, False]
        self.armed.append(timer)
        return SimpleNamespace(cancel=lambda: timer.__setitem__(2, True))

    def fire(self) -> float:
        """Run the one armed timer; returns the delay it was armed with."""
        (timer,) = [t for t in self.armed if not t[2]]
        self.armed.remove(timer)
        timer[1]()
        return timer[0]


class TestStampRelease:
    """The socket primary's intake: commands shipped ahead of their arrival
    stamps reach the coordinator at their stamps, in stamp order."""

    def test_release_waits_for_each_stamp_in_order(self):
        now = [100.0]
        loop = _TimerLoop()
        submitted: list[tuple[object, float, float]] = []
        release = StampRelease(
            loop, lambda cmd, stamp: submitted.append((cmd, stamp, now[0])),
            clock=lambda: now[0],
        )
        # A stamp already past, and one exactly now, go in at once.
        release.ship([("a", 99.5), ("b", 100.0), ("c", 100.25), ("d", 100.5)])
        assert [cmd for cmd, *_ in submitted] == ["a", "b"]
        assert len(loop.armed) == 1 and loop.armed[0][0] == pytest.approx(0.25)
        # A second batch while the head's timer is armed arms nothing more.
        release.ship([("e", 100.5), ("f", 101.0)])
        assert len(loop.armed) == 1
        # A loop timer that fires a hair early releases nothing before its
        # stamp: it re-arms for the rest of the wait.
        now[0] = 100.24
        loop.fire()
        assert len(submitted) == 2
        assert loop.armed[0][0] == pytest.approx(0.01)
        now[0] = 100.25
        loop.fire()
        now[0] = 100.7  # a late wake releases everything due, in order
        loop.fire()
        assert [cmd for cmd, *_ in submitted] == ["a", "b", "c", "d", "e"]
        assert loop.armed[0][0] == pytest.approx(0.3)
        now[0] = 101.0
        loop.fire()
        assert not loop.armed and not release.held
        assert [cmd for cmd, *_ in submitted] == list("abcdef")
        assert all(at >= stamp for _cmd, stamp, at in submitted)
        stamps = [stamp for _cmd, stamp, _at in submitted]
        assert stamps == sorted(stamps)

    def test_on_a_real_loop_no_command_is_early(self):
        submitted: list[tuple[float, float]] = []

        async def main() -> None:
            release = StampRelease(
                asyncio.get_running_loop(),
                lambda cmd, stamp: submitted.append((stamp, time.time())),
            )
            base = time.time()
            release.ship([(f"cmd{i}", base - 0.01 + 0.005 * i) for i in range(12)])
            assert len(submitted) >= 2  # the past stamps went in at once
            while release.held:
                await asyncio.sleep(0.005)

        asyncio.run(main())
        assert len(submitted) == 12
        assert all(at >= stamp for stamp, at in submitted)
        assert [s for s, _ in submitted] == sorted(s for s, _ in submitted)


class TestServiceAsyncio:
    def _run(self, coro):
        # A wedged run fails with its traceback instead of hanging the suite.
        return asyncio.run(asyncio.wait_for(coro, 120.0))

    def test_open_loop_run_identical_logs_and_bounded_state(self, params4):
        from repro.runtime.aio import AsyncioCluster
        from repro.service import ReplicatedLogService

        async def body():
            cluster = AsyncioCluster(params4, seed=8, time_scale=0.1)
            service = ReplicatedLogService(
                cluster, primary=0, window=4, max_batch=32
            )
            try:
                report = await service.run_workload(
                    rate=500.0, total=200, seed=1, drain_timeout_s=30.0
                )
                # Paced, the run can end inside the first slots' retirement
                # tail (retire_after_d * d after each decision): outlast it.
                await cluster.sleep_units(1.2 * service.retire_after_d * params4.d)
                final_live = max(
                    applier.live_slot_instances
                    for applier in service.appliers.values()
                )
                retired = sum(
                    applier.retired_count
                    for applier in service.appliers.values()
                )
                return report, final_live, retired
            finally:
                cluster.close()

        report, final_live, retired = self._run(body())
        assert report.identical_logs
        assert report.commands_applied == 200
        assert report.commands_decided == 200
        # Live protocol state stayed within the O(window) bound DURING the
        # run (sampled), and drained back under it by the end.
        assert report.bound_violations == 0
        assert report.peak_live_instances <= report.live_bound
        assert final_live <= report.live_bound
        assert retired > 0

    def test_messages_never_fall_back_to_the_generic_decoder(
        self, params4, monkeypatch
    ):
        # 200 slots, so ``general = (primary, slot)`` crosses 128 and its
        # slot index leaves msgpack's fixint: a decode plan that quietly
        # stops matching must fail here, not show up as a slow benchmark.
        from repro.core.messages import ALL_MESSAGE_TYPES
        from repro.runtime import framing
        from repro.runtime.aio import AsyncioCluster
        from repro.service import ReplicatedLogService

        went_generic: list = []
        real_decode_envelope = framing._decode_envelope

        def spy(body):
            sent_at, payload = real_decode_envelope(body)
            went_generic.append(payload)
            return sent_at, payload

        monkeypatch.setattr(framing, "_decode_envelope", spy)
        time_scale = 0.1
        worst_lag = [0.0]

        async def watch_lag():
            # How late the loop ran a short sleep's wake-up: any stall long
            # enough to break the timing model shows up here.
            loop = asyncio.get_running_loop()
            while True:
                start = loop.time()
                await asyncio.sleep(0.005)
                worst_lag[0] = max(worst_lag[0], loop.time() - start - 0.005)

        async def body():
            cluster = AsyncioCluster(params4, seed=12, time_scale=time_scale)
            service = ReplicatedLogService(
                cluster, primary=0, window=8, max_batch=1
            )
            watcher = asyncio.create_task(watch_lag())
            # A full collection of a big heap stalls the loop 100-150 ms
            # (1-1.5 d), enough to break the timing model now and then;
            # without the collector a quiet run lags under 30 ms.
            gc.disable()
            try:
                report = await service.run_workload(
                    rate=100.0, total=200, seed=3, drain_timeout_s=30.0
                )
                return report, cluster.transport
            finally:
                gc.enable()
                watcher.cancel()
                cluster.close()

        report, transport = self._run(body())
        assert report.identical_logs and report.commands_applied == 200
        assert report.slots_decided == 200
        decoder = transport.decoder
        assert transport.rejected_count == 0
        assert decoder.generic == len(went_generic) > 0
        # Exactly the service's own ("body", slot, batch) tuples.
        assert not [p for p in went_generic if isinstance(p, ALL_MESSAGE_TYPES)]
        kinds = {p[0] for p in went_generic}
        if worst_lag[0] < 0.5 * params4.d * time_scale:
            assert kinds <= {"body", "body_req"}
        else:
            # A longer loop stall (a loaded box) can break the timing
            # model: a slot may then return nowhere, or one replica miss a
            # slot the others finalized, and the replicas stuck on it ask
            # their peers -- backing off, so well inside the 5% below.
            assert kinds <= {"body", "body_req"} | CATCH_UP
        envelopes = decoder.compiled + decoder.memo_hits + decoder.generic
        assert envelopes >= transport.delivered_count
        assert decoder.generic < 0.05 * envelopes
        # One shared fabric: each relayed triplet is decoded once, then
        # recognised for every further sender and receiver.
        assert decoder.memo_hits > 5 * decoder.compiled

    def test_crash_restart_churn_heals_to_identical_logs(self, params4):
        from repro.faults.transient import crash_in_process, restart_in_process
        from repro.runtime.aio import AsyncioCluster
        from repro.service import ReplicatedLogService

        async def body():
            cluster = AsyncioCluster(params4, seed=9, time_scale=0.1)
            service = ReplicatedLogService(
                cluster, primary=0, window=4, max_batch=16
            )
            victim = cluster.protocol_node(2)
            try:
                service.start()
                workload = OpenLoopWorkload(
                    service.coordinator.submit, rate=400.0, total=400, seed=2
                )
                task = asyncio.create_task(workload.run())
                await asyncio.sleep(0.2)
                crash_in_process(victim, state_loss=True)
                crashed = victim.crashed
                await asyncio.sleep(0.6)
                restart_in_process(victim)
                await task
                drained = await service.drain(timeout_s=10.0)
                await service.stop()
                return service.report(), crashed, drained
            finally:
                cluster.close()

        report, crashed, drained = self._run(body())
        assert crashed  # the churn actually happened mid-run
        # Every correct replica -- the revenant included, which adopted the
        # slots it slept through from f+1 peer answers -- ends with the
        # identical applied sequence and the full command set.
        assert drained
        assert report.repaired_entries > 0
        assert report.identical_logs
        assert report.commands_applied == 400
        assert min(report.applied_per_replica.values()) == 400
        assert len(set(report.digests.values())) == 1


class _WithholdBodies:
    """The default delays, minus the primary's ``body`` pushes ``drop`` picks.

    ``drop(receiver, slot, batch)`` sees only copies the primary sends; a
    peer's answer to a ``body_req`` always gets through.  Copies to or from
    a node in ``instant`` skip the delay (so a forger can win every race).
    """

    def __init__(self, primary: int, drop, instant=()) -> None:
        self.inner = UniformDelay(0.05, 0.5)
        self.primary = primary
        self.drop = drop
        self.instant = frozenset(instant)

    def decide(self, sender, receiver, payload, rng):
        if (
            sender == self.primary
            and isinstance(payload, tuple)
            and payload[0] == "body"
            and self.drop(receiver, payload[1], payload[2])
        ):
            return DeliveryDecision.dropped()
        if sender in self.instant or receiver in self.instant:
            return DeliveryDecision(delay=0.0)
        return self.inner.decide(sender, receiver, payload, rng)

    def min_delay(self):
        # Instant copies skip the delay, so only without them does the
        # inner policy's floor bound every delivered copy.
        return 0.0 if self.instant else self.inner.min_delay()


class _LyingPeer:
    """A Byzantine replica: silent in the protocol, answers every
    ``body_req`` with a forged body."""

    def install(self, node) -> None:
        pass

    def on_message(self, node, envelope) -> None:
        payload = envelope.payload
        if isinstance(payload, tuple) and payload[0] == "body_req":
            node.send(envelope.sender, ("body", payload[1], ("forged",)))


class TestBodyDelivery:
    """Lossy and Byzantine delivery of batch bodies (asyncio, d = 100 ms)."""

    TIME_SCALE = 0.1

    def _cluster(self, params4, seed, drop=None, byzantine=None):
        from repro.runtime.aio import AsyncioCluster

        policy = None
        if drop is not None:
            policy = _WithholdBodies(0, drop, instant=byzantine or ())
        return AsyncioCluster(
            params4,
            seed=seed,
            time_scale=self.TIME_SCALE,
            policy=policy,
            byzantine=byzantine,
        )

    async def _settle(self, service, slots: int, timeout_s: float = 10.0):
        """Wait until every applier finalized ``slots`` slots (or time out)."""
        deadline = asyncio.get_running_loop().time() + timeout_s
        while asyncio.get_running_loop().time() < deadline:
            if all(a.next_index >= slots for a in service.appliers.values()):
                return True
            await asyncio.sleep(0.02)
        return False

    def test_withheld_body_is_fetched_from_a_peer(self, params4):
        from repro.service import ReplicatedLogService

        async def body():
            cluster = self._cluster(params4, 31, drop=lambda r, slot, batch: r == 2)
            service = ReplicatedLogService(
                cluster, primary=0, window=4, max_batch=16
            )
            try:
                report = await service.run_workload(
                    rate=200.0, total=40, seed=5, drain_timeout_s=30.0
                )
                fetches = {
                    i: a.body_fetches for i, a in service.appliers.items()
                }
                return report, fetches
            finally:
                cluster.close()

        report, fetches = asyncio.run(body())
        assert report.identical_logs
        assert report.commands_applied == 40
        assert report.repaired_entries == 0  # healed by fetch, not by vote
        assert fetches[2] >= 1
        assert fetches[0] == fetches[1] == fetches[3] == 0
        assert report.body_fetches == fetches[2]
        assert report.bodies_rejected == 0

    def test_clean_run_fetches_and_rejects_nothing(self, params4):
        from repro.service import ReplicatedLogService

        async def body():
            cluster = self._cluster(params4, 32)
            service = ReplicatedLogService(
                cluster, primary=0, window=4, max_batch=16
            )
            try:
                report = await service.run_workload(
                    rate=200.0, total=60, seed=6, drain_timeout_s=30.0
                )
                held = max(a.bodies_held for a in service.appliers.values())
                return report, held
            finally:
                cluster.close()

        report, held = asyncio.run(body())
        assert report.identical_logs and report.commands_applied == 60
        assert report.body_fetches == 0
        assert report.bodies_rejected == 0
        assert held == 0

    def test_mismatched_bodies_are_rejected_then_the_right_one_fetched(
        self, params4
    ):
        from repro.service import ReplicatedLogService

        async def body():
            # Replica 3 is Byzantine and forges every body it is asked for;
            # the primary's real push never reaches replica 2, which gets an
            # equivocated body under the primary's name instead.
            cluster = self._cluster(
                params4, 33,
                drop=lambda r, slot, batch: r == 2 and batch == ("c0",),
                byzantine={3: _LyingPeer()},
            )
            service = ReplicatedLogService(
                cluster, primary=0, window=4, max_batch=16
            )
            try:
                cluster.transport.send(0, 2, ("body", 0, ("equivocated",)))
                service.coordinator.submit_nowait("c0")
                settled = await self._settle(service, 1)
                await service.stop()
                return settled, service.report(), service.appliers[2]
            finally:
                cluster.close()

        settled, report, victim = asyncio.run(body())
        assert settled
        assert report.identical_logs
        assert victim.applied == [(0, ("c0",))]
        # The primary's equivocated push and the peer's forgery, both refused
        # (the forger answers every round, so at least once).
        assert victim.bodies_rejected >= 2
        assert victim.body_fetches >= 1
        assert report.bodies_rejected == victim.bodies_rejected

    def test_body_sent_to_nobody_stalls_that_slot_and_all_after(self, params4):
        from repro.service import ReplicatedLogService

        async def body():
            cluster = self._cluster(params4, 34, drop=lambda r, slot, batch: slot == 1)
            service = ReplicatedLogService(
                cluster, primary=0, window=4, max_batch=16
            )
            d_s = params4.d * self.TIME_SCALE
            coord = service.coordinator
            try:
                # One slot per launch token: c0 takes the first at once, c1
                # the next; c2 arrives after that one and takes a third.
                coord.submit_nowait("c0")
                coord.submit_nowait("c1")
                await asyncio.sleep(1.5 * coord.launch_interval * self.TIME_SCALE)
                coord.submit_nowait("c2")
                await asyncio.sleep(12 * d_s)
                timers_a = {
                    i: cluster.hosts[i].live_timer_count()
                    for i in service.appliers
                }
                fetches_a = {
                    i: a.body_fetches for i, a in service.appliers.items()
                }
                await asyncio.sleep(6 * d_s)
                timers_b = {
                    i: cluster.hosts[i].live_timer_count()
                    for i in service.appliers
                }
                logs = {i: list(a.applied) for i, a in service.appliers.items()}
                pending = {
                    i: sorted(a._pending) for i, a in service.appliers.items()
                }
                fetches_b = {
                    i: a.body_fetches for i, a in service.appliers.items()
                }
                await service.stop()
                timers_c = {
                    i: cluster.hosts[i].live_timer_count()
                    for i in service.appliers
                }
                return (logs, pending, timers_a, timers_b, timers_c,
                        fetches_a, fetches_b)
            finally:
                cluster.close()

        logs, pending, t_a, t_b, t_c, f_a, f_b = asyncio.run(body())
        for node_id, log in logs.items():
            # Slot 1 and everything after it is decided but never applied.
            assert log == [(0, ("c0",))], node_id
            assert pending[node_id] == [1, 2], node_id
            # One request round per d while the head of the line is held...
            assert 4 <= f_b[node_id] - f_a[node_id] <= 8, (f_a, f_b)
            # ... from ONE re-armed timer: the live set does not grow, and
            # stopping the service removes exactly that one.
            assert t_b[node_id] <= t_a[node_id], (t_a, t_b)
            assert t_c[node_id] == t_b[node_id] - 1, (t_b, t_c)

    def test_aborted_slot_drops_its_body_and_recommits_once(self, params4):
        from repro.service import ReplicatedLogService

        async def body():
            cluster = self._cluster(params4, 35)
            service = ReplicatedLogService(
                cluster, primary=0, window=4, max_batch=16
            )
            d_s = params4.d * self.TIME_SCALE
            try:
                service.coordinator.submit_nowait("c0")
                # Every push lands within 0.5 d; no decision comes that fast.
                await asyncio.sleep(0.8 * d_s)
                held_before = [
                    a.bodies_held for a in service.appliers.values()
                ]
                undecided = all(
                    a.next_index == 0 and not a._pending
                    for a in service.appliers.values()
                )
                # Slot 0 aborts at every correct node (Agreement covers
                # BOTTOM): appliers skip it, the primary re-proposes.
                for node_id in cluster.correct_ids:
                    cluster.protocol_node(node_id).on_decision(
                        _decision((0, 0), BOTTOM)
                    )
                held_after = [
                    a.bodies_held for a in service.appliers.values()
                ]
                settled = await self._settle(service, 2)
                await service.stop()
                return (held_before, undecided, held_after, settled,
                        service.report(), service)
            finally:
                cluster.close()

        before, undecided, after, settled, report, service = asyncio.run(body())
        assert undecided and settled
        assert before == [1, 1, 1, 1]
        assert after == [0, 0, 0, 0]
        assert report.slots_aborted == 1 and report.slots_launched == 2
        assert report.identical_logs
        for applier in service.appliers.values():
            assert applier.skipped == [0]
            assert applier.applied == [(1, ("c0",))]  # once, under slot 1
            assert applier.bodies_held == 0
        assert report.body_fetches == 0

    def test_body_store_is_bounded_and_primary_only(self, params4):
        from repro.service import ReplicatedLogService

        async def body():
            cluster = self._cluster(params4, 36)
            service = ReplicatedLogService(
                cluster, primary=0, window=2, max_batch=4
            )
            coord = service.coordinator
            span = coord.unretired_cap + coord.window
            d_s = params4.d * self.TIME_SCALE
            try:
                send = cluster.transport.send
                for slot in range(3 * span):
                    send(0, 2, ("body", slot, (f"p{slot}",)))  # the primary
                    send(1, 2, ("body", slot, (f"q{slot}",)))  # a peer
                send(0, 2, ("body", 10**9, ("far",)))
                await asyncio.sleep(0.8 * d_s)
                victim = service.appliers[2]
                stored = {
                    slot: body for slot, (_d, body) in victim._bodies.items()
                }
                await service.stop()
                return span, victim.body_span, stored
            finally:
                cluster.close()

        span, body_span, stored = asyncio.run(body())
        assert span == 8 and body_span == span
        # Only the primary's pushes, only for the span ahead of next_index.
        assert stored == {slot: (f"p{slot}",) for slot in range(span)}

class TestEnvelopeSize:
    """No agreement envelope carries the batch: one ``body`` payload does."""

    def _one_slot(self, params4, batch_size: int) -> list:
        """Everything any node handed to broadcast/send for one slot."""
        from repro.runtime.aio import AsyncioCluster
        from repro.service import ReplicatedLogService

        async def body():
            cluster = AsyncioCluster(params4, seed=41, time_scale=0.1)
            service = ReplicatedLogService(
                cluster, primary=0, window=8, max_batch=128
            )
            transport = cluster.transport
            emitted: list = []
            real_broadcast, real_send = transport.broadcast, transport.send

            def broadcast(sender, payload):
                emitted.append(payload)
                real_broadcast(sender, payload)

            def send(sender, receiver, payload):
                emitted.append(payload)
                real_send(sender, receiver, payload)

            transport.broadcast, transport.send = broadcast, send
            coord = service.coordinator
            try:
                # Hold the launch gate shut while the queue fills, so the
                # whole batch is cut into ONE slot.
                cap, coord.unretired_cap = coord.unretired_cap, 0
                for i in range(batch_size):
                    coord.submit_nowait(f"cmd{i}")
                coord.unretired_cap = cap
                coord.notify_retired()
                assert await service.drain(timeout_s=10.0)
                # The slot's relays go on after the last replica applies it:
                # its inits are echoed, and the echoes relayed as init' and
                # echo'.  Capture that tail too (about 1 d after the drain),
                # so neither run ends before a kind the other one sent.
                await asyncio.sleep(3 * 0.1)  # 3 d
                assert coord.slots_launched == 1
                await service.stop()
                assert service.report().commands_applied == batch_size
                return emitted
            finally:
                cluster.close()

        return asyncio.run(body())

    def test_envelopes_do_not_grow_with_the_batch(self, params4):
        from repro.core.messages import ALL_MESSAGE_TYPES

        sizes: dict[int, dict] = {}
        for batch_size in (1, 128):
            emitted = self._one_slot(params4, batch_size)
            # Exactly one payload contains the commands: the body frame.
            carrying = [p for p in emitted if "cmd0" in repr(p)]
            batch = tuple(f"cmd{i}" for i in range(batch_size))
            assert carrying == [("body", 0, batch)]
            envelopes = [p for p in emitted if isinstance(p, ALL_MESSAGE_TYPES)]
            kinds = {type(p).__name__ for p in envelopes}
            assert {"InitiatorMsg", "SupportMsg", "ApproveMsg", "ReadyMsg",
                    "MBInitMsg", "MBEchoMsg"} <= kinds
            assert all(p.value == batch_digest(batch) for p in envelopes)
            encoder = FrameEncoder(derive_key("size"))
            sizes[batch_size] = {
                name: max(
                    len(encoder.encode_body(p, 1234.5678))
                    for p in envelopes if type(p).__name__ == name
                )
                for name in kinds
            }
        # Same bytes whether the slot carries 1 command or 128 ...
        assert sizes[1] == sizes[128]
        # ... and small: <= 128 B on the wire.
        assert max(sizes[128].values()) <= 128

class TestNodeService:
    def test_node_reports_body_counters_and_sizes_its_store(self, params4):
        from repro.service.service import NodeService

        cluster = Cluster(ScenarioConfig(params=params4, seed=45))
        cfg = {"primary": 0, "window": 3, "max_batch": 8}
        primary = NodeService(cluster.protocol_node(0), **cfg)
        replica = NodeService(cluster.protocol_node(1), **cfg)
        assert replica.coordinator is None
        # Every node sizes its body store from the window: the
        # coordinator's unretired_cap + window.
        coord = primary.coordinator
        assert primary.applier.body_span == coord.unretired_cap + coord.window
        assert replica.applier.body_span == primary.applier.body_span
        replica.applier._on_decision(
            _decision((0, 0), batch_digest(("a",)))
        )
        _deliver(replica.node, 2, ("body", 0, ("forged",)))
        result = replica.result()
        assert result["body_fetches"] == 0
        assert result["bodies_rejected"] == 1
        assert primary.result()["body_fetches"] == 0


class TestSocketService:
    """The service across OS processes: a replica killed mid-run heals."""

    def test_sigkilled_replica_heals_from_its_peers(self, params4):
        import json
        import urllib.request

        from repro.obs import ControlPlane
        from repro.obs.metrics import parse_prometheus_text
        from repro.service.socket_service import SocketLogService

        time_scale, rate, total = 0.1, 100.0, 300
        service = SocketLogService(
            params4,
            primary=0,
            window=4,
            max_batch=32,
            seed=61,
            time_scale=time_scale,
            timeout_units=(2 * total / rate + 60.0) / time_scale,
            supervise=True,
        )
        plane = ControlPlane(service).start()

        def call(path: str, payload=None) -> dict:
            data = None if payload is None else json.dumps(payload).encode()
            request = urllib.request.Request(f"{plane.url}{path}", data=data)
            with urllib.request.urlopen(request, timeout=5.0) as reply:
                return json.loads(reply.read())

        try:
            # SIGKILL of replica 2 a third into the schedule (in d, from now).
            accepted = call("/faults", [{
                "at_d": (0.35 + total / rate / 3) / (time_scale * params4.d),
                "do": "crash",
                "nodes": [2],
                "state_loss": True,
            }])
            report = service.run_workload(
                rate=rate, total=total, seed=61, settle_timeout_s=30.0
            )
            status = call("/status")
            metrics_url = f"{plane.url}/metrics"
            with urllib.request.urlopen(metrics_url, timeout=5.0) as reply:
                supervisor_metrics = reply.read().decode()
        finally:
            plane.close()
            service.close()
        assert accepted == {"accepted": 1, "backend": "socket"}
        # The supervisor's respawn, as the control plane reports it.
        victim = status["nodes"]["2"]
        assert victim["restarts"] >= 1 and victim["incarnation"] >= 1
        assert status["faults_injected"] == 1
        assert report.exit_reasons.get(2) == "signal:9"
        assert report.identical_logs, report.digests
        assert len(report.digests) == params4.n
        assert min(report.applied_per_replica.values()) == total
        # The revenant restarted empty and caught up from f+1 peer answers.
        assert report.repaired_entries > 0
        assert all(proc.exitcode == 0 for proc in service.procs.values())
        # Every child sampled itself against the in-process bound.
        assert report.live_bound == window_bounds(4).live_bound
        assert report.samples > 0
        # The supervisor's /metrics, with the log's slowest replica.
        series = parse_prometheus_text(supervisor_metrics)
        assert series["repro_cluster_commands_applied_min"][""] == total
        assert series["repro_cluster_restarts_total"][""] >= 1


    def test_a_stunned_primary_never_blocks_the_parent(self, params4):
        """A SIGSTOPped primary stops reading its control pipe.  The parent
        holds its commands back instead of blocking on the full pipe, so
        the scripted restart (SIGCONT) fires and the run returns."""
        import threading

        from repro.service.socket_service import SocketLogService

        time_scale, rate, total, settle_s = 0.1, 1000.0, 6000, 15.0
        service = SocketLogService(
            params4, primary=0, window=8, max_batch=128, seed=62,
            time_scale=time_scale, supervise=True,
            timeout_units=(total / rate + settle_s + 30.0) / time_scale,
        )
        d_s = time_scale * params4.d
        grace = service._startup_grace_s  # injected at_d counts from here
        service.inject_fault_script([
            {"at_d": (grace + 1.0) / d_s, "do": "crash", "nodes": [0],
             "state_loss": False},
            {"at_d": (grace + 5.0) / d_s, "do": "restart", "nodes": [0]},
        ])
        # Four seconds of stun is more than the pipe holds at 1000 cmds/s:
        # a parent that wrote into it regardless blocked before the restart.
        held_back = []
        ship = service._ship

        def watch_ship(node_id, *msgs):
            shipped = ship(node_id, *msgs)
            if node_id == 0 and service._held.get(0):
                held_back.append(len(service._held[0]))
            return shipped

        service._ship = watch_ship
        outcome: dict = {}

        def run() -> None:
            started = time.monotonic()
            outcome["report"] = service.run_workload(
                rate=rate, total=total, seed=62, settle_timeout_s=settle_s
            )
            outcome["elapsed"] = time.monotonic() - started

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=total / rate + settle_s + 30.0)
        try:
            assert not runner.is_alive(), "run_workload wedged"
        finally:
            if runner.is_alive():  # unwedge the parent so the test ends
                for proc in service.procs.values():
                    proc.kill()
            service.close()
        assert held_back, "the primary's pipe never filled: no stun to ride"
        assert service.faults.fired == ["crash", "restart"]
        # The run returned within its settle window of the last arrival.
        assert outcome["elapsed"] < grace + total / rate + settle_s + 5.0
        assert outcome["report"].commands_issued == total
        assert not any(proc.is_alive() for proc in service.procs.values())


class TestDrainAndSampling:
    """drain() deadline semantics and the sampler's bound check.

    Both run the service against the deterministic simulator (never
    stepped), so pipeline state is exactly what the test put there.
    """

    def _service(self, params4, seed, **kwargs):
        from repro.service import ReplicatedLogService

        cluster = Cluster(ScenarioConfig(params=params4, seed=seed))
        return cluster, ReplicatedLogService(cluster, primary=0, **kwargs)

    def test_drain_zero_timeout_polls_once(self, params4):
        _, service = self._service(params4, 36)

        async def poll():
            # The outer wait_for fails the test (instead of hanging it)
            # if a falsy-timeout regression turns 0 back into "forever".
            return await asyncio.wait_for(
                service.drain(timeout_s=0.0), timeout=5.0
            )

        # Idle pipeline: poll-once succeeds immediately.
        assert asyncio.run(poll()) is True
        # A command in flight that can never decide (the simulator is not
        # running): poll-once must report False, not wait for a deadline
        # that a falsy ``timeout_s=0`` check would have erased.
        service.coordinator.submit_nowait("c0")
        assert asyncio.run(poll()) is False

    def test_every_reading_is_bound_checked_from_the_first(
        self, params4, monkeypatch
    ):
        cluster, service = self._service(params4, 37, window=2)
        bound = window_bounds(2).live_bound
        live = [bound]
        monkeypatch.setattr(
            ReplicaApplier, "live_slot_instances", property(lambda self: live[0])
        )
        # No warm-up grace: before any slot has launched, a reading at the
        # bound passes and one over it counts, at every node that took it.
        for node_service in service.services.values():
            node_service.sample()
        live[0] = bound + 3
        for node_service in service.services.values():
            node_service.sample()
        assert service.coordinator.slots_launched == 0
        report = service.report(elapsed_s=1.0)
        nodes = len(cluster.correct_ids)
        assert report.live_bound == bound
        assert report.samples == 2 * nodes
        assert report.bound_violations == nodes
        assert report.peak_live_instances == bound + 3

    def test_drain_none_timeout_waits_without_deadline(self, params4):
        _, service = self._service(params4, 38)

        async def idle_drain():
            return await service.drain(timeout_s=None)

        # Nothing in flight: returns True without any deadline machinery.
        assert asyncio.run(idle_drain()) is True


class TestRepairVotePath:
    """f+1 vouching on outcome answers, slot by slot (sim time).

    Every answer is an ordinary delivery between nodes: a laggard asks with
    ``("outcome_req", next_index)`` and tallies the ``("outcomes", ...)``
    replies by authenticated sender.
    """

    def _service(self, params4, seed):
        from repro.service import ReplicatedLogService

        cluster = Cluster(ScenarioConfig(params=params4, seed=seed))
        return cluster, ReplicatedLogService(cluster, primary=0)

    @staticmethod
    def _finalize(applier: ReplicaApplier, outcomes: list) -> None:
        """Finalize slots 0.. at one replica: batches applied, BOTTOM skipped."""
        for slot, outcome in enumerate(outcomes):
            if outcome is BOTTOM:
                applier._on_decision(_decision((0, slot), BOTTOM))
            else:
                _push_and_decide(applier, slot, outcome)

    def _repair(self, cluster, service, params4) -> int:
        """Show each lagging replica a later decided slot (its evidence that
        the head exists), then let it wait, ask, adopt and fetch; returns
        the slots adopted so far."""
        target = max(a.next_index for a in service.appliers.values())
        for applier in service.appliers.values():
            if applier.next_index < target:
                applier._on_decision(_decision((0, 8), BOTTOM))
        cluster.run_for((service.retire_after_d + 5) * params4.d)
        return service.report().repaired_entries

    def test_f_votes_insufficient_f_plus_1_adopts(self, params4):
        cluster, service = self._service(params4, 40)
        appliers = service.appliers
        self._finalize(appliers[0], [("a",)])
        # Only f=1 peer vouches for slot 0: no laggard may adopt it (the
        # lone voucher could be the one faulty replica).
        assert self._repair(cluster, service, params4) == 0
        assert all(appliers[nid].next_index == 0 for nid in (1, 2, 3))
        # A second matching voucher reaches f+1: both laggards adopt.
        self._finalize(appliers[1], [("a",)])
        assert self._repair(cluster, service, params4) == 2
        assert appliers[2].applied == [(0, ("a",))]
        assert appliers[3].applied == [(0, ("a",))]

    def test_tie_at_f_votes_each_adopts_nothing(self, params4):
        cluster, service = self._service(params4, 41)
        appliers = service.appliers
        self._finalize(appliers[0], [("a",)])
        self._finalize(appliers[1], [("b",)])
        # Two conflicting answers with f votes each: no unique f+1
        # winner, nothing adopted.
        assert self._repair(cluster, service, params4) == 0
        assert appliers[2].next_index == 0
        assert appliers[3].next_index == 0

    def test_minority_conflicting_vote_does_not_block(self, params4):
        cluster, service = self._service(params4, 42)
        appliers = service.appliers
        self._finalize(appliers[0], [("a",)])
        self._finalize(appliers[1], [("a",)])
        self._finalize(appliers[2], [("junk",)])  # one faulty answer
        # f+1 matching votes settle the slot despite the minority lie.
        assert self._repair(cluster, service, params4) == 1
        assert appliers[3].applied == [(0, ("a",))]

    def test_disputed_slot_stops_adoption_contiguously(self, params4):
        cluster, service = self._service(params4, 43)
        appliers = service.appliers
        self._finalize(appliers[0], [("a",), BOTTOM, ("c",), ("d",)])
        self._finalize(appliers[1], [("a",), BOTTOM, ("x",), ("d",)])
        # Slots 0-1 have f+1 matching vouchers (BOTTOM votes count like
        # any outcome); slot 2 is disputed, so adoption stops there even
        # though slot 3 would have f+1 matching votes -- adopted prefixes
        # must stay contiguous or sequences diverge.
        assert self._repair(cluster, service, params4) == 4  # 2 laggards x 2
        for node_id in (2, 3):
            assert appliers[node_id].next_index == 2
            assert appliers[node_id].applied == [(0, ("a",))]
            assert appliers[node_id].skipped == [1]

    def test_replicas_at_target_left_alone(self, params4):
        cluster, service = self._service(params4, 44)
        appliers = service.appliers
        asked: list[int] = []
        for node_id, applier in appliers.items():
            self._finalize(applier, [("a",), ("b",)])
            applier.request_outcomes = partial(asked.append, node_id)
        # Everyone already at the target: repair touches nothing.
        assert self._repair(cluster, service, params4) == 0
        assert asked == []
        for applier in appliers.values():
            assert applier.next_index == 2
            assert applier.applied == [(0, ("a",)), (1, ("b",))]

    def test_one_sender_counts_once_however_often_it_answers(self, params4):
        cluster, service = self._service(params4, 45)
        laggard = service.appliers[3]
        forged = ("outcomes", 0, (batch_digest(("x",)),))
        # A Byzantine peer repeating (or forging) one answer is one vote,
        # never f+1 on its own; the laggard's own copy is no vote at all.
        for _ in range(5):
            _deliver(laggard.node, 1, forged)
        _deliver(laggard.node, 3, forged)
        assert laggard.slots_adopted == 0 and laggard._votes == {
            0: {1: batch_digest(("x",))}
        }
        # A second sender reaches f+1.
        _deliver(laggard.node, 2, forged)
        assert laggard.slots_adopted == 1

    def test_answers_outside_the_span_are_ignored(self, params4):
        cluster, service = self._service(params4, 46)
        laggard = service.appliers[3]
        span = laggard.body_span
        far = ("outcomes", span, (batch_digest(("x",)),))
        for sender in (1, 2):
            _deliver(laggard.node, sender, far)
            # Malformed answers are ignored, never raised on.
            for junk in (("outcomes", 0, [1]), ("outcomes", "0", ()),
                         ("outcomes", 0, ([],)), ("outcome_req", None),
                         ("outcome_req", -1)):
                _deliver(laggard.node, sender, junk)
        assert laggard._votes == {}
        assert laggard.slots_adopted == 0 and laggard.next_index == 0

    @staticmethod
    def _asks(applier: ReplicaApplier) -> list:
        """``(local time, head)`` of each ``outcome_req`` ``applier`` sends."""
        node = applier.node
        asks: list[tuple[float, int]] = []
        broadcast = node.broadcast

        def recording(payload):
            if isinstance(payload, tuple) and payload[0] == "outcome_req":
                asks.append((node.local_now(), payload[1]))
            return broadcast(payload)

        node.broadcast = recording
        return asks

    def test_unanswered_asks_back_off_to_the_wait(self, params4):
        # A head nobody finalized (a slot that returned nowhere): no answer
        # ever comes.  The first ask is retire_after_d * d into the wait,
        # then the pause doubles from d up to the wait itself -- 16 asks in
        # the 90 d before a coordinator's retry, not one every d.
        cluster, service = self._service(params4, 47)
        laggard = service.appliers[3]
        asks = self._asks(laggard)
        start = laggard.node.local_now()
        laggard._on_decision(_decision((0, 8), BOTTOM))
        cluster.run_for(90 * params4.d)
        waited = [round((t - start) / params4.d, 6) for t, _ in asks]
        assert waited == [6, 7, 9, 13, *range(19, 90, 6)]
        assert laggard.next_index == 0 and laggard.slots_adopted == 0

    def test_back_at_the_frontier_a_replica_asks_once_then_waits(self, params4):
        # Adoption moves the head onto a slot no peer has finalized yet (it
        # is still in agreement): one more ask at once, in case peers had
        # more, then a fresh wait for that head -- not an ask every d.
        cluster, service = self._service(params4, 48)
        appliers = service.appliers
        d = params4.d
        for node_id in (0, 1, 2):
            self._finalize(appliers[node_id], [("a",), ("b",)])
        laggard = appliers[3]
        asks = self._asks(laggard)
        start = laggard.node.local_now()
        laggard._on_decision(_decision((0, 8), BOTTOM))
        cluster.run_for((laggard.retire_after_d + 3) * d)
        assert laggard.applied == [(0, ("a",)), (1, ("b",))]
        assert laggard.next_index == 2
        assert asks[0] == (pytest.approx(start + 6 * d), 0)
        # Head 2 is asked for once, at once, then not for another 6d.
        (chase, head), = [ask for ask in asks if ask[1] == 2]
        cluster.run_for(chase + 6.5 * d - laggard.node.local_now())
        later = [round((t - chase) / d, 6) for t, head in asks if head == 2]
        assert later == [0, 6]

    def test_a_clean_run_sends_no_catch_up_traffic(self, params4, monkeypatch):
        # Decisions land ahead of the head all the time in a pipeline, yet
        # no head waits retire_after_d * d: a wait that ended too soon, or
        # a wrong span-ahead inference, would ask here.
        cluster, service = self._service(params4, 49)
        coord = service.coordinator
        asked = [self._asks(applier) for applier in service.appliers.values()]
        waits = [0]
        watch_head = ReplicaApplier._watch_head

        def counting(applier, fired=False):
            waits[0] += bool(applier._pending)
            return watch_head(applier, fired)

        monkeypatch.setattr(ReplicaApplier, "_watch_head", counting)
        for i in range(100):
            coord.submit_nowait(f"c{i}")
            cluster.run_for(0.5 * params4.d)
        cluster.run_for(params4.delta_agr + 10 * params4.d)
        report = service.report()
        assert report.commands_decided == report.commands_applied == 100
        assert report.identical_logs
        assert waits[0] > 0  # heads did wait with evidence
        assert asked == [[]] * 4 and report.repaired_entries == 0
