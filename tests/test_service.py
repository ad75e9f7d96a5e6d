"""Tests for the replicated command-log service.

Unit layer: the coordinator's windowing/batching/abort-requeue and the
applier's gap buffering, abort-as-skip, and measured retirement run against
the deterministic simulator.  Service layer: end-to-end open-loop runs on
the asyncio wall-clock backend, including a Crash/Restart churn timeline
healed via the f+1 repair path, and lossy / Byzantine delivery of the
batch bodies the decided digests stand for.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro.core.agreement import Decision
from repro.core.messages import SupportMsg
from repro.core.params import BOTTOM, ProtocolParams
from repro.extensions.concurrent import ConcurrentGeneral
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.net.delivery import DeliveryDecision, UniformDelay
from repro.net.network import Envelope
from repro.runtime.framing import FrameEncoder, OversizedFrameError, derive_key
from repro.service.applier import ReplicaApplier, batch_digest
from repro.service.coordinator import LogCoordinator
from repro.service.workload import OpenLoopWorkload
from repro.sim.engine import Simulator


@pytest.fixture
def params4() -> ProtocolParams:
    return ProtocolParams(n=4, f=1, delta=1.0, rho=0.0)


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
            applier = SimpleNamespace(retire_watermark=-1, retire_after_d=6.0)
            coord = LogCoordinator(
                cluster.protocol_node(0),
                window=2,
                max_batch=128,
                applier=applier,
                unretired_cap=1,
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
        baseline = node.live_timer_count()
        coord.submit_nowait("c1")  # waits for the next one
        assert coord.backlog == 1 and coord._token.alive
        assert node.live_timer_count() == baseline + 1
        coord.submit_nowait("c2")  # the same token: no second timer
        assert node.live_timer_count() == baseline + 1
        coord.detach()
        assert not coord._token.alive
        assert node.live_timer_count() == baseline
        coord.notify_retired()  # a detached coordinator arms nothing
        assert node.live_timer_count() == baseline

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
        for slot in (0, 2, 3, 9):  # decided, body never seen
            applier._on_decision(_decision((0, slot), batch_digest((slot,))))
        _push_and_decide(applier, 1, ("b",))  # decided, body in hand
        cluster.run_for(0.9 * params4.d)
        assert asked == [] and applier.body_fetches == 0  # not before d
        cluster.run_for(0.2 * params4.d)
        # One round: the held head of the line and the bodiless slots
        # behind it, but nothing beyond the span (slot 9) -- and one timer.
        assert applier.body_fetches == 1
        assert sorted(asked) == [("body_req", 0), ("body_req", 2), ("body_req", 3)]
        cluster.run_for(params4.d)
        assert applier.body_fetches == 2
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
        applier = ReplicaApplier(cluster.protocol_node(1), primary=0)
        adopted = applier.adopt_entries([(0, ("a",)), (1, BOTTOM), (2, ("c",))])
        assert adopted == 3
        assert applier.applied == [(0, ("a",)), (2, ("c",))]
        assert applier.skipped == [1]
        # Re-adopting settled slots is a no-op.
        assert applier.adopt_entries([(0, ("a",))]) == 0

    def test_adoption_supplies_the_body_of_a_held_slot(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=8))
        applier = ReplicaApplier(cluster.protocol_node(1), primary=0)
        applier._on_decision(_decision((0, 0), batch_digest(("a",))))
        applier._on_decision(_decision((0, 1), BOTTOM))
        assert applier.next_index == 0  # decided, no body: held
        assert applier.adopt_entries([(0, ("a",)), (1, BOTTOM), (2, ("c",))]) == 3
        assert applier.applied == [(0, ("a",)), (2, ("c",))]
        assert applier.skipped == [1]
        assert applier.bodies_rejected == 0

    def test_adoption_never_overrides_a_decided_digest(self, params4):
        cluster = Cluster(ScenarioConfig(params=params4, seed=9))
        applier = ReplicaApplier(cluster.protocol_node(1), primary=0)
        applier._on_decision(_decision((0, 1), batch_digest(("b",))))
        # Slot 1 was decided here as H(("b",)): an f+1 vote for anything
        # else is refused and contiguous adoption stops in front of it.
        adopted = applier.adopt_entries(
            [(0, ("a",)), (1, ("not-b",)), (2, ("c",))]
        )
        assert adopted == 1
        assert applier.applied == [(0, ("a",))]
        assert applier.next_index == 1
        assert applier.bodies_rejected == 1
        assert applier.outcome(2) is None
        # ... and so is a vote that the decided slot was skipped.
        assert applier.adopt_entries([(1, BOTTOM)]) == 0
        assert applier.bodies_rejected == 2
        assert applier.adopt_entries([(1, ("b",)), (2, ("c",))]) == 2
        assert applier.applied == [(0, ("a",)), (1, ("b",)), (2, ("c",))]

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
        assert applier.adopt_entries([(i, (f"c{i}",)) for i in range(k + 1)]) == k + 1
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
        assert applier.adopt_entries([(i, (f"c{i}",)) for i in range(k + 1)]) == k + 1
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


class TestServiceAsyncio:
    def _run(self, coro):
        return asyncio.run(coro)

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

        async def body():
            cluster = AsyncioCluster(params4, seed=12, time_scale=0.1)
            service = ReplicatedLogService(
                cluster, primary=0, window=8, max_batch=1
            )
            try:
                report = await service.run_workload(
                    rate=100.0, total=200, seed=3, drain_timeout_s=30.0
                )
                return report, cluster.transport
            finally:
                cluster.close()

        report, transport = self._run(body())
        assert report.identical_logs and report.commands_applied == 200
        assert report.slots_decided == 200
        decoder = transport.decoder
        assert transport.rejected_count == 0
        assert decoder.generic == len(went_generic) > 0
        # Exactly the service's own ("body", slot, batch) tuples.
        assert not [p for p in went_generic if isinstance(p, ALL_MESSAGE_TYPES)]
        assert {p[0] for p in went_generic} <= {"body", "body_req"}
        envelopes = decoder.compiled + decoder.memo_hits + decoder.generic
        assert envelopes >= transport.delivered_count
        assert decoder.generic < 0.05 * envelopes
        # One shared fabric: each relayed triplet is decoded once, then
        # recognised for every further sender and receiver.
        assert decoder.memo_hits > 5 * decoder.compiled

    def test_crash_restart_churn_heals_to_identical_logs(self, params4):
        from repro.faults.live import crash_in_process, restart_in_process
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
                await service.drain(timeout_s=5.0)
                lag_before = (
                    service.coordinator.general.next_index
                    - service.appliers[2].next_index
                )
                service.repair()
                await service.stop()
                return service.report(), crashed, lag_before
            finally:
                cluster.close()

        report, crashed, lag_before = self._run(body())
        assert crashed  # the churn actually happened mid-run
        assert lag_before >= 0
        # Every correct replica -- the revenant included -- ends with the
        # identical applied sequence and the full command set.
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

class TestSocketChildService:
    def test_child_reports_body_counters_and_sizes_its_store(self, params4):
        from repro.service.socket_service import ChildLogService

        cluster = Cluster(ScenarioConfig(params=params4, seed=45))
        cfg = {"primary": 0, "window": 3, "max_batch": 8}
        primary = ChildLogService(cluster.protocol_node(0), cfg, conn=None)
        replica = ChildLogService(cluster.protocol_node(1), cfg, conn=None)
        # Every child sizes its body store like the in-process service:
        # the coordinator's unretired_cap + window.
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


class TestDrainAndSampling:
    """drain() deadline semantics and the warmup-transition bound check.

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

    def test_warmup_transition_sample_is_bound_checked(
        self, params4, monkeypatch
    ):
        cluster, service = self._service(params4, 37, window=2)
        # sample_state reads timer counts through cluster.hosts; the sim
        # Cluster exposes them via the protocol nodes.
        cluster.hosts = {
            node_id: cluster.protocol_node(node_id)
            for node_id in cluster.correct_ids
        }
        over = service.live_bound + 3
        monkeypatch.setattr(
            ReplicaApplier,
            "live_slot_instances",
            property(lambda self: over),
        )
        # Before the pipeline has filled, over-bound readings are warmup.
        service.sample_state()
        assert not service._warmed_up
        assert service.bound_violations == 0
        # The very sample that completes warmup is itself checked: an
        # overshoot in that sample must count, not slip through the gate.
        service.coordinator.slots_launched = service.window
        service.sample_state()
        assert service._warmed_up
        assert service.bound_violations == 1
        assert service.peak_live_instances == over

    def test_drain_none_timeout_waits_without_deadline(self, params4):
        _, service = self._service(params4, 38)

        async def idle_drain():
            return await service.drain(timeout_s=None)

        # Nothing in flight: returns True without any deadline machinery.
        assert asyncio.run(idle_drain()) is True


class TestRepairVotePath:
    """f+1 vouching in ReplicatedLogService.repair, slot by slot."""

    def _service(self, params4, seed):
        from repro.service import ReplicatedLogService

        cluster = Cluster(ScenarioConfig(params=params4, seed=seed))
        return ReplicatedLogService(cluster, primary=0)

    def test_f_votes_insufficient_f_plus_1_adopts(self, params4):
        service = self._service(params4, 40)
        appliers = service.appliers
        appliers[0].adopt_entries([(0, ("a",))])
        # Only f=1 peer vouches for slot 0: no laggard may adopt it (the
        # lone voucher could be the one faulty replica).
        assert service.repair() == 0
        assert all(
            appliers[nid].next_index == 0 for nid in (1, 2, 3)
        )
        # A second matching voucher reaches f+1: both laggards adopt.
        appliers[1].adopt_entries([(0, ("a",))])
        assert service.repair() == 2
        assert appliers[2].applied == [(0, ("a",))]
        assert appliers[3].applied == [(0, ("a",))]
        assert service.repaired_entries == 2

    def test_tie_at_f_votes_each_adopts_nothing(self, params4):
        service = self._service(params4, 41)
        appliers = service.appliers
        appliers[0].adopt_entries([(0, ("a",))])
        appliers[1].adopt_entries([(0, ("b",))])
        # Two conflicting reports with f votes each: no unique f+1
        # winner, nothing adopted.
        assert service.repair() == 0
        assert appliers[2].next_index == 0
        assert appliers[3].next_index == 0

    def test_minority_conflicting_vote_does_not_block(self, params4):
        service = self._service(params4, 42)
        appliers = service.appliers
        appliers[0].adopt_entries([(0, ("a",))])
        appliers[1].adopt_entries([(0, ("a",))])
        appliers[2].adopt_entries([(0, ("junk",))])  # one faulty report
        # f+1 matching votes settle the slot despite the minority lie.
        assert service.repair() == 1
        assert appliers[3].applied == [(0, ("a",))]

    def test_disputed_slot_stops_adoption_contiguously(self, params4):
        service = self._service(params4, 43)
        appliers = service.appliers
        appliers[0].adopt_entries(
            [(0, ("a",)), (1, BOTTOM), (2, ("c",)), (3, ("d",))]
        )
        appliers[1].adopt_entries(
            [(0, ("a",)), (1, BOTTOM), (2, ("x",)), (3, ("d",))]
        )
        adopted = service.repair()
        # Slots 0-1 have f+1 matching vouchers (BOTTOM votes count like
        # any outcome); slot 2 is disputed, so adoption stops there even
        # though slot 3 would have f+1 matching votes -- adopted prefixes
        # must stay contiguous or sequences diverge.
        assert adopted == 4  # two laggards x slots {0, 1}
        for node_id in (2, 3):
            assert appliers[node_id].next_index == 2
            assert appliers[node_id].applied == [(0, ("a",))]
            assert appliers[node_id].skipped == [1]

    def test_replicas_at_target_left_alone(self, params4):
        service = self._service(params4, 44)
        appliers = service.appliers
        for applier in appliers.values():
            applier.adopt_entries([(0, ("a",)), (1, ("b",))])
        # Everyone already at the target: repair touches nothing.
        assert service.repair() == 0
        for applier in appliers.values():
            assert applier.next_index == 2
            assert applier.applied == [(0, ("a",)), (1, ("b",))]
        assert service.repaired_entries == 0
