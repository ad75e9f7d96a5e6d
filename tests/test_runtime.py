"""Host-conformance suite: Sim, Asyncio and Socket hosts against one contract.

The sans-I/O refactor is only worth anything if every backend honours the
same :class:`~repro.runtime.api.ProtocolHost` semantics, so the contract is
written once as backend-agnostic coroutines -- monotonic ``now()``, timers
firing in deadline order (FIFO at equal deadlines), cancelation never
firing and staying idempotent, refusal of timers after ``close()``,
``live_timer_count()`` draining to zero, authenticated transport, exactly
one broadcast copy per node (the sender included), per-node randomness,
trace attribution (also under interleaved sends) -- and executed against
all three backends (plus one transport-teardown contract on the two that
have a transport to tear down).  A new backend earns its keep by passing
this file.

The asyncio and socket halves necessarily run against the wall clock:
delays are kept tiny and assertions are about *ordering and counting*,
never exact timing.  Plus end-to-end smokes: a 4-node, f = 1 agreement
over real coroutines, and the same over real UDP datagrams with one OS
process per node, each with a Byzantine sender in the cast.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.params import BOTTOM, ProtocolParams
from repro.faults.byzantine import MirrorParticipantStrategy, TwoFacedParticipantStrategy
from repro.net.delivery import FixedDelay
from repro.net.network import Network
from repro.runtime.aio import AsyncioCluster, AsyncioHost, AsyncioTransport, run_agreement_async
from repro.runtime.framing import derive_key
from repro.runtime.sim_host import SimHost
from repro.runtime.socket_host import SocketHost, SocketTransport, run_agreement_socket
from repro.sim.engine import Simulator
from repro.sim.rand import RandomSource
from repro.sim.trace import Tracer

PARAMS = ProtocolParams(n=4, f=1, delta=1.0, rho=0.0)


# ---------------------------------------------------------------------------
# Backend harnesses: build hosts, advance time, in one uniform shape
# ---------------------------------------------------------------------------
class SimHarness:
    """Discrete-event backend: time advances by running the kernel."""

    name = "sim"

    def __init__(self) -> None:
        self.sim = Simulator()
        self.tracer = Tracer(enabled=True)
        self.net = Network(self.sim, FixedDelay(0.25), RandomSource(11), self.tracer)
        self.hosts: list[SimHost] = []

    def make_host(self, node_id: int) -> SimHost:
        host = SimHost(
            node_id,
            self.sim,
            self.net,
            self.tracer,
            rand=RandomSource(11, f"host/{node_id}"),
            params=PARAMS,
        )
        self.hosts.append(host)
        return host

    async def drive(self, duration_units: float) -> None:
        self.sim.run_until(self.sim.now + duration_units)

    def close(self) -> None:
        for host in self.hosts:
            host.close()


class AioHarness:
    """Asyncio backend: time advances by actually sleeping (scaled)."""

    name = "asyncio"
    TIME_SCALE = 0.002  # 2 ms per protocol unit: fast, yet >> loop jitter

    def __init__(self) -> None:
        self.tracer = Tracer(enabled=True)
        self.transport = AsyncioTransport(
            time_scale=self.TIME_SCALE,
            policy=FixedDelay(0.25),
            rand=RandomSource(11, "net"),
            tracer=self.tracer,
        )
        self.hosts: list[AsyncioHost] = []

    def make_host(self, node_id: int) -> AsyncioHost:
        host = AsyncioHost(
            node_id,
            self.transport,
            params=PARAMS,
            rand=RandomSource(11, f"host/{node_id}"),
            tracer=self.tracer,
        )
        self.hosts.append(host)
        return host

    async def drive(self, duration_units: float) -> None:
        # A slack unit absorbs call_later granularity; assertions below are
        # about ordering/counting, not exact arrival times.
        await asyncio.sleep((duration_units + 1.0) * self.TIME_SCALE)

    def close(self) -> None:
        for host in self.hosts:
            host.close()
        self.transport.close()


class SocketHarness:
    """Socket backend: real UDP datagrams between in-process hosts.

    The conformance half runs every host on one loop (the multiprocessing
    orchestration is exercised by the end-to-end smokes below); the bytes
    still cross the kernel's UDP stack, so framing, authentication and the
    reader wiring are all on the hook.
    """

    name = "socket"
    TIME_SCALE = 0.005  # 5 ms per protocol unit: UDP latency stays far below

    def __init__(self) -> None:
        self.tracer = Tracer(enabled=True)
        self.directory: dict[int, tuple[str, int]] = {}
        self.auth_key = derive_key("conformance")
        self.epoch = time.time()
        self.transports: list[SocketTransport] = []
        self.hosts: list[SocketHost] = []

    def make_host(self, node_id: int) -> SocketHost:
        transport = SocketTransport(
            node_id,
            auth_key=self.auth_key,
            time_scale=self.TIME_SCALE,
            epoch_wall=self.epoch,
            directory=self.directory,
            policy=FixedDelay(0.25),
            rand=RandomSource(11, f"net/{node_id}"),
            tracer=self.tracer,
        )
        host = SocketHost(
            node_id,
            transport,
            params=PARAMS,
            rand=RandomSource(11, f"host/{node_id}"),
            tracer=self.tracer,
        )
        self.transports.append(transport)
        self.hosts.append(host)
        return host

    async def drive(self, duration_units: float) -> None:
        # Datagram transit adds (sub-ms) latency on top of call_later
        # granularity; 1.5 units of slack keeps a loaded machine honest.
        await asyncio.sleep((duration_units + 1.5) * self.TIME_SCALE)

    def close(self) -> None:
        for host in self.hosts:
            host.close()
        for transport in self.transports:
            transport.close()


# ---------------------------------------------------------------------------
# The contract, backend-agnostic
# ---------------------------------------------------------------------------
async def contract_monotonic_now(h) -> None:
    host = h.make_host(0)
    readings = [host.now()]
    for _ in range(3):
        await h.drive(1.0)
        readings.append(host.now())
    assert readings == sorted(readings), "now() went backwards"
    assert readings[-1] > readings[0], "now() never advanced"


async def contract_timers_fire_in_deadline_order(h) -> None:
    host = h.make_host(0)
    fired: list[str] = []
    host.schedule_after(3.0, lambda: fired.append("late"))
    host.schedule_after(1.0, lambda: fired.append("early"))
    host.schedule_after(2.0, lambda: fired.append("middle"))
    await h.drive(5.0)
    assert fired == ["early", "middle", "late"]


async def contract_equal_deadlines_fifo(h) -> None:
    host = h.make_host(0)
    fired: list[int] = []
    for i in range(5):
        host.schedule_after(1.0, lambda i=i: fired.append(i))
    await h.drive(3.0)
    assert fired == [0, 1, 2, 3, 4], "same-deadline timers must fire FIFO"


async def contract_canceled_timer_never_fires(h) -> None:
    host = h.make_host(0)
    fired: list[str] = []
    keep = host.schedule_after(1.0, lambda: fired.append("keep"))
    drop = host.schedule_after(1.0, lambda: fired.append("drop"))
    assert keep.alive and drop.alive
    drop.cancel()
    assert not drop.alive
    drop.cancel()  # idempotent
    await h.drive(3.0)
    assert fired == ["keep"]
    assert not keep.alive  # consumed by firing


async def contract_schedule_at_absolute_local_time(h) -> None:
    host = h.make_host(0)
    fired: list[float] = []
    target = host.now() + 2.0
    host.schedule_at(target, lambda: fired.append(host.now()))
    await h.drive(4.0)
    assert len(fired) == 1
    assert fired[0] >= target - 1e-9


async def contract_live_timer_count_drains_to_zero(h) -> None:
    host = h.make_host(0)
    handles = [host.schedule_after(1.0 + i, lambda: None) for i in range(4)]
    assert host.live_timer_count() == 4
    handles[0].cancel()
    assert host.live_timer_count() == 3
    await h.drive(10.0)
    assert host.live_timer_count() == 0, "fired timers must leave the registry"
    host.schedule_after(1.0, lambda: None)
    host.cancel_all_timers()
    assert host.live_timer_count() == 0, "cancel_all_timers must drain"


async def contract_transport_authenticates_sender(h) -> None:
    host_a, host_b = h.make_host(0), h.make_host(1)
    inbox_a: list = []
    inbox_b: list = []
    host_a.attach(inbox_a.append)
    host_b.attach(inbox_b.append)
    host_a.send(1, "hello")
    await h.drive(2.0)
    assert [(e.sender, e.payload) for e in inbox_b] == [(0, "hello")]
    assert inbox_a == []


async def contract_broadcast_reaches_all_including_self(h) -> None:
    hosts = [h.make_host(i) for i in range(3)]
    inboxes: list[list] = [[] for _ in hosts]
    for host, inbox in zip(hosts, inboxes):
        host.attach(inbox.append)
    hosts[2].broadcast("wave")
    await h.drive(2.0)
    for inbox in inboxes:
        assert [(e.sender, e.payload) for e in inbox] == [(2, "wave")]


async def contract_rand_is_per_node_deterministic(h) -> None:
    host = h.make_host(0)
    draws = [host.rand.randint(0, 10 ** 9) for _ in range(4)]
    replay = RandomSource(11, "host/0")
    assert draws == [replay.randint(0, 10 ** 9) for _ in range(4)]


async def contract_trace_attributes_node_and_local_time(h) -> None:
    host = h.make_host(0)
    assert host.trace_enabled
    host.trace("conformance_probe", detail=42)
    events = [ev for ev in h.tracer.events if ev.kind == "conformance_probe"]
    assert len(events) == 1
    assert events[0].node == 0
    assert events[0].detail == {"detail": 42}
    assert events[0].local_time is not None


async def contract_schedule_after_close_is_refused(h) -> None:
    host = h.make_host(0)
    fired: list[str] = []
    host.schedule_after(1.0, lambda: fired.append("pre"))
    host.close()
    refused = host.schedule_after(0.5, lambda: fired.append("post"))
    assert not refused.alive, "a closed host must hand back a dead handle"
    refused.cancel()  # harmless on a never-armed handle
    at = host.schedule_at(host.now() + 0.5, lambda: fired.append("post_at"))
    assert not at.alive
    assert host.live_timer_count() == 0, "close() must leave the registry drained"
    await h.drive(3.0)
    assert fired == [], "nothing may fire after close()"


async def contract_cancel_is_idempotent(h) -> None:
    host = h.make_host(0)
    fired: list[str] = []
    doomed = host.schedule_after(1.0, lambda: fired.append("doomed"))
    kept = host.schedule_after(1.0, lambda: fired.append("kept"))
    doomed.cancel()
    assert not doomed.alive
    doomed.cancel()  # second cancel: no error, no state change
    assert not doomed.alive
    assert host.live_timer_count() == 1
    await h.drive(3.0)
    assert fired == ["kept"]
    assert not kept.alive  # consumed by firing
    kept.cancel()  # cancel after fire: a no-op, not an error
    kept.cancel()
    assert not kept.alive
    assert host.live_timer_count() == 0


async def contract_broadcast_one_copy_per_node_exactly(h) -> None:
    """Interleaved broadcasts each land exactly once everywhere.

    Guards the include-self-exactly-once semantics: a transport must not
    deliver a duplicate self-copy (e.g. a local shortcut on top of the
    loopback datagram) and must not skip the sender either.
    """
    hosts = [h.make_host(i) for i in range(3)]
    inboxes: list[list] = [[] for _ in hosts]
    for host, inbox in zip(hosts, inboxes):
        host.attach(inbox.append)
    hosts[0].broadcast("a0")
    hosts[1].broadcast("b0")
    hosts[0].broadcast("a1")
    await h.drive(2.0)
    expected = [(0, "a0"), (0, "a1"), (1, "b0")]
    for node_id, inbox in enumerate(inboxes):
        copies = sorted((e.sender, e.payload) for e in inbox)
        assert copies == expected, f"node {node_id} saw {copies}"


async def contract_trace_attribution_survives_interleaved_sends(h) -> None:
    host_a, host_b = h.make_host(0), h.make_host(1)
    host_a.attach(lambda e: None)
    host_b.attach(lambda e: None)
    host_a.send(1, "x1")
    host_b.send(0, "y1")
    host_a.trace("probe", mark="a")
    host_a.send(1, "x2")
    host_b.trace("probe", mark="b")
    await h.drive(2.0)
    sends = [ev for ev in h.tracer.events if ev.kind == "send"]
    assert [(ev.node, ev.detail["payload"]) for ev in sends] == [
        (0, "x1"),
        (1, "y1"),
        (0, "x2"),
    ], "send events must be attributed to the true sender, in send order"
    probes = [ev for ev in h.tracer.events if ev.kind == "probe"]
    assert [(ev.node, ev.detail["mark"]) for ev in probes] == [(0, "a"), (1, "b")]
    delivers = {
        (ev.node, ev.detail["payload"])
        for ev in h.tracer.events
        if ev.kind == "deliver"
    }
    assert delivers == {(1, "x1"), (1, "x2"), (0, "y1")}, (
        "deliver events must be attributed to the receiving node"
    )


async def contract_close_then_respawn_starts_fresh(h) -> None:
    """The supervisor's restart model, at the host-contract level.

    Closing a host kills its incarnation for good: its registry drains and
    it keeps refusing timers even after a *new* host for the same node id
    exists.  The respawned incarnation starts with an empty registry and
    arms timers normally -- nothing leaks across incarnations.
    """
    old = h.make_host(0)
    fired: list[str] = []
    old.schedule_after(1.0, lambda: fired.append("old"))
    old.close()
    assert old.live_timer_count() == 0, "close() must drain the registry"
    fresh = h.make_host(0)  # the respawned incarnation
    stale = old.schedule_after(0.5, lambda: fired.append("stale"))
    assert not stale.alive, "a dead incarnation must keep refusing timers"
    assert fresh.live_timer_count() == 0, "a respawn must start fresh"
    live = fresh.schedule_after(1.0, lambda: fired.append("fresh"))
    assert live.alive
    await h.drive(3.0)
    assert fired == ["fresh"], "only the new incarnation's timers may fire"
    assert fresh.live_timer_count() == 0


async def contract_coalescing_preserves_per_sender_fifo(h) -> None:
    """A burst to one receiver arrives in send order, coalesced or not.

    The wire backends pack same-receiver messages into BATCH datagrams at
    delivery-release time; the sim backend never coalesces.  Either way the
    per-sender FIFO guarantee the protocol layer leans on must hold: twelve
    back-to-back sends (equal policy delay, so the wire backends *will*
    coalesce them) land as exactly twelve envelopes, in order.
    """
    host_a, host_b = h.make_host(0), h.make_host(1)
    inbox: list = []
    host_a.attach(lambda e: None)
    host_b.attach(inbox.append)
    burst = [f"m{i}" for i in range(12)]
    for payload in burst:
        host_a.send(1, payload)
    await h.drive(2.0)
    assert [e.payload for e in inbox] == burst, "coalescing reordered a burst"
    assert all(e.sender == 0 for e in inbox)


async def contract_closed_transport_delivers_nothing(h) -> None:
    """Closing the fabric strands what was still in flight (wall-clock only).

    A copy held back by its policy delay has a release timer pending on the
    sender's loop when the transport closes; that timer still fires, and
    must find nothing to do -- no datagram emitted, nothing delivered into
    a node whose host is being torn down.
    """
    host_a, host_b = h.make_host(0), h.make_host(1)
    inbox: list = []
    host_a.attach(lambda e: None)
    host_b.attach(inbox.append)
    host_a.send(1, "held")  # FixedDelay(0.25): released a quarter unit later
    sender, receiver = host_a.transport, host_b.transport
    assert sender.sent_count == 1
    before = (sender.datagrams_sent, receiver.delivered_count)
    sender.close()
    host_a.send(1, "late")  # a closed transport accepts nothing new either
    await h.drive(2.0)
    assert inbox == []
    assert (sender.datagrams_sent, receiver.delivered_count) == before
    assert sender.sent_count == 1


CONTRACTS = [
    contract_monotonic_now,
    contract_timers_fire_in_deadline_order,
    contract_equal_deadlines_fifo,
    contract_canceled_timer_never_fires,
    contract_schedule_at_absolute_local_time,
    contract_live_timer_count_drains_to_zero,
    contract_transport_authenticates_sender,
    contract_broadcast_reaches_all_including_self,
    contract_rand_is_per_node_deterministic,
    contract_trace_attributes_node_and_local_time,
    contract_schedule_after_close_is_refused,
    contract_cancel_is_idempotent,
    contract_broadcast_one_copy_per_node_exactly,
    contract_trace_attribution_survives_interleaved_sends,
    contract_close_then_respawn_starts_fresh,
    contract_coalescing_preserves_per_sender_fifo,
]
#: The sim network has no lifecycle of its own (the kernel simply stops
#: being run), so transport teardown is a wall-clock-only contract.
WALLCLOCK_CONTRACTS = CONTRACTS + [contract_closed_transport_delivers_nothing]


def _ids(contracts) -> list[str]:
    return [fn.__name__.removeprefix("contract_") for fn in contracts]


CONTRACT_IDS = _ids(CONTRACTS)
WALLCLOCK_IDS = _ids(WALLCLOCK_CONTRACTS)


async def _run_contract(harness_cls, contract) -> None:
    harness = harness_cls()
    try:
        await contract(harness)
    finally:
        harness.close()


@pytest.mark.parametrize("contract", CONTRACTS, ids=CONTRACT_IDS)
def test_sim_host_conformance(contract) -> None:
    asyncio.run(_run_contract(SimHarness, contract))


@pytest.mark.parametrize("contract", WALLCLOCK_CONTRACTS, ids=WALLCLOCK_IDS)
def test_asyncio_host_conformance(contract) -> None:
    asyncio.run(_run_contract(AioHarness, contract))


@pytest.mark.parametrize("contract", WALLCLOCK_CONTRACTS, ids=WALLCLOCK_IDS)
def test_socket_host_conformance(contract) -> None:
    asyncio.run(_run_contract(SocketHarness, contract))


def test_asyncio_close_strands_an_already_decoded_datagram() -> None:
    """The last hop too: decoded and handed to the loop, then closed."""

    async def scenario():
        transport = AsyncioTransport(time_scale=0.002)  # no policy: no delay
        inbox: list = []
        transport.register(0, inbox.append)
        transport.send(0, 0, "in flight")
        await asyncio.sleep(0)  # exactly the flush: sealed, decoded, queued
        assert transport.datagrams_sent == 1 and inbox == []
        transport.close()
        await asyncio.sleep(0.01)
        return transport.delivered_count, inbox

    assert asyncio.run(scenario()) == (0, [])


# ---------------------------------------------------------------------------
# Asyncio end-to-end smoke: agreement with a Byzantine sender in the cast
# ---------------------------------------------------------------------------
class TestAsyncioAgreementSmoke:
    def test_n4_f1_agreement_under_byzantine_mirror_sender(self) -> None:
        """All three correct nodes decide the General's value over asyncio."""
        cluster, decisions = asyncio.run(
            run_agreement_async(
                n=4,
                f=1,
                seed=3,
                value="v",
                byzantine={3: MirrorParticipantStrategy()},
                time_scale=0.02,
            )
        )
        assert sorted(decisions) == [0, 1, 2]
        assert all(dec.value == "v" for dec in decisions.values())
        assert cluster.transport.delivered_count > 0
        # Timer hygiene across the whole cluster: close() ran, so every
        # host's registry (cleanup ticks included) is drained.
        for host in cluster.hosts.values():
            assert host.live_timer_count() == 0

    def test_n4_f1_agreement_under_twofaced_sender(self) -> None:
        """A quorum-splitting participant cannot split 3 correct nodes."""
        _cluster, decisions = asyncio.run(
            run_agreement_async(
                n=4,
                f=1,
                seed=9,
                value="w",
                byzantine={3: TwoFacedParticipantStrategy(camp=(0, 1))},
                time_scale=0.02,
            )
        )
        decided = {repr(d.value) for d in decisions.values() if d.value is not BOTTOM}
        assert len(decided) <= 1, f"correct nodes split: {decided}"
        assert decided == {"'w'"}

    def test_correct_only_cluster_reuses_protocol_unchanged(self) -> None:
        """No Byzantine cast: plain agreement, and counters look sane."""
        cluster, decisions = asyncio.run(
            run_agreement_async(n=4, f=1, seed=0, value="x", time_scale=0.02)
        )
        assert sorted(decisions) == [0, 1, 2, 3]
        assert {d.value for d in decisions.values()} == {"x"}
        assert cluster.transport.sent_count >= cluster.transport.delivered_count


# ---------------------------------------------------------------------------
# Socket end-to-end smoke: real UDP datagrams, one OS process per node
# ---------------------------------------------------------------------------
class TestSocketAgreementSmoke:
    def test_n4_f1_agreement_under_byzantine_mirror_sender(self) -> None:
        """All three correct nodes decide the value over real sockets.

        The full loop: spawn children, broker the address book, stream
        decisions back over the results pipes, tear everything down -- with
        zero live timers and every child exiting 0 (no orphans).
        """
        report, decisions = run_agreement_socket(
            n=4,
            f=1,
            seed=3,
            value="v",
            byzantine={3: MirrorParticipantStrategy()},
            time_scale=0.05,
        )
        assert sorted(decisions) == [0, 1, 2]
        assert all(dec.value == "v" for dec in decisions.values())
        assert report.delivered_count > 0
        assert report.rejected_count == 0, "well-keyed frames must authenticate"
        assert report.exit_codes == {0: 0, 1: 0, 2: 0, 3: 0}
        # Post-close registries must be drained -- and the check is not
        # vacuous: every correct node held at least its perpetual cleanup
        # tick going into close(), so teardown genuinely reaped timers.
        assert all(count == 0 for count in report.live_timers.values()), (
            f"leaked timers: {report.live_timers}"
        )
        for node_id in report.correct_ids:
            assert report.timers_at_close[node_id] >= 1, (
                f"node {node_id} reported no live timers before close"
            )
        assert report.clean_exit

    def test_n4_f1_agreement_under_twofaced_sender(self) -> None:
        """A quorum-splitting participant cannot split 3 correct processes."""
        report, decisions = run_agreement_socket(
            n=4,
            f=1,
            seed=9,
            value="w",
            byzantine={3: TwoFacedParticipantStrategy(camp=(0, 1))},
            time_scale=0.05,
        )
        decided = {repr(d.value) for d in decisions.values() if d.value is not BOTTOM}
        assert len(decided) <= 1, f"correct nodes split: {decided}"
        assert decided == {"'w'"}
        assert report.clean_exit
