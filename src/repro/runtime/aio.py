"""AsyncioHost: the real-time backend of the sans-I/O host API.

Runs a full n-node agreement instance over real coroutines: nodes are plain
:class:`~repro.core.agreement.ProtocolNode` objects (the exact same protocol
code the simulator drives), timers are ``loop.call_later`` wake-ups, and
messages travel through :class:`AsyncioTransport` -- the in-process carrier
under :class:`~repro.runtime.wire.WireTransport`, which models bounded
delivery delay with the same :class:`~repro.net.delivery.DeliveryPolicy`
objects the simulator uses.

Time model
----------
Protocol time units map to wall-clock seconds through one ``time_scale``
factor (seconds per unit).  All hosts share a single epoch on the loop's
monotonic clock, so ``now()`` readings are mutually consistent; there is no
per-node drift modeling (asyncio scheduling jitter plays that role for
free, and rather less politely).

Determinism caveat
------------------
Unlike the simulator, runs here are **not** reproducible: wall-clock jitter
reorders deliveries and timer firings between runs even at a fixed seed.
The deterministic pieces (delay draws, Byzantine choices) still derive from
the master seed, but event interleaving does not -- use the sim backend for
anything that must be replayed bit-identically, and this backend to prove
the protocol stack really is sans-I/O (and as the template for a socket
deployment).  Pick ``time_scale`` large enough that loop jitter (~1-5 ms)
stays well below ``d``; the default maps ``d`` to 20 ms.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from typing import Any, Callable, Optional

from repro.core.agreement import Decision, ProtocolNode
from repro.core.messages import Value
from repro.core.params import ProtocolParams
from repro.net.delivery import DeliveryPolicy, wall_clock_default
from repro.runtime.api import INERT_TIMER, Action, Envelope, TimerHandle, TimerRegistry
from repro.runtime.framing import FrameError, decode_frames, derive_key
from repro.runtime.wire import WireTransport
from repro.sim.rand import RandomSource
from repro.sim.trace import Tracer

#: Default wall-clock seconds per protocol time unit (d = 20 ms).
DEFAULT_TIME_SCALE = 0.02

#: How long a control-plane request waits for the loop thread.
CONTROL_WAIT_S = 2.0


class AioTimerHandle:
    """Cancelable wrapper over an ``asyncio.TimerHandle``."""

    __slots__ = ("_handle", "_alive")

    def __init__(self) -> None:
        self._handle: Optional[asyncio.TimerHandle] = None
        self._alive = False

    def cancel(self) -> None:
        if self._alive:
            self._alive = False
            if self._handle is not None:
                self._handle.cancel()

    @property
    def alive(self) -> bool:
        return self._alive


class AsyncioTransport(WireTransport):
    """The in-process carrier: every node on one loop, one shared fabric.

    Every copy still travels as **bytes** -- the same authenticated frames
    the socket carrier puts on UDP -- so the asyncio backend exercises
    serialization, coalescing and frame authentication even though it never
    leaves the process.  Frames that fail to decode are counted in
    ``rejected_count`` and dropped.

    What is specific here: the clock is the loop's monotonic clock against
    a construction-time epoch, any number of nodes register, and a sealed
    datagram "arrives" by being decoded on the spot and handed to the loop.
    """

    def __init__(
        self,
        time_scale: float = DEFAULT_TIME_SCALE,
        policy: Optional[DeliveryPolicy] = None,
        rand: Optional[RandomSource] = None,
        tracer: Optional[Tracer] = None,
        auth_key: Optional[bytes] = None,
    ) -> None:
        super().__init__(
            time_scale,
            auth_key if auth_key is not None else derive_key("aio-transport"),
            rand if rand is not None else RandomSource(0, "aio/net"),
            policy=policy,
            tracer=tracer,
        )
        self.epoch = self.loop.time()

    def now(self) -> float:
        """Current protocol-local time (loop seconds / time_scale)."""
        return (self.loop.time() - self.epoch) / self.time_scale

    def _transmit(self, receiver: int, frame_buf, count: int) -> None:
        """Decode one datagram immediately; deliver its frames next tick.

        Decode happens here because ``frame_buf`` is the encoder's reused
        buffer (invalid after the next frame is built), and from a ``bytes``
        snapshot of it: anything that outlives this call holding a view of
        the buffer itself (a retained traceback, a sampling profiler) would
        make the encoder's next ``del buf[:]`` a ``BufferError``.  Delivery
        is deferred so a receiver's reply sends never run synchronously
        inside another node's ``send`` call.
        """
        self.datagrams_sent += 1
        try:
            frames = decode_frames(bytes(frame_buf), self.decoder)
        except FrameError:
            self._reject()
            return
        self.loop.call_soon(self._arrive, receiver, frames)

    def _arrive(self, receiver: int, frames) -> None:
        # The hand-off was queued before close() could see it; a closed
        # fabric delivers nothing into the (closed) nodes behind it.  The
        # check sits here, not in _deliver_frames, so that every call of
        # _deliver_frames moves delivered_count by len(frames).
        if not self._closed:
            self._deliver_frames(receiver, frames)


class AsyncioHost:
    """One node's :class:`~repro.runtime.api.ProtocolHost` on the asyncio loop."""

    def __init__(
        self,
        node_id: int,
        transport: AsyncioTransport,
        params: Optional[ProtocolParams] = None,
        rand: Optional[RandomSource] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.node_id = node_id
        self.params = params
        self.transport = transport
        # ``net`` alias: Byzantine strategies and helpers written against the
        # sim Network's surface (node_ids, send(sender, ...)) keep working.
        self.net = transport
        self.loop = transport.loop
        self.time_scale = transport.time_scale
        self.rand = rand if rand is not None else RandomSource(0, f"aio/host/{node_id}")
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self._registry = TimerRegistry()
        self._closed = False
        self.now = transport.now  # hot-path binding (shared clock axis)

    # ------------------------------------------------------------------
    # Time: the wall axis *is* the local axis (no drift modeling)
    # ------------------------------------------------------------------
    def now(self) -> float:  # shadowed by the instance binding above
        return self.transport.now()

    def real_now(self) -> float:
        return self.transport.now()

    def real_at_local(self, local_time: float) -> float:
        return local_time

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def schedule_after(
        self, delay_local: float, action: Action, tag: str = ""
    ) -> TimerHandle:
        if self._closed:
            # In-flight deliveries can still reach the node in the loop
            # iteration that tears the cluster down; a closed host refuses
            # to arm anything new so the registry stays drained.
            return INERT_TIMER
        handle = AioTimerHandle()

        def fire() -> None:
            handle._alive = False
            action()

        handle._handle = self.loop.call_later(
            max(0.0, delay_local) * self.time_scale, fire
        )
        handle._alive = True
        self._registry.track(handle)
        return handle

    def schedule_at(
        self, when_local: float, action: Action, tag: str = ""
    ) -> TimerHandle:
        return self.schedule_after(when_local - self.now(), action, tag)

    def live_timer_count(self) -> int:
        return self._registry.live_count()

    def cancel_all_timers(self) -> None:
        self._registry.cancel_all()

    def close(self) -> None:
        """Cancel every pending timer and refuse new ones (teardown)."""
        self._closed = True
        self._registry.cancel_all()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def attach(self, receiver: Callable[[Envelope], None]) -> None:
        self.transport.register(self.node_id, receiver)

    def send(self, receiver: int, payload: object) -> None:
        self.transport.send(self.node_id, receiver, payload)

    def broadcast(self, payload: object) -> None:
        self.transport.broadcast(self.node_id, payload)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    @property
    def trace_enabled(self) -> bool:
        return self.tracer.enabled

    def trace(self, kind: str, **detail: object) -> None:
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                self.transport.now(),
                self.node_id,
                kind,
                local_time=self.now(),
                **detail,
            )
        else:
            tracer.bump(kind)


class AsyncioCluster:
    """An n-node in-process cluster on the running asyncio loop.

    Must be constructed inside a coroutine (the transport binds to the
    running loop).  Correct ids get :class:`ProtocolNode`; ids named in
    ``byzantine`` get a :class:`~repro.faults.byzantine.ByzantineNode` with
    the given strategy (or strategy factory), exactly as in the simulator's
    scenario builder.  Call :meth:`close` when done so the periodic cleanup
    ticks stop and the loop can drain.

    It has the lifecycle surface of the socket backend's ``SocketCluster``:
    ``now``, ``kill_node``, ``revive_node`` and ``link_fault`` for the
    :class:`~repro.faults.live.LiveFaultDriver` at ``self.faults``, and
    ``status_snapshot``, ``render_metrics`` and ``inject_fault_script``
    for a :class:`~repro.obs.control.ControlPlane` (any thread may call
    them; they run on the loop thread).
    """

    backend = "asyncio"

    def __init__(
        self,
        params: ProtocolParams,
        seed: int = 0,
        time_scale: float = DEFAULT_TIME_SCALE,
        byzantine: Optional[dict] = None,
        policy: Optional[DeliveryPolicy] = None,
        trace: bool = False,
    ) -> None:
        from repro.faults.byzantine import ByzantineNode
        from repro.faults.live import LiveFaultDriver

        self.params = params
        self.time_scale = time_scale
        self.rng = RandomSource(seed)
        self.tracer = Tracer(enabled=trace)
        self.transport = AsyncioTransport(
            time_scale=time_scale,
            policy=policy or wall_clock_default(params.delta),
            rand=self.rng.split("net"),
            tracer=self.tracer,
            auth_key=derive_key(f"aio-cluster/{seed}"),
        )
        self.nodes: dict[int, object] = {}
        self.hosts: dict[int, AsyncioHost] = {}
        self.correct_ids: list[int] = []
        self.byzantine_ids: list[int] = []
        self._decision_seen = asyncio.Event()
        byzantine = byzantine or {}
        if len(byzantine) > params.f:
            raise ValueError(
                f"{len(byzantine)} Byzantine nodes exceeds f={params.f}"
            )
        for node_id in range(params.n):
            host = AsyncioHost(
                node_id,
                self.transport,
                params=params,
                rand=self.rng.split(f"host/{node_id}"),
                tracer=self.tracer,
            )
            self.hosts[node_id] = host
            spec = byzantine.get(node_id)
            if spec is None:
                self.nodes[node_id] = ProtocolNode(
                    node_id, host, params, on_decision=self._on_decision
                )
                self.correct_ids.append(node_id)
            else:
                strategy = spec if hasattr(spec, "install") else spec(
                    self.rng.split(f"byz/{node_id}")
                )
                self.nodes[node_id] = ByzantineNode(node_id, host, params, strategy)
                self.byzantine_ids.append(node_id)
        #: Scripted revivals per node (``Restart`` of a crashed node).
        self.restarts = {node_id: 0 for node_id in range(params.n)}
        self._scramblers: dict = {}
        self._node_metrics: Optional[dict] = None
        self.faults = LiveFaultDriver(self, self.transport.loop, self.tracer)

    # ------------------------------------------------------------------
    # Decision plumbing
    # ------------------------------------------------------------------
    def protocol_node(self, node_id: int) -> ProtocolNode:
        """The correct node's protocol state (sim-Cluster-compatible)."""
        node = self.nodes[node_id]
        if not isinstance(node, ProtocolNode):
            raise TypeError(f"node {node_id} is not a correct protocol node")
        return node

    def _on_decision(self, decision: Decision) -> None:
        self._decision_seen.set()

    def latest_decision_per_node(self, general: int) -> dict[int, Decision]:
        """The most recent outcome per correct node for one General."""
        latest: dict[int, Decision] = {}
        for node_id in self.correct_ids:
            for dec in self.nodes[node_id].decisions_for(general):
                held = latest.get(node_id)
                if held is None or dec.returned_real > held.returned_real:
                    latest[node_id] = dec
        return latest

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def propose(self, general: int, value: Value) -> bool:
        """Have a *correct* General initiate agreement on ``value``."""
        node = self.nodes[general]
        if not isinstance(node, ProtocolNode):
            raise TypeError(f"node {general} is not a correct protocol node")
        return node.propose(value)

    async def run_agreement(
        self,
        general: int,
        value: Optional[Value] = None,
        timeout_units: Optional[float] = None,
    ) -> dict[int, Decision]:
        """Run one agreement to completion; returns latest decision per node.

        If ``value`` is given and the General is correct, it proposes first
        (a Byzantine General's strategy schedules its own initiation).  Waits
        until every correct node has returned, or until ``timeout_units``
        (default ``3 * Delta_agr``) of protocol time elapse.
        """
        if value is not None and general in self.correct_ids:
            self.propose(general, value)
        if timeout_units is None:
            timeout_units = 3.0 * self.params.delta_agr
        deadline = self.transport.now() + timeout_units
        while self.transport.now() < deadline:
            if all(
                self.nodes[i].decisions_for(general) for i in self.correct_ids
            ):
                break
            remaining_s = (deadline - self.transport.now()) * self.transport.time_scale
            self._decision_seen.clear()
            try:
                await asyncio.wait_for(
                    self._decision_seen.wait(), timeout=max(0.0, remaining_s)
                )
            except asyncio.TimeoutError:
                break
        return self.latest_decision_per_node(general)

    async def sleep_units(self, duration_units: float) -> None:
        """Let the cluster run for a protocol-time duration."""
        await asyncio.sleep(duration_units * self.transport.time_scale)

    # ------------------------------------------------------------------
    # Lifecycle surface (fault driver and control plane)
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self.transport.now()

    def kill_node(self, node_id: int, state_loss: bool) -> None:
        """Stun the in-process node, as the sim ``Crash`` does."""
        from repro.faults.transient import crash_in_process

        crash_in_process(self.nodes[node_id], state_loss)

    def revive_node(self, node_id: int, restart, index: int) -> None:
        """Revive a crashed node, scrambled if the ``Restart`` asks for it.

        Every node of one action draws from one stream, split by the
        action's ``index`` and ``at_d``, as the sim ``Restart`` does.
        """
        from repro.faults.transient import (
            TransientFaultInjector,
            restart_in_process,
        )

        node = self.nodes[node_id]
        if not node.crashed:
            return
        injector = None
        if restart.scramble:
            key = f"live/restart/{index}@{restart.at_d!r}"
            if key not in self._scramblers:
                self._scramblers[key] = TransientFaultInjector(
                    self.params,
                    self.rng.split(key),
                    value_pool=list(restart.value_pool),
                    generals=list(restart.generals),
                )
            injector = self._scramblers[key]
        restart_in_process(node, injector)
        self.restarts[node_id] += 1

    def link_fault(self, kind: str, args: dict) -> None:
        from repro.faults.live import apply_transport_fault

        apply_transport_fault(self.transport, self.params, kind, args)

    def inject_fault_script(self, spec: object) -> dict:
        """Queue a JSON fault spec (thread-safe; ``at_d`` from injection)."""
        return self.faults.inject(spec)

    def on_loop(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on the loop thread and return its result.

        On the loop thread it simply calls ``fn``; from any other thread it
        waits at most :data:`CONTROL_WAIT_S` for the loop to run it.
        """
        loop = self.transport.loop
        try:
            if asyncio.get_running_loop() is loop:
                return fn()
        except RuntimeError:
            pass
        future: concurrent.futures.Future = concurrent.futures.Future()

        def run() -> None:
            try:
                future.set_result(fn())
            except Exception as exc:
                future.set_exception(exc)

        loop.call_soon_threadsafe(run)
        return future.result(timeout=CONTROL_WAIT_S)

    def status_snapshot(self) -> dict:
        """Cluster status for ``GET /status``, read on the loop thread."""
        return self.on_loop(self._status)

    def _status(self) -> dict:
        nodes = {
            str(node_id): {
                "alive": not node.crashed,
                "incarnation": self.restarts[node_id],
                "restarts": self.restarts[node_id],
                "byzantine": node_id in self.byzantine_ids,
                "metrics_url": None,  # render_metrics serves every node
            }
            for node_id, node in self.nodes.items()
        }
        return {
            "backend": self.backend,
            "n": self.params.n,
            "f": self.params.f,
            "started": True,
            "faults_injected": self.faults.injected,
            "nodes": nodes,
        }

    def render_metrics(self, services: Optional[dict] = None) -> str:
        """Every correct node's series (labelled ``node="i"``), read on the
        loop thread; ``services`` maps node ids to their service parts."""
        return self.on_loop(lambda: self._render(services or {}))

    def _render(self, services: dict) -> str:
        from repro.obs.metrics import NodeMetrics

        if self._node_metrics is None:
            self._node_metrics = {
                node_id: NodeMetrics(node_id, self.time_scale)
                for node_id in self.correct_ids
            }
        for node_id, metrics in self._node_metrics.items():
            metrics.incarnation.set(self.restarts[node_id])
            metrics.sample(
                # The transport is shared in-process, so these counters are
                # cluster-wide on this backend (identical on every node).
                transport=self.transport,
                host=self.hosts[node_id],
                node=self.nodes[node_id],
                service=services.get(node_id),
            )
        return "".join(m.render() for m in self._node_metrics.values())

    def close(self) -> None:
        """Close the fabric, then cancel every node's pending timers."""
        self.faults.cancel()
        self.transport.close()
        for host in self.hosts.values():
            host.close()


async def run_agreement_async(
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    value: Value = "v",
    general: int = 0,
    byzantine: Optional[dict] = None,
    time_scale: float = DEFAULT_TIME_SCALE,
    delta: float = 1.0,
    rho: float = 0.0,
    trace: bool = False,
) -> tuple[AsyncioCluster, dict[int, Decision]]:
    """Build an asyncio cluster, run one agreement, tear the timers down.

    Returns ``(cluster, latest decision per correct node)`` so callers can
    inspect transport counters and traces after the fact.
    """
    params = ProtocolParams(n=n, f=f, delta=delta, rho=rho)
    cluster = AsyncioCluster(
        params,
        seed=seed,
        time_scale=time_scale,
        byzantine=byzantine,
        trace=trace,
    )
    try:
        decisions = await cluster.run_agreement(general, value)
    finally:
        cluster.close()
    return cluster, decisions


__all__ = [
    "CONTROL_WAIT_S",
    "DEFAULT_TIME_SCALE",
    "AioTimerHandle",
    "AsyncioCluster",
    "AsyncioHost",
    "AsyncioTransport",
    "run_agreement_async",
]
