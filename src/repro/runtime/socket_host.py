"""SocketHost: the real-socket backend of the sans-I/O host API.

The third backend: the exact :class:`~repro.core.agreement.ProtocolNode`
code the simulator drives, exchanging **real UDP datagrams** on localhost,
with each node in its own OS process.  This is the closest the reproduction
gets to a deployment: real bytes, real kernel socket buffers, real process
scheduling -- and the same :class:`~repro.runtime.api.ProtocolHost` surface,
so not a line of protocol code changes.

Pieces
------
* :class:`SocketTransport` -- the UDP carrier under
  :class:`~repro.runtime.wire.WireTransport`: one non-blocking socket per
  node, wired into the asyncio loop via ``loop.add_reader``.  Every
  datagram is one authenticated frame (:mod:`repro.runtime.framing`);
  malformed or unauthenticated datagrams are counted and dropped, never
  delivered.  Policy draws, the drop matrix and coalescing are the shared
  transport's, *injected at the sender*: a drop means the copy is never
  transmitted, and a delay holds it back on the sender's loop, from which
  it may leave up to ``RELEASE_SLACK`` early, never before its policy's
  floor, to share a datagram with the copies due just before it.
* :class:`SocketHost` -- wall-clock timers scaled by ``time_scale``
  (seconds per protocol unit), sharing one epoch across all nodes so
  ``now()`` readings are mutually consistent.  A closed host refuses new
  timers, so registries drain to zero at teardown.
* :class:`SocketCluster` / :func:`run_agreement_socket` -- parent-side
  orchestration: spawns one process per node (``multiprocessing`` spawn
  context), collects each child's UDP port over its pipe, distributes the
  address book + shared epoch + cluster frame key, streams decisions back
  over the results pipes, and tears everything down with hard timeouts so
  a hung child is killed, not waited on.

Bring-up order
--------------
1. **Port.**  A child's spawn target (:mod:`repro.runtime.socket_entry`)
   imports only :mod:`socket`: it binds and reports its UDP port before it
   loads anything else.
2. **Address book.**  Once every port is in, the parent sends ``start``
   (peers, epoch, frame key); the epoch lies one start-up grace ahead.
3. **Imports inside the grace.**  Right after its port report the child
   loads this module and what its node runs, and only then reads
   ``start``, so its imports overlap the other children's starts and the
   grace.
4. **Armed before the epoch.**  The child builds its node and arms its
   timers; the protocol-local time at which it armed (negative: before the
   epoch) comes back in its result and ``SocketRunReport.armed_at`` holds
   the latest.  A supervisor respawn runs the same steps and is reachable
   from its port report on: datagrams queue in its bound socket until it
   runs.

Determinism caveat
------------------
Like the asyncio backend, runs are **not** replayable: the seeded draws
(delays, Byzantine choices) are deterministic, but arrival interleaving is
at the mercy of the kernel scheduler and the network stack.  Use the sim
backend for replays.  Keep ``time_scale`` generous -- the default maps
``d`` to 50 ms, leaving process-scheduling stalls well inside the protocol
windows.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.connection
import os
import pickle
import select
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.agreement import Decision, ProtocolNode
from repro.core.messages import Value
from repro.core.params import ProtocolParams
from repro.net.delivery import DeliveryPolicy, wall_clock_default
from repro.runtime.aio import AsyncioHost
from repro.runtime.api import Envelope
from repro.runtime.framing import FrameError, decode_frames, derive_key
from repro.runtime.socket_entry import socket_node_main
from repro.runtime.wire import WireTransport
from repro.sim.rand import RandomSource
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # the parent's fault vocabulary; a child never loads it
    from repro.faults.timeline import Restart

#: Default wall-clock seconds per protocol time unit (d = 50 ms): UDP and
#: spawn-child scheduling latencies stay far below the protocol windows.
DEFAULT_TIME_SCALE = 0.05

#: Parent-side grace for spawning children and collecting their ports.
STARTUP_TIMEOUT_S = 30.0


class SocketTransport(WireTransport):
    """The UDP carrier: one node's endpoint, real datagrams on localhost.

    ``directory`` maps node ids to ``(host, port)`` addresses.  In-process
    harnesses share one mutable dict (each transport registers itself on
    construction); cluster children receive the full address book from the
    parent.  The clock is wall time against the shared ``epoch_wall``,
    scaled by ``time_scale``, so every process sharing the epoch reads one
    axis.  Exactly one node registers -- the one this socket belongs to.

    Each sealed datagram leaves in one ``sendto``, straight from the
    encoder's buffer; the socket is wired into the loop via ``add_reader``
    and drained with ``recvfrom``.  Malformed or unauthenticated datagrams
    are counted and dropped, never delivered.
    """

    def __init__(
        self,
        node_id: int,
        auth_key: bytes,
        time_scale: float = DEFAULT_TIME_SCALE,
        epoch_wall: Optional[float] = None,
        directory: Optional[dict[int, tuple[str, int]]] = None,
        sock: Optional[socket.socket] = None,
        policy: Optional[DeliveryPolicy] = None,
        rand: Optional[RandomSource] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.node_id = node_id
        self.directory = directory if directory is not None else {}
        super().__init__(
            time_scale,
            auth_key,
            rand if rand is not None else RandomSource(0, f"socket/net/{node_id}"),
            routes=self.directory,
            policy=policy,
            tracer=tracer,
        )
        if sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind(("127.0.0.1", 0))
        sock.setblocking(False)
        self.sock = sock
        self.address: tuple[str, int] = sock.getsockname()
        self.directory[node_id] = self.address
        # Local wall epoch -> per-process monotonic epoch: readings stay
        # monotone within the process while remaining (roughly, to process
        # scheduling) consistent across every process sharing the epoch.
        if epoch_wall is None:
            epoch_wall = time.time()
        self.epoch_wall = epoch_wall
        self._epoch_mono = time.monotonic() - (time.time() - epoch_wall)
        self.loop.add_reader(self.sock.fileno(), self._on_readable)

    def now(self) -> float:
        """Current protocol-local time (wall seconds since epoch / scale)."""
        return (time.monotonic() - self._epoch_mono) / self.time_scale

    def register(self, node_id: int, receiver: Callable[[Envelope], None]) -> None:
        """Attach the local node's message handler (one node per socket)."""
        if node_id != self.node_id:
            raise ValueError(
                f"transport for node {self.node_id} cannot register node {node_id}"
            )
        super().register(node_id, receiver)

    # ------------------------------------------------------------------
    # Sending: sendto
    # ------------------------------------------------------------------
    def _transmit(self, receiver: int, frame_buf, count: int) -> None:
        try:
            self.sock.sendto(frame_buf, self.directory[receiver])
        except OSError:
            # Localhost UDP can still fail transiently (full socket buffer);
            # the model permits loss only through the policy, but a lost
            # datagram is indistinguishable from a drop to the receiver, and
            # the resend logic covers it.  Count its copies as drops.
            self.dropped_count += count
        else:
            self.datagrams_sent += 1

    # ------------------------------------------------------------------
    # Receiving: add_reader -> recvfrom
    # ------------------------------------------------------------------
    def _on_readable(self) -> None:
        while True:
            try:
                data, _addr = self.sock.recvfrom(65536)
            except OSError:  # drained (BlockingIOError) or closed under us
                return
            try:
                frames = decode_frames(data, self.decoder)
            except FrameError:
                self._reject()
                continue
            self._deliver_frames(self.node_id, frames)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop whatever is unsent, detach the reader, close the socket."""
        if self._closed:
            return
        super().close()
        try:
            self.loop.remove_reader(self.sock.fileno())
        except (ValueError, OSError):
            pass
        self.sock.close()


class SocketHost(AsyncioHost):
    """One node's :class:`~repro.runtime.api.ProtocolHost` over UDP sockets.

    Everything host-side is shared with :class:`~repro.runtime.aio.
    AsyncioHost` -- wall-clock timers through ``loop.call_later`` scaled by
    the transport's ``time_scale``, the timer registry, refusal of new
    timers once closed -- because a host only ever touches its transport's
    ``loop`` / ``time_scale`` / ``now`` / ``register`` / ``send`` /
    ``broadcast`` surface, which :class:`SocketTransport` provides.  Only
    the default randomness stream name differs (backend-tagged so draws
    never collide across backends at the same seed).
    """

    def __init__(
        self,
        node_id: int,
        transport: SocketTransport,
        params: Optional[ProtocolParams] = None,
        rand: Optional[RandomSource] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if rand is None:
            rand = RandomSource(0, f"socket/host/{node_id}")
        super().__init__(node_id, transport, params=params, rand=rand, tracer=tracer)


# ---------------------------------------------------------------------------
# Child-process side
# ---------------------------------------------------------------------------
async def _child_run(
    cfg: dict, conn, sock: socket.socket, peers: dict, epoch_wall: float, key: bytes
) -> None:
    params = ProtocolParams(
        n=cfg["n"], f=cfg["f"], delta=cfg["delta"], rho=cfg["rho"]
    )
    node_id = cfg["node_id"]
    root = RandomSource(cfg["seed"])
    tracer = Tracer(enabled=cfg["trace"])
    transport = SocketTransport(
        node_id,
        auth_key=key,
        time_scale=cfg["time_scale"],
        epoch_wall=epoch_wall,
        directory=dict(peers),
        sock=sock,
        policy=cfg["policy"] or wall_clock_default(params.delta),
        rand=root.split(f"net/{node_id}"),
        tracer=tracer,
    )
    host = SocketHost(
        node_id,
        transport,
        params=params,
        rand=root.split(f"host/{node_id}"),
        tracer=tracer,
    )
    decisions: list[Decision] = []
    service_cfg = cfg.get("service")
    loop = asyncio.get_running_loop()
    stopped = asyncio.Event()  # set by stop, pipe EOF or the deadline
    release = None

    metrics = None
    metrics_server = None
    if cfg.get("metrics"):
        from repro.obs.http import ObservabilityServer
        from repro.obs.metrics import NodeMetrics

        metrics = NodeMetrics(node_id, cfg["time_scale"])
        metrics.incarnation.set(cfg.get("incarnation", 0))
        metrics_server = ObservabilityServer(render=metrics.render).start()
        try:
            conn.send(("metrics_port", node_id, metrics_server.port))
        except (BrokenPipeError, OSError):
            pass

    def on_decision(decision: Decision) -> None:
        if service_cfg is not None:
            # Service mode runs thousands of slot decisions; per-decision
            # streaming would flood the pipe.  Progress flows through the
            # rate-limited "applied" reports below instead.
            return
        decisions.append(decision)
        try:
            conn.send(("decision", node_id, decision))
        except (BrokenPipeError, OSError):
            pass

    strategy = cfg["strategy"]
    if strategy is None:
        node = ProtocolNode(node_id, host, params, on_decision=on_decision)
    else:
        from repro.faults.byzantine import ByzantineNode

        if not hasattr(strategy, "install"):
            strategy = strategy(root.split(f"byz/{node_id}"))
        node = ByzantineNode(node_id, host, params, strategy)

    service = None
    if service_cfg is not None and strategy is None:
        from repro.service.service import NodeService
        from repro.service.workload import StampRelease

        # Wall-clock stamps: the parent's workload stamps arrivals with it.
        service = NodeService(node, clock=time.time, **service_cfg)
        if service.coordinator is not None:
            release = StampRelease(loop, service.coordinator.submit_nowait)

    scramble = cfg["scramble"]
    if scramble is not None and strategy is None:
        # A respawned incarnation restarting from "arbitrary state": the
        # same scramble the sim Restart applies, seeded per incarnation so
        # two respawns never replay one stream.
        from repro.faults.transient import TransientFaultInjector

        injector = TransientFaultInjector(
            params,
            root.split(f"scramble/{node_id}/{cfg['incarnation']}"),
            value_pool=list(scramble.value_pool),
            generals=list(scramble.generals),
        )
        injector.corrupt_node(node)

    # The epoch sits slightly in the future, so every child is armed before
    # local time 0; the General proposes right at the epoch.
    if cfg["value"] is not None and node_id == cfg["general"] and strategy is None:

        def kickoff() -> None:
            node.propose(cfg["value"])
            if cfg.get("repropose_every_d"):
                # Chaos mode: keep offering the same value, starting *at*
                # the epoch (never before it).  ``propose`` is
                # pacing-guarded, so the offers are refused until the
                # Sending Validity Criteria allow a re-initiation -- the
                # wave a healed node converges on.
                node.every_local(
                    cfg["repropose_every_d"] * params.d,
                    lambda: node.propose(cfg["value"]),
                    tag=f"repropose:{node_id}",
                )

        host.schedule_after(max(0.0, -host.now()), kickoff)

    def on_control() -> None:  # each message as it arrives; stop/EOF end it
        try:
            while not stopped.is_set() and conn.poll():
                msg = conn.recv()
                if msg[0] == "stop":
                    stopped.set()
                elif msg[0] == "rebind":
                    # Rejoin handshake: a peer was respawned on a fresh UDP
                    # port; route its copies there from now on.
                    _tag, peer_id, addr = msg
                    transport.directory[peer_id] = tuple(addr)
                elif msg[0] == "fault":
                    _tag, fault_kind, fault_args = msg
                    from repro.faults.live import apply_transport_fault

                    try:
                        apply_transport_fault(
                            transport, params, fault_kind, fault_args
                        )
                    except Exception:
                        # A malformed directive must not kill the node; the
                        # parent's script was validated, so this is belt
                        # and braces.
                        pass
                elif msg[0] == "cmds" and release is not None:
                    release.ship(msg[1])
        except (EOFError, OSError):
            stopped.set()

    async def report_forever() -> None:
        # The service's live-state sample, the /metrics snapshot, and at
        # most every 0.1 s the apply progress the parent's catch-up reads.
        from repro.service.service import SAMPLE_INTERVAL_S
        progress_due, reported = 0.0, None
        while True:
            if service is not None:
                service.sample()
                if time.monotonic() >= progress_due:
                    progress_due = time.monotonic() + 0.1
                    applier = service.applier
                    progress = (applier.next_index, applier.commands_applied)
                    if progress != reported:
                        reported = progress
                        try:
                            conn.send(("applied", node_id, *progress))
                        except (BrokenPipeError, OSError):
                            pass
            if metrics is not None:
                protocol = node if isinstance(node, ProtocolNode) else None
                metrics.sample(transport, host, protocol, service)
            await asyncio.sleep(SAMPLE_INTERVAL_S)

    loop.add_reader(conn.fileno(), on_control)
    reporter = None
    if service is not None or metrics is not None:
        reporter = loop.create_task(report_forever())
    # The child exits at this protocol time whatever the parent does.
    delay = max(0.0, cfg["timeout_units"] - host.now()) * cfg["time_scale"]
    deadline = loop.call_later(delay, stopped.set)
    armed_at = host.now()  # negative: armed before the epoch, as it should be
    await stopped.wait()
    loop.remove_reader(conn.fileno())
    deadline.cancel()
    if reporter is not None:
        reporter.cancel()
    if release is not None:
        release.held.clear()  # a due timer finds nothing to submit

    # Snapshot *before* close(): what teardown had to reap.  A running node
    # legitimately holds its perpetual cleanup tick plus timers for
    # still-decaying instance state, so nonzero is normal here -- it is
    # reported for observability, not gated on.  ``live_timers`` is read
    # *after* close() and must be zero: it proves close() drains the
    # registry and nothing can re-arm past it.
    timers_at_close = host.live_timer_count()
    if service is not None:
        service.stop()
    host.close()
    transport.close()
    if metrics_server is not None:
        metrics_server.close()
    result = (
        (
            "result",
            node_id,
            {
                "sent": transport.sent_count,
                "delivered": transport.delivered_count,
                "dropped": transport.dropped_count,
                "rejected": transport.rejected_count,
                "datagrams": transport.datagrams_sent,
                "armed_at": armed_at,
                "live_timers": host.live_timer_count(),
                "timers_at_close": timers_at_close,
                "decisions": decisions,
                "trace_events": [
                    (ev.real_time, ev.node, ev.kind, dict(ev.detail), ev.local_time)
                    for ev in tracer.events
                ],
                "trace_counts": tracer.counts(),
                "service": service.result() if service is not None else None,
            },
        )
    )
    try:
        conn.send(result)
    except (BrokenPipeError, OSError):
        # The parent gave up waiting and closed its end; the run is already
        # torn down cleanly, so exit 0 rather than dressing a slow finish
        # up as a crash.
        pass


def run_child(cfg_pickle: bytes, conn, sock: socket.socket) -> None:
    """A child whose port is out: load what it runs, await ``start``, run.

    The config's classes (policy, strategy, scramble) import as it unpickles,
    and the service and metrics modules load here too: all of it inside the
    start-up grace, ahead of the address book.
    """
    cfg = pickle.loads(cfg_pickle)
    if cfg["service"] is not None:
        import repro.service.service  # noqa: F401
    if cfg["metrics"]:
        import repro.obs.http  # noqa: F401
        import repro.obs.metrics  # noqa: F401
    try:
        msg = conn.recv()
    except (EOFError, OSError):  # parent died during setup
        return
    if msg[0] != "start":  # parent aborted setup
        return
    _tag, peers, epoch_wall, key = msg
    asyncio.run(_child_run(cfg, conn, sock, peers, epoch_wall, key))


# ---------------------------------------------------------------------------
# Parent-side orchestration
# ---------------------------------------------------------------------------
@dataclass
class SocketRunReport:
    """Everything the parent collected from one socket-cluster run."""

    correct_ids: list[int]
    byzantine_ids: list[int]
    decisions: dict[int, Decision] = field(default_factory=dict)
    sent_count: int = 0
    delivered_count: int = 0
    dropped_count: int = 0
    rejected_count: int = 0
    #: Datagrams put on the wire cluster-wide; with coalescing this is
    #: below sent_count - dropped_count, and the gap is the batching win.
    datagrams_sent: int = 0
    #: Per-node auth-failed / malformed datagram counts: forged or garbled
    #: traffic is observable per receiver, not just as a cluster total.
    rejected_by_node: dict[int, int] = field(default_factory=dict)
    #: Registry population *after* each child's close(): must be 0 (close
    #: drains and refuses re-arming).
    live_timers: dict[int, int] = field(default_factory=dict)
    #: Registry population just *before* close(): what teardown reaped.  A
    #: running node holds its cleanup tick + decaying instance timers, so
    #: nonzero is normal; reported for observability, not gated.
    timers_at_close: dict[int, int] = field(default_factory=dict)
    #: Final incarnation's exit code per node (None = still alive at kill).
    exit_codes: dict[int, Optional[int]] = field(default_factory=dict)
    #: Structured fate of each node's final incarnation:
    #: ``ok`` (exited 0 with a result), ``no_result`` (exited 0, result lost
    #: -- e.g. killed mid-write), ``signal:<n>`` / ``error:<n>`` (died by
    #: signal / nonzero exit), ``hung`` (never exited; close() reaped it),
    #: ``retired:<why>`` (supervisor gave up: restart budget exhausted or
    #: the node never bootstrapped).
    exit_reasons: dict[int, str] = field(default_factory=dict)
    #: Supervisor respawn count per node (0 = never died).
    restart_counts: dict[int, int] = field(default_factory=dict)
    #: Protocol-local time at which the last final incarnation armed (node
    #: built, timers and readers in place); negative means before the epoch.
    armed_at: Optional[float] = None
    tracer: Optional[Tracer] = None

    @property
    def clean_exit(self) -> bool:
        """True iff every child exited 0 with a drained timer registry."""
        return all(code == 0 for code in self.exit_codes.values()) and all(
            count == 0 for count in self.live_timers.values()
        )


class SocketCluster:
    """An n-node cluster of OS processes exchanging UDP datagrams.

    The parent never runs protocol code: it spawns the children, brokers
    the address book, streams decisions off the results pipes, and owns
    teardown (cooperative stop first, then terminate, then kill) so no
    child can outlive a run.

    With ``supervise=True`` the parent is also a supervisor: a child that
    dies abnormally (killed, crashed) is respawned with exponential backoff
    under a bounded per-node restart budget, its fresh UDP address is
    re-brokered to the survivors over the control pipes (a ``rebind``
    handshake), and -- when the budget runs out -- the dead node is retired
    and the survivors keep running (graceful degradation).  A respawned
    incarnation shares the original epoch, so its clock lands on the
    cluster's time axis, and can be spawned with ``scramble_on_restart`` to
    model the paper's recovery-from-arbitrary-state.

    ``fault_script`` accepts anything :func:`~repro.faults.timeline.
    build_timeline` resolves (a :class:`~repro.faults.timeline.FaultScript`,
    a registered timeline name, or inline JSON-able dicts); its ``at_d``
    offsets count from the shared epoch.  The lifecycle surface is
    :class:`~repro.runtime.aio.AsyncioCluster`'s: ``now``, ``kill_node``,
    ``revive_node`` and ``link_fault`` for the
    :class:`~repro.faults.live.LiveFaultDriver` at ``self.faults``, which
    the run loops pump; ``status_snapshot``, ``render_metrics`` and
    ``inject_fault_script`` for a control plane's handler threads (plain
    field reads, and an inbox the run loop drains).
    """

    backend = "socket"

    def __init__(
        self,
        params: ProtocolParams,
        seed: int = 0,
        time_scale: float = DEFAULT_TIME_SCALE,
        byzantine: Optional[dict] = None,
        policy: Optional[DeliveryPolicy] = None,
        trace: bool = False,
        value: Optional[Value] = None,
        general: int = 0,
        timeout_units: Optional[float] = None,
        startup_grace_s: float = 0.35,
        supervise: bool = False,
        restart_budget: int = 3,
        restart_backoff_s: float = 0.25,
        scramble_on_restart: bool = False,
        fault_script: object = None,
        repropose_every_d: Optional[float] = None,
        value_pool: tuple = ("A", "B", "C"),
        metrics: bool = False,
        *,
        _service_cfg: Optional[dict] = None,
    ) -> None:
        byzantine = byzantine or {}
        if len(byzantine) > params.f:
            raise ValueError(f"{len(byzantine)} Byzantine nodes exceeds f={params.f}")
        self.params = params
        self.seed = seed
        self.time_scale = time_scale
        self.general = general
        self.value = value
        self.trace = trace
        self.timeout_units = (
            timeout_units if timeout_units is not None else 3.0 * params.delta_agr
        )
        self.correct_ids = [i for i in range(params.n) if i not in byzantine]
        self.byzantine_ids = sorted(byzantine)
        self._auth_key = derive_key(f"socket-cluster/{seed}")
        self._byzantine = dict(byzantine)
        self._policy_cfg = policy
        self._supervise = supervise
        self._restart_budget = restart_budget
        self._restart_backoff_s = restart_backoff_s
        #: The ``Restart`` a supervisor respawn stands for, if it scrambles.
        self._respawn_scramble = None
        if scramble_on_restart:
            from repro.faults.timeline import Restart

            self._respawn_scramble = Restart(
                at_d=0.0,
                scramble=True,
                value_pool=tuple(value_pool),
                generals=(general,),
            )
        self._repropose_every_d = repropose_every_d
        #: NodeService arguments shipped to each correct child (None: a
        #: plain agreement run).
        self._service_cfg = _service_cfg
        self._ctx = multiprocessing.get_context("spawn")
        self.procs: dict[int, multiprocessing.Process] = {}
        self.conns: dict[int, Any] = {}
        #: node_id -> control messages its pipe has not taken yet (_ship).
        self._held: dict[int, list] = {}
        # Supervisor bookkeeping (all keyed by node id).
        self._incarnations: dict[int, int] = {}
        self._restarts: dict[int, int] = {i: 0 for i in range(params.n)}
        self._exit_reason: dict[int, str] = {}
        self._retired: set[int] = set()
        self._stopped_procs: set[int] = set()  # SIGSTOP'd (soft crash)
        self._down: dict[int, float] = {}  # node -> respawn-not-before (mono)
        self._awaiting_port: set[int] = set()
        self._death_handled: set[tuple[int, int]] = set()
        self._decided_incarnation: dict[int, int] = {}
        self._results: dict[int, dict] = {}
        self._report: Optional[SocketRunReport] = None
        self._stop_sent = False
        self._peers: dict[int, tuple[str, int]] = {}
        self._epoch_wall: Optional[float] = None
        self._epoch_mono: Optional[float] = None
        self.metrics = metrics
        #: node_id -> port of the child's /metrics endpoint (metrics mode).
        self._metrics_ports: dict[int, int] = {}
        from repro.faults.live import LiveFaultDriver

        self.faults = LiveFaultDriver(self)
        if fault_script is not None:
            from repro.faults.timeline import build_timeline

            self.faults.load(build_timeline(fault_script, params), base=0.0)
        for node_id in range(params.n):
            self._spawn(node_id)
        self._closed = False
        self._started = False
        self._startup_grace_s = startup_grace_s

    # ------------------------------------------------------------------
    # Spawning (initial and supervisor respawns)
    # ------------------------------------------------------------------
    def _make_cfg(
        self, node_id: int, incarnation: int, scramble: Optional[Restart]
    ) -> dict:
        return {
            "node_id": node_id,
            "n": self.params.n,
            "f": self.params.f,
            "delta": self.params.delta,
            "rho": self.params.rho,
            "seed": self.seed,
            "time_scale": self.time_scale,
            "trace": self.trace,
            "policy": self._policy_cfg,
            "strategy": self._byzantine.get(node_id),
            "value": self.value,
            "general": self.general,
            "timeout_units": self.timeout_units,
            "incarnation": incarnation,
            "scramble": scramble,
            "repropose_every_d": self._repropose_every_d,
            "metrics": self.metrics,
            "service": self._service_cfg,
        }

    def _spawn(
        self, node_id: int, incarnation: int = 0, scramble: Optional[Restart] = None
    ) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        # Pickled here, unpickled by the child after its port report.
        cfg = pickle.dumps(self._make_cfg(node_id, incarnation, scramble))
        proc = self._ctx.Process(
            target=socket_node_main,
            args=(node_id, cfg, child_conn),
            daemon=True,
            name=f"repro-socket-node-{node_id}.{incarnation}",
        )
        proc.start()
        child_conn.close()
        self.procs[node_id] = proc
        self.conns[node_id] = parent_conn
        self._incarnations[node_id] = incarnation

    # ------------------------------------------------------------------
    # Setup barrier: collect ports, distribute the address book
    # ------------------------------------------------------------------
    def _start_children(self) -> None:
        """Collect every child's UDP port, then broadcast the address book.

        Under supervision the barrier retries: a child that dies before
        reporting its port is respawned (budget permitting) or retired with
        ``exit_reason`` ``retired:spawn_failed`` -- the run proceeds
        degraded.  Without supervision a silent or dead child is a hard
        error, as before.
        """
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        peers: dict[int, tuple[str, int]] = {}
        want = set(self.procs)
        while want - set(peers) and time.monotonic() < deadline:
            # Respawn (or retire) children that died before reporting.
            for node_id in sorted(want - set(peers)):
                proc = self.procs[node_id]
                if proc.is_alive() or node_id not in self.conns:
                    continue
                if self.conns[node_id].poll():
                    continue  # port message already queued; drain it below
                self._drop_conn(node_id)
                if (
                    self._supervise
                    and self._restarts[node_id] < self._restart_budget
                ):
                    self._restarts[node_id] += 1
                    self._spawn(node_id, self._incarnations[node_id] + 1)
                elif self._supervise:
                    self._exit_reason[node_id] = "spawn_failed"
                    self._retired.add(node_id)
                    want.discard(node_id)
                else:
                    raise RuntimeError(
                        f"node {node_id} died during startup "
                        f"(exit code {proc.exitcode})"
                    )
            waitable = {
                node_id: self.conns[node_id]
                for node_id in want
                if node_id not in peers and node_id in self.conns
            }
            if not waitable:
                break
            ready = multiprocessing.connection.wait(
                list(waitable.values()), timeout=0.2
            )
            for conn in ready:
                node_id = next(i for i, c in waitable.items() if c is conn)
                msg = self._safe_recv(node_id, conn)
                if msg is None:
                    continue
                tag, reported_id, port = msg
                if tag != "port" or reported_id != node_id:
                    raise RuntimeError(
                        f"unexpected setup message from node {node_id}"
                    )
                peers[node_id] = ("127.0.0.1", port)
        leftover = want - set(peers)
        if leftover:
            if not self._supervise:
                raise TimeoutError(
                    f"nodes {sorted(leftover)} never reported a UDP port"
                )
            for node_id in leftover:
                self._exit_reason[node_id] = "spawn_failed"
                self._retired.add(node_id)
                self._drop_conn(node_id)
        self._peers = peers
        epoch_wall = time.time() + self._startup_grace_s
        self._epoch_wall = epoch_wall
        self._epoch_mono = time.monotonic() + self._startup_grace_s
        for node_id in peers.keys() & self.conns.keys():
            self._ship(node_id, ("start", peers, epoch_wall, self._auth_key))
        self._started = True

    # ------------------------------------------------------------------
    # Supervisor: death detection, backoff respawns, rejoin handshake
    # ------------------------------------------------------------------
    @staticmethod
    def _reason_from_exitcode(code: Optional[int]) -> str:
        if code is None:
            return "hung"
        if code == 0:
            return "ok"
        if code < 0:
            return f"signal:{-code}"
        return f"error:{code}"

    def _drop_conn(self, node_id: int) -> None:
        self._held.pop(node_id, None)
        conn = self.conns.pop(node_id, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def _ship(self, node_id: int, *msgs: tuple) -> bool:
        """Queue ``msgs`` for a child, then send what it holds, in order,
        while its pipe is writable: a stunned child's full pipe must not
        block supervision (its SIGCONT included), and a child awaiting
        ``start`` takes nothing.  True iff connected with nothing held."""
        held = self._held.setdefault(node_id, [])
        held.extend(msgs)
        conn = self.conns.get(node_id)
        if conn is None or node_id in self._awaiting_port:
            return False
        while held and select.select((), (conn,), (), 0)[1]:
            try:
                conn.send(held.pop(0))
            except (BrokenPipeError, OSError):
                return False  # death is classified by the supervisor pump
        return not held

    def _safe_recv(self, node_id: int, conn) -> Optional[tuple]:
        """Receive one control message; degrade pipe damage to None.

        A child SIGKILLed mid-write leaves a truncated frame on the pipe;
        unpickling it raises implementation-defined errors.  Either way the
        pipe is dead: retire it and let the supervisor pump classify the
        death from the exit code.  The parent never propagates.
        """
        try:
            return conn.recv()
        except Exception:  # EOFError, OSError, or a truncated pickle
            pass
        self._drop_conn(node_id)
        return None

    def _pump_supervisor(self) -> None:
        """One supervision tick: classify deaths, fire due respawns."""
        # 1. Detect deaths of current incarnations.
        for node_id, proc in list(self.procs.items()):
            if (
                node_id in self._retired
                or node_id in self._down
                or node_id in self._stopped_procs
            ):
                continue
            if proc.is_alive():
                continue
            key = (node_id, self._incarnations[node_id])
            if key in self._death_handled:
                continue
            self._death_handled.add(key)
            self._handle_death(node_id, proc)
        # 2. Fire respawns whose backoff has elapsed.
        now = time.monotonic()
        for node_id, not_before in list(self._down.items()):
            if now < not_before:
                continue
            del self._down[node_id]
            self._spawn(
                node_id,
                self._incarnations[node_id] + 1,
                scramble=self._respawn_scramble,
            )
            self._awaiting_port.add(node_id)

    def _handle_death(self, node_id: int, proc) -> None:
        self._exit_reason[node_id] = self._reason_from_exitcode(proc.exitcode)
        self._drop_conn(node_id)
        self._awaiting_port.discard(node_id)
        if (
            node_id in self._results
            or self._stop_sent
            or self._closed
            or proc.exitcode == 0
        ):
            return  # a normal completion, not a failure to heal
        if self._supervise and self._restarts[node_id] < self._restart_budget:
            delay = self._restart_backoff_s * (2.0 ** self._restarts[node_id])
            self._restarts[node_id] += 1
            self._down[node_id] = time.monotonic() + delay
            # The dead incarnation's protocol state -- decisions included --
            # is gone; the revenant must re-decide for the run to converge.
            if self._report is not None:
                self._report.decisions.pop(node_id, None)
            self._decided_incarnation.pop(node_id, None)
        else:
            self._retired.add(node_id)

    def _complete_rejoin(self, node_id: int, port: int) -> None:
        """Finish a respawned child's bootstrap: start it, re-broker it."""
        addr = ("127.0.0.1", port)
        self._peers[node_id] = addr
        self._awaiting_port.discard(node_id)
        if node_id in self.conns:  # start goes ahead of what waited for it
            self._held.setdefault(node_id, []).insert(
                0, ("start", dict(self._peers), self._epoch_wall, self._auth_key)
            )
            self._ship(node_id)
        for other_id in list(self.conns):
            if other_id != node_id:
                self._ship(other_id, ("rebind", node_id, addr))

    # ------------------------------------------------------------------
    # Lifecycle surface (fault driver and control plane)
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Protocol time on the shared epoch (known once children start)."""
        return (time.monotonic() - self._epoch_mono) / self.time_scale

    def link_fault(self, kind: str, args: dict) -> None:
        """Send a link-fault directive to every currently live child.

        A child respawned later starts with a clean drop matrix.
        """
        for node_id in list(self.conns):
            self._ship(node_id, ("fault", kind, dict(args)))

    def inject_fault_script(self, spec: object) -> dict:
        """Queue a JSON fault spec (thread-safe; ``at_d`` from injection)."""
        return self.faults.inject(spec)

    def render_metrics(self) -> str:
        """The supervisor's own series; each child serves its own."""
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.gauge("repro_cluster_nodes_alive", "Children currently alive").set(
            sum(1 for proc in self.procs.values() if proc.is_alive())
        )
        reg.gauge(
            "repro_cluster_nodes_retired", "Children retired by the supervisor"
        ).set(len(self._retired))
        reg.counter(
            "repro_cluster_restarts_total", "Supervisor respawns, cluster-wide"
        ).set_total(sum(self._restarts.values()))
        reg.counter(
            "repro_cluster_faults_injected_total",
            "Fault actions accepted via POST /faults",
        ).set_total(self.faults.injected)
        return reg.render()

    # ------------------------------------------------------------------
    # Control-plane status (read by HTTP handler threads: simple fields
    # only, everything is snapshotted into plain values here)
    # ------------------------------------------------------------------
    def status_snapshot(self) -> dict:
        """Cluster-wide supervision status for ``GET /status``."""
        nodes: dict[str, dict] = {}
        for node_id in range(self.params.n):
            proc = self.procs.get(node_id)
            mport = self._metrics_ports.get(node_id)
            nodes[str(node_id)] = {
                "alive": bool(proc is not None and proc.is_alive()),
                "incarnation": self._incarnations.get(node_id, 0),
                "restarts": self._restarts.get(node_id, 0),
                "retired": node_id in self._retired,
                "pending_respawn": node_id in self._down,
                "exit_reason": self._exit_reason.get(node_id),
                "byzantine": node_id in self._byzantine,
                "metrics_url": (
                    f"http://127.0.0.1:{mport}/metrics"
                    if mport is not None
                    else None
                ),
            }
        return {
            "backend": "socket",
            "n": self.params.n,
            "f": self.params.f,
            "general": self.general,
            "supervise": self._supervise,
            "started": self._started,
            "stopping": self._stop_sent,
            "faults_injected": self.faults.injected,
            "nodes": nodes,
        }

    def kill_node(self, node_id: int, state_loss: bool = True) -> None:
        """Crash one child: SIGKILL (full state loss) or SIGSTOP (a stun)."""
        proc = self.procs.get(node_id)
        if proc is None or not proc.is_alive() or proc.pid is None:
            return
        if state_loss:
            proc.kill()
            # The heap died with the process: any decision this incarnation
            # reported no longer exists on the node, so the run must not
            # count it toward convergence (and must not race a stop on it).
            if self._report is not None:
                self._report.decisions.pop(node_id, None)
            self._decided_incarnation.pop(node_id, None)
        else:
            try:
                os.kill(proc.pid, signal.SIGSTOP)
            except (ProcessLookupError, OSError):
                return
            self._stopped_procs.add(node_id)

    def revive_node(self, node_id: int, restart: Restart, index: int) -> None:
        """Scripted ``Restart``: SIGCONT a stunned child, respawn a dead one.

        A scripted restart is explicit, so it fires immediately (no
        backoff) and overrides retirement; a node that is alive and running
        is left alone, mirroring the sim Restart's crashed-only no-op.  A
        scrambled respawn draws from the action's value pool and Generals
        (the child seeds the stream; ``index`` is not needed here).
        """
        proc = self.procs.get(node_id)
        if proc is None:
            return
        if node_id in self._stopped_procs:
            if proc.pid is not None:
                try:
                    os.kill(proc.pid, signal.SIGCONT)
                except (ProcessLookupError, OSError):
                    pass
            self._stopped_procs.discard(node_id)
            return
        if proc.is_alive():
            return
        key = (node_id, self._incarnations[node_id])
        if key not in self._death_handled:
            self._death_handled.add(key)
            self._exit_reason[node_id] = self._reason_from_exitcode(proc.exitcode)
            self._drop_conn(node_id)
        self._retired.discard(node_id)
        self._down.pop(node_id, None)
        if self._report is not None:
            self._report.decisions.pop(node_id, None)
        self._decided_incarnation.pop(node_id, None)
        self._restarts[node_id] += 1
        self._spawn(
            node_id,
            self._incarnations[node_id] + 1,
            scramble=restart if restart.scramble else None,
        )
        self._awaiting_port.add(node_id)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_agreement(self) -> SocketRunReport:
        """Run one agreement to completion and tear the cluster down.

        Returns the consolidated report; ``report.decisions`` holds the
        latest decision per correct node for the configured General.  The
        run converges when every non-retired correct node's **current
        incarnation** has decided -- a node killed and respawned mid-run
        must re-decide before the parent sends stop.
        """
        if not self._started:
            self._start_children()
        report = SocketRunReport(
            correct_ids=list(self.correct_ids),
            byzantine_ids=list(self.byzantine_ids),
        )
        self._report = report
        wall_deadline = (
            time.monotonic()
            + self._startup_grace_s
            + self.timeout_units * self.time_scale
            + 5.0
        )
        while time.monotonic() < wall_deadline:
            self.faults.pump()
            self._pump_supervisor()
            if not self._stop_sent and self._all_decided(report):
                self._send_stop()
            if not self._receive(self._unreported(), timeout=0.05):
                break
        self._await_results(timeout_s=5.0)
        self._collect(report, self._results)
        return report

    def _unreported(self) -> dict[int, Any]:
        """Pipes of the connected children that have sent no result yet."""
        return {
            node_id: conn
            for node_id, conn in self.conns.items()
            if node_id not in self._results
        }

    def _receive(self, waitable: dict[int, Any], timeout: float) -> bool:
        """Dispatch what the given pipes deliver within ``timeout``.

        With no pipe to wait on, idle briefly while a respawn is pending;
        False once there is nothing left to wait for.  Flushes first.
        """
        for node_id in list(self._held):
            self._ship(node_id)
        if not waitable:
            if not self._down and not self._awaiting_port:
                return False
            time.sleep(0.02)
            return True
        ready = multiprocessing.connection.wait(
            list(waitable.values()), timeout=timeout
        )
        for conn in ready:
            node_id = next(i for i, c in waitable.items() if c is conn)
            msg = self._safe_recv(node_id, conn)
            if msg is not None:
                self._dispatch(msg)
        return True

    def _await_results(self, timeout_s: float) -> None:
        """Send stop (once), then take pipe traffic until every connected
        child has sent its result or ``timeout_s`` has passed."""
        if not self._stop_sent:
            self._send_stop()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            waitable = self._unreported()
            if not waitable:
                break
            self._receive(waitable, timeout=0.1)

    def _all_decided(self, report: SocketRunReport) -> bool:
        decided_any = False
        for node_id in self.correct_ids:
            if node_id in self._retired:
                continue
            if node_id not in report.decisions:
                return False
            if self._decided_incarnation.get(node_id, 0) != self._incarnations[
                node_id
            ]:
                return False
            decided_any = True
        return decided_any

    def _dispatch(self, msg: tuple) -> None:
        tag = msg[0]
        report = self._report
        if tag == "decision" and report is not None:
            _tag, sender_id, decision = msg
            if decision.general == self.general and sender_id in self.correct_ids:
                held = report.decisions.get(sender_id)
                if held is None or decision.returned_real > held.returned_real:
                    report.decisions[sender_id] = decision
                self._decided_incarnation[sender_id] = self._incarnations.get(
                    sender_id, 0
                )
        elif tag == "result":
            _tag, sender_id, payload = msg
            self._results[sender_id] = payload
        elif tag == "port":
            _tag, reported_id, port = msg
            self._complete_rejoin(reported_id, port)
        elif tag == "metrics_port":
            _tag, reported_id, port = msg
            self._metrics_ports[reported_id] = port

    def _armed_at(self) -> Optional[float]:
        """The latest protocol-local arming time among the children's results."""
        return max((p["armed_at"] for p in self._results.values()), default=None)

    def _send_stop(self) -> None:
        self._stop_sent = True
        for node_id in list(self.conns):
            self._ship(node_id, ("stop",))

    def _collect(self, report: SocketRunReport, results: dict[int, dict]) -> None:
        """Merge per-node results; a missing or damaged result degrades to a
        structured ``exit_reason``, never a parent exception.

        Counters cover each node's **final** incarnation only: a killed
        incarnation's heap -- counters included -- died with it.
        """
        tracer = Tracer(enabled=self.trace)
        merged_events = []
        for node_id, payload in results.items():
            report.sent_count += payload["sent"]
            report.delivered_count += payload["delivered"]
            report.dropped_count += payload["dropped"]
            report.rejected_count += payload["rejected"]
            report.datagrams_sent += payload.get("datagrams", 0)
            report.rejected_by_node[node_id] = payload["rejected"]
            report.live_timers[node_id] = payload["live_timers"]
            report.timers_at_close[node_id] = payload["timers_at_close"]
            for decision in payload["decisions"]:
                if decision.general != self.general or node_id not in self.correct_ids:
                    continue
                held = report.decisions.get(node_id)
                if held is None or decision.returned_real > held.returned_real:
                    report.decisions[node_id] = decision
            merged_events.extend(payload["trace_events"])
            for kind, count in payload["trace_counts"].items():
                tracer.bump_many(kind, count)
        if self.trace:
            from repro.sim.trace import TraceEvent

            merged_events.sort(key=lambda ev: ev[0])
            tracer._events.extend(
                TraceEvent(rt, node, kind, detail, lt)
                for rt, node, kind, detail, lt in merged_events
            )
        report.tracer = tracer
        report.armed_at = self._armed_at()
        self.close()
        for node_id, proc in self.procs.items():
            code = proc.exitcode
            report.exit_codes[node_id] = code
            report.restart_counts[node_id] = self._restarts[node_id]
            if node_id in self._retired:
                reason = self._exit_reason.get(node_id, "retired")
                if reason == "ok":
                    reason = "no_result"
                report.exit_reasons[node_id] = f"retired:{reason}"
            elif node_id in results:
                report.exit_reasons[node_id] = self._reason_from_exitcode(code)
            elif code == 0:
                report.exit_reasons[node_id] = "no_result"
            else:
                report.exit_reasons[node_id] = self._reason_from_exitcode(code)
        missing = [i for i in self.procs if i not in results]
        for node_id in missing:
            report.live_timers.setdefault(node_id, -1)

    # ------------------------------------------------------------------
    # Teardown: no child outlives the cluster
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Join every child; escalate to terminate, then kill.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        # Wake any SIGSTOP'd children first: a stopped process cannot honour
        # the cooperative stop and would eat the full join timeout.
        for node_id in list(self._stopped_procs):
            proc = self.procs.get(node_id)
            if proc is not None and proc.is_alive() and proc.pid is not None:
                try:
                    os.kill(proc.pid, signal.SIGCONT)
                except (ProcessLookupError, OSError):
                    pass
        self._stopped_procs.clear()
        self._send_stop()
        for node_id in list(self.conns):  # EOF stops a child the stop missed
            self._drop_conn(node_id)
        for proc in self.procs.values():
            proc.join(timeout=5.0)
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for proc in self.procs.values():
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)

    def __del__(self) -> None:  # last-resort orphan guard
        try:
            self.close()
        except Exception:
            pass


def run_agreement_socket(
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
    timeout_units: Optional[float] = None,
    policy: Optional[DeliveryPolicy] = None,
    supervise: bool = False,
    fault_script: object = None,
    scramble_on_restart: bool = False,
    restart_budget: int = 3,
    restart_backoff_s: float = 0.25,
    repropose_every_d: Optional[float] = None,
) -> tuple[SocketRunReport, dict[int, Decision]]:
    """Spawn a socket cluster, run one agreement, tear every process down.

    Returns ``(report, latest decision per correct node)`` -- the same shape
    as :func:`repro.runtime.aio.run_agreement_async`, with the report
    standing in for the in-process cluster object.
    """
    params = ProtocolParams(n=n, f=f, delta=delta, rho=rho)
    cluster = SocketCluster(
        params,
        seed=seed,
        time_scale=time_scale,
        byzantine=byzantine,
        policy=policy,
        trace=trace,
        value=value,
        general=general,
        timeout_units=timeout_units,
        supervise=supervise,
        fault_script=fault_script,
        scramble_on_restart=scramble_on_restart,
        restart_budget=restart_budget,
        restart_backoff_s=restart_backoff_s,
        repropose_every_d=repropose_every_d,
    )
    try:
        report = cluster.run_agreement()
    finally:
        cluster.close()
    return report, dict(report.decisions)


__all__ = [
    "DEFAULT_TIME_SCALE",
    "SocketCluster",
    "SocketHost",
    "SocketRunReport",
    "SocketTransport",
    "run_agreement_socket",
]
