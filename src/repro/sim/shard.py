"""Sharded execution of the discrete-event kernel.

One big run saturates a single core: every message copy is one heap event on
one timeline.  This module partitions a cluster's nodes into *shard groups*,
runs each group's events on an independent :class:`KeyedSimulator` (its own
process by default), and exchanges cross-shard message deliveries through a
sequenced, conservative synchronization boundary -- while reproducing the
serial kernel's output **bit for bit**.

The conservative-sync invariant
-------------------------------
Let ``L`` be the *lookahead*: a lower bound on the transit delay of every
delivered message copy, taken as the minimum of
:meth:`~repro.net.delivery.DeliveryPolicy.min_delay` over the initial
delivery policy and every policy the run can install later (driver
``set_policy`` calls and fault-timeline ``SwapPolicy`` actions).  Each
synchronization round, the coordinator computes the global horizon
``H = min over shards of next-local-event time`` and grants every shard the
right to execute events with ``time < H + L``.  Safety: any message sent by
an event executing at ``t >= H`` arrives no earlier than ``t + L >= H + L``,
so no cross-shard arrival can land inside the granted window after it was
granted.  Liveness: the shard holding the horizon executes at least one
event per round, and the global floor advances by at least ``L`` per round.
The run's final round uses the inclusive bound ``T_end`` directly once
``H + L > T_end`` -- by the same argument every send from that round arrives
strictly after ``T_end``, so one inclusive sweep suffices.  ``L == 0`` (e.g.
:class:`~repro.net.delivery.IncoherentDelivery`) is rejected for more than
one shard: a zero-lookahead conservative simulation cannot advance.

Bit-identical tie-breaking
--------------------------
The serial kernel orders equal-time events by a global scheduling sequence
number.  A shard cannot know peers' sequence numbers, so
:class:`KeyedSimulator` replaces the integer with a *rank*: a tuple computed
entirely from locally-replicated state whose lexicographic order provably
equals the serial kernel's scheduling order at equal fire times.  Ranks are
epoch-based -- ``(0, s)`` for events scheduled during cluster construction
(``s`` a construction counter, identical everywhere because every shard
builds the *full* cluster), ``(2b+1, c, i)`` for the ``i``-th event issued
by control operation ``c`` at the boundary before driver run ``b+1``, and
``(2b+2, t_parent, rank_parent, i)`` for the ``i``-th child scheduled by the
event ``(t_parent, rank_parent)`` during run ``b+1``.  Odd/even epoch parity
keeps tuple shapes type-consistent under comparison, and a straightforward
induction over scheduling order shows rank order == serial seq order at
equal times.  Events owned by node ``v`` are enqueued only on ``v``'s home
shard (``v % shard_count``); rank counters still advance identically on
every shard, so a cross-shard delivery ships its ``(time, rank)`` key with
the payload and slots into the receiving heap exactly where the serial
kernel would have run it.

Randomness is already placement-independent: per-node streams are keyed by
node id (``rand.split(f"host/{i}")`` etc.) and the network fabric draws
per-sender (:mod:`repro.net.network`), so no draw depends on which shard
executes what.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import weakref
from dataclasses import replace
from typing import Any, Callable, Optional, Sequence

from repro.net.delivery import UniformDelay
from repro.net.network import Envelope, Network
from repro.sim.engine import EventHandle, SimulationError, Simulator
from repro.sim.rand import RandomSource
from repro.sim.trace import TraceEvent, Tracer

_EMPTY_DETAIL: dict[str, Any] = {}

_MODE_SETUP = 0
_MODE_CONTROL = 1
_MODE_RUN = 2


class ShardError(RuntimeError):
    """Raised for invalid uses of (or failures inside) the sharded kernel."""


# ---------------------------------------------------------------------------
# The keyed simulator: one shard's event loop
# ---------------------------------------------------------------------------
class KeyedSimulator(Simulator):
    """A :class:`Simulator` whose tie-break keys are placement-independent.

    Heap entries are ``(time, rank, action, arg, owner)``; ``rank`` is the
    epoch tuple described in the module docstring (a *total* tie-break, so
    actions/args are never compared), ``arg`` a timer's handle or, unlike
    the serial kernel's runs, one delivery's envelope, ``owner`` the owning node
    id or ``None`` for cluster-global events.  Scheduling always allocates a rank
    (counters must advance identically on every shard) but only pushes the
    event when the owner lives on this shard; remote-owned scheduling returns
    an inert, already-dead handle.
    """

    def __init__(
        self, shard_index: int = 0, shard_count: int = 1, start_time: float = 0.0
    ) -> None:
        super().__init__(start_time)
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.outbox: list[tuple] = []
        self._mode = _MODE_SETUP
        self._setup_seq = 0
        self._run_index = 0  # completed driver runs
        self._control_seq = -1  # current control operation (pre-incremented)
        self._ctx_time = 0.0
        self._ctx_rank: tuple = ()
        self._child_idx = 0
        self._owner: Optional[int] = None
        self._trace_sub = 0

    # ------------------------------------------------------------------
    # Rank allocation
    # ------------------------------------------------------------------
    def _alloc_rank(self) -> tuple:
        mode = self._mode
        if mode == _MODE_RUN:
            idx = self._child_idx
            self._child_idx = idx + 1
            return (2 * self._run_index + 2, self._ctx_time, self._ctx_rank, idx)
        if mode == _MODE_CONTROL:
            idx = self._child_idx
            self._child_idx = idx + 1
            return (2 * self._run_index + 1, self._control_seq, idx)
        seq = self._setup_seq
        self._setup_seq = seq + 1
        return (0, seq)

    # ------------------------------------------------------------------
    # Scheduling overrides
    # ------------------------------------------------------------------
    def schedule_at(
        self, time: float, action: Callable[[], None], tag: str = ""
    ) -> EventHandle:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before now={self._now:.6f}"
            )
        rank = self._alloc_rank()
        owner = self._owner
        if owner is None or owner % self.shard_count == self.shard_index:
            handle = EventHandle(time, tag, _sim=self)
            heapq.heappush(self._queue, (time, rank, action, handle, owner))
            self._live_events += 1
            return handle
        # Remote-owned: the home shard holds the live event; this copy is a
        # dead handle so local cancel() calls are harmless no-ops.
        return EventHandle(time, tag, _sim=None)

    def schedule_run(
        self, times: list[float], action: Callable[[Any, int], None], arg: Any
    ) -> None:
        """Refused: this kernel's :meth:`_run_round` executes no runs, so
        :class:`ShardNetwork` queues each copy with :meth:`schedule_fire`."""
        raise SimulationError("the keyed kernel queues each copy as its own entry")

    def schedule_fire(
        self,
        time: float,
        action: Callable[[Any], None],
        arg: Any,
        owner: Optional[int] = None,
    ) -> None:
        """Queue ``action(arg)`` at ``time``, owned by ``owner`` (a
        delivery's receiver) or else by the scheduling context's owner."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before now={self._now:.6f}"
            )
        rank = self._alloc_rank()
        if owner is None:
            owner = self._owner
        if owner is None or owner % self.shard_count == self.shard_index:
            heapq.heappush(self._queue, (time, rank, action, arg, owner))
            self._live_events += 1

    def export_delivery(self, time: float, item: tuple) -> None:
        """Allocate a rank for a remote delivery and stage it in the outbox."""
        rank = self._alloc_rank()
        self.outbox.append((time, rank) + item)

    def push_external(
        self,
        time: float,
        rank: tuple,
        action: Callable[[Any], None],
        arg: Any,
        owner: int,
    ) -> None:
        """Inject a cross-shard arrival under its sender-allocated rank."""
        heapq.heappush(self._queue, (time, rank, action, arg, owner))
        self._live_events += 1

    # ------------------------------------------------------------------
    # Ownership scoping
    # ------------------------------------------------------------------
    def owner_scope(self, owner: Optional[int]) -> "_OwnerScope":
        return _OwnerScope(self, owner)

    def node_scope(self, owner: Optional[int], pos: int) -> "_NodeScope":
        if self._mode != _MODE_RUN:
            raise ShardError(
                "node_scope is only valid while a scheduled event executes "
                "(fault-timeline firings)"
            )
        return _NodeScope(self, owner, pos)

    # ------------------------------------------------------------------
    # Boundary protocol (driven by the shard worker)
    # ------------------------------------------------------------------
    def begin_control(self, owner: Optional[int] = None) -> None:
        """Start one control operation; advances the global control counter."""
        self._mode = _MODE_CONTROL
        self._control_seq += 1
        self._child_idx = 0
        self._owner = owner
        self._trace_sub = 0

    def finish_run(self, until: float) -> None:
        """Close a driver run: advance the clock and the run epoch."""
        if self._now < until:
            self._now = until
        self._run_index += 1
        self._owner = None

    def run_round_strict(self, bound: float) -> int:
        """Execute events with ``time < bound`` (conservative mid-run round).

        Unlike :meth:`run_until` the clock is *not* advanced to the bound:
        later rounds may still inject cross-shard arrivals below it.
        """
        return self._run_round(bound, None, inclusive=False)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_loop(self, until: Optional[float], max_events: Optional[int]) -> int:
        return self._run_round(until, max_events, inclusive=True)

    def _run_round(
        self, until: Optional[float], max_events: Optional[int], inclusive: bool
    ) -> int:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        executed = 0
        queue = self._queue
        try:
            while queue:
                if self._stop_requested:
                    break
                if max_events is not None and executed >= max_events:
                    break
                head = queue[0]
                arg = head[3]
                timer = arg.__class__ is EventHandle
                if timer and arg.cancelled:
                    heapq.heappop(queue)
                    continue
                time = head[0]
                if until is not None and (
                    time > until if inclusive else time >= until
                ):
                    break
                heapq.heappop(queue)
                if timer:
                    arg._sim = None
                self._live_events -= 1
                self._now = time
                self._events_executed += 1
                executed += 1
                # Execution context: children of this event rank under it.
                self._mode = _MODE_RUN
                self._ctx_time = time
                self._ctx_rank = head[1]
                self._child_idx = 0
                self._owner = head[4]
                self._trace_sub = 0
                if timer:
                    head[2]()
                else:
                    head[2](arg)
        finally:
            self._running = False
        return executed

    # ------------------------------------------------------------------
    # Trace merge keys
    # ------------------------------------------------------------------
    def merge_key(self) -> tuple:
        """A cross-shard sort key reproducing serial trace-record order."""
        sub = self._trace_sub
        self._trace_sub = sub + 1
        mode = self._mode
        if mode == _MODE_RUN:
            return (self._now, self._ctx_rank, sub)
        if mode == _MODE_CONTROL:
            return (self._now, (2 * self._run_index + 1, self._control_seq), sub)
        owner = self._owner
        return (self._now, (-1, -1 if owner is None else owner), sub)


class _OwnerScope:
    """Attribute events scheduled inside the scope to one node (setup path)."""

    __slots__ = ("_sim", "_owner", "_saved")

    def __init__(self, sim: KeyedSimulator, owner: Optional[int]) -> None:
        self._sim = sim
        self._owner = owner

    def __enter__(self) -> None:
        sim = self._sim
        self._saved = (sim._owner, sim._trace_sub)
        sim._owner = self._owner
        sim._trace_sub = 0

    def __exit__(self, *exc_info: object) -> None:
        self._sim._owner, self._sim._trace_sub = self._saved


class _NodeScope:
    """Per-node rank sub-context for replicated multi-node timeline actions.

    The effective parent rank becomes ``rank_firing + (pos,)`` -- appended,
    not nested, so the first tuple element stays an int and rank comparisons
    stay type-consistent.  Child counters restart per sub-context, making the
    ranks of a node's effects independent of how many other nodes the action
    touched first on some other shard.
    """

    __slots__ = ("_sim", "_owner", "_pos", "_saved")

    def __init__(self, sim: KeyedSimulator, owner: Optional[int], pos: int) -> None:
        self._sim = sim
        self._owner = owner
        self._pos = pos

    def __enter__(self) -> None:
        sim = self._sim
        self._saved = (sim._owner, sim._ctx_rank, sim._child_idx, sim._trace_sub)
        sim._owner = self._owner
        sim._ctx_rank = sim._ctx_rank + (self._pos,)
        sim._child_idx = 0
        sim._trace_sub = 0
    def __exit__(self, *exc_info: object) -> None:
        sim = self._sim
        (sim._owner, sim._ctx_rank, sim._child_idx, sim._trace_sub) = self._saved


# ---------------------------------------------------------------------------
# Shard-local network fabric and tracer
# ---------------------------------------------------------------------------
class ShardNetwork(Network):
    """Network fabric for one shard.

    Each copy keeps its own entry here, not a run: its rank and its home
    shard are its own.  Deliveries to locally-homed receivers go straight
    onto this shard's heap (owned by the receiver, so the receiver's
    protocol reactions stay on its home shard); deliveries to remote
    receivers consume a rank and are staged in the simulator's outbox for
    the coordinator to route.
    """

    def _queue_copies(
        self,
        sender: int,
        receivers: Sequence[int],
        payload: object,
        sent_at: float,
        times: list[float],
    ) -> None:
        sim: KeyedSimulator = self._sim  # type: ignore[assignment]
        deliver = self._deliver_now
        for receiver, at in zip(receivers, times):
            if receiver % sim.shard_count == sim.shard_index:
                sim.schedule_fire(
                    at,
                    deliver,
                    Envelope(sender, receiver, payload, sent_at, at),
                    receiver,
                )
            else:
                sim.export_delivery(at, (sender, receiver, payload, sent_at))


class ShardTracer(Tracer):
    """Tracer for one shard: exactly-once records plus merge keys.

    Replicated execution contexts (cluster construction, timeline firings)
    run on *every* shard, so records are filtered to fire exactly once
    globally: records inside a node-owned scope only on the owner's home
    shard, scenario-level records (and anything without an owner) only on
    shard 0.  Per-kind counts follow the same rule and are summed by the
    coordinator; full events carry a :meth:`KeyedSimulator.merge_key` so the
    coordinator can splice shard traces back into serial record order.
    """

    def __init__(self, enabled: bool, sim: KeyedSimulator) -> None:
        super().__init__(enabled)
        self._ksim = sim
        self._keys: list[tuple] = []

    def record(
        self,
        real_time: float,
        node: Optional[int],
        kind: str,
        local_time: Optional[float] = None,
        **detail: Any,
    ) -> None:
        sim = self._ksim
        owner = sim._owner
        if owner is not None:
            if owner % sim.shard_count != sim.shard_index:
                return
        elif sim.shard_index != 0:
            return
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if not self.enabled:
            return
        self._keys.append(sim.merge_key())
        self._events.append(
            TraceEvent(
                real_time,
                node,
                kind,
                detail if detail else _EMPTY_DETAIL,
                local_time,
            )
        )


# ---------------------------------------------------------------------------
# Shard worker: one full cluster build, node-filtered execution
# ---------------------------------------------------------------------------
class _ShardState:
    """One shard's world: keyed simulator + a full (but filtered) cluster.

    Every shard builds the *entire* cluster -- identical construction order
    is what makes setup ranks and per-node randomness line up across shards
    -- but only events owned by locally-homed nodes ever enter this heap.
    """

    def __init__(self, config: Any, shard_index: int, shard_count: int) -> None:
        # Lazy import: the harness layer imports this module.
        from repro.harness.scenario import Cluster

        self.sim = KeyedSimulator(shard_index, shard_count)
        self.tracer = ShardTracer(config.trace, self.sim)
        self.cluster = Cluster(
            config, _sim=self.sim, _tracer=self.tracer, _net_cls=ShardNetwork
        )

    # -- command dispatch ----------------------------------------------
    def handle(self, cmd: tuple) -> tuple:
        op = cmd[0]
        sim = self.sim
        if op == "step":
            _, bound, inclusive, inbox = cmd
            if inbox:
                self._inject(inbox)
            if inclusive:
                sim.run_until(bound)
            else:
                sim.run_round_strict(bound)
            return self._reply(None)
        if op == "control":
            return self._reply([self._control_op(c) for c in cmd[1]])
        if op == "finish_run":
            sim.finish_run(cmd[1])
            return self._reply(None)
        if op == "query":
            return self._reply(self._query(cmd[1], cmd[2:]))
        if op == "ping":
            return self._reply(None)
        raise ShardError(f"unknown shard command {op!r}")

    def _reply(self, payload: Any) -> tuple:
        sim = self.sim
        outbox = sim.outbox
        if outbox:
            sim.outbox = []
        return ("ok", payload, outbox, sim.next_event_time())

    def _inject(self, inbox: Sequence[tuple]) -> None:
        sim = self.sim
        deliver = self.cluster.net._deliver_now
        for time, rank, sender, receiver, payload, sent_at in inbox:
            sim.push_external(
                time,
                rank,
                deliver,
                Envelope(sender, receiver, payload, sent_at, time),
                receiver,
            )

    # -- control operations (same order on every shard) ----------------
    def _control_op(self, c: tuple) -> Any:
        sim = self.sim
        cluster = self.cluster
        op = c[0]
        if op == "propose":
            _, general, value = c
            sim.begin_control(owner=general)
            if general % sim.shard_count == sim.shard_index:
                return cluster.propose(general, value)
            return None
        if op == "set_policy":
            sim.begin_control()
            cluster.net.set_policy(self._resolve_policy(c[1]))
            return None
        if op == "install_script":
            _, script, start_real = c
            sim.begin_control()
            script.install(cluster, start_real)
            return None
        raise ShardError(f"unknown control operation {op!r}")

    def _resolve_policy(self, spec: tuple) -> Any:
        kind, value = spec
        if kind == "obj":
            return value
        from repro.faults.timeline import build_policy

        return build_policy(value, self.cluster)

    # -- queries (read-only; no counters advance) ----------------------
    def _query(self, what: str, args: tuple) -> Any:
        sim = self.sim
        cluster = self.cluster
        if what == "decisions":
            (general,) = args
            count, index = sim.shard_count, sim.shard_index
            return {
                node_id: list(cluster.nodes[node_id].decisions_for(general))
                for node_id in cluster.correct_ids
                if node_id % count == index
            }
        if what == "net":
            net = cluster.net
            return (
                net.sent_count,
                net.delivered_count,
                net.dropped_partition,
                net.dropped_policy,
            )
        if what == "trace":
            tracer = self.tracer
            return (tracer.counts(), list(tracer._keys), list(tracer._events))
        raise ShardError(f"unknown shard query {what!r}")


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------
class _InlineShard:
    """In-process transport: shard states stepped synchronously.

    Same protocol and same bit-identical results as the process transport
    (determinism never depends on process boundaries), minus pickling --
    the cheap path for tests, debugging, and single-core machines.
    """

    def __init__(self, config: Any, shard_index: int, shard_count: int) -> None:
        self._state = _ShardState(config, shard_index, shard_count)
        self._reply: Optional[tuple] = None

    def post(self, cmd: tuple) -> None:
        self._reply = self._state.handle(cmd)

    def wait(self) -> tuple:
        reply, self._reply = self._reply, None
        assert reply is not None, "wait() without a posted command"
        return reply

    def close(self) -> None:
        pass


def _shard_main(conn: Any, config: Any, shard_index: int, shard_count: int) -> None:
    try:
        state = _ShardState(config, shard_index, shard_count)
        conn.send(("ok", None, [], state.sim.next_event_time()))
    except BaseException as exc:  # startup failure must reach the parent
        conn.send(("err", f"{type(exc).__name__}: {exc}"))
        return
    while True:
        try:
            cmd = conn.recv()
        except EOFError:
            return
        if cmd[0] == "shutdown":
            return
        try:
            conn.send(state.handle(cmd))
        except BaseException as exc:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))


class _ProcessShard:
    """One shard event loop in its own OS process, driven over a pipe."""

    def __init__(self, config: Any, shard_index: int, shard_count: int) -> None:
        # Never fork the (possibly threaded) driving process itself.
        ctx = multiprocessing.get_context("forkserver")
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self._proc: Optional[Any] = ctx.Process(
            target=_shard_main,
            args=(child_conn, config, shard_index, shard_count),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self._recv()  # startup ack (or startup failure)

    def post(self, cmd: tuple) -> None:
        self._conn.send(cmd)

    def wait(self) -> tuple:
        return self._recv()

    def _recv(self) -> tuple:
        try:
            reply = self._conn.recv()
        except EOFError:
            raise ShardError("shard worker died (pipe closed)") from None
        if reply[0] == "err":
            raise ShardError(f"shard worker failed: {reply[1]}")
        return reply

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            self._conn.send(("shutdown",))
        except (BrokenPipeError, OSError):
            pass
        self._conn.close()
        proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover - hang safety net
            proc.terminate()
            proc.join(timeout=5)


def _close_all(shards: list) -> None:
    for shard in shards:
        try:
            shard.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass


_TRANSPORTS = {"process": _ProcessShard, "inline": _InlineShard}


# ---------------------------------------------------------------------------
# The coordinator / driving facade
# ---------------------------------------------------------------------------
class _FacadeSim:
    """Parent-side stand-in for ``cluster.sim`` (clock bookkeeping only)."""

    def __init__(self, owner: "ShardedCluster") -> None:
        self._owner = owner

    @property
    def now(self) -> float:
        return self._owner._now


class _FacadeNet:
    """Parent-side stand-in for ``cluster.net``: counters and topology ops."""

    def __init__(self, owner: "ShardedCluster") -> None:
        self._owner = owner

    def _counts(self) -> list[int]:
        owner = self._owner
        if owner._net_cache is None:
            totals = [0, 0, 0, 0]
            for counts in owner._broadcast(("query", "net")):
                for i in range(4):
                    totals[i] += counts[i]
            owner._net_cache = totals
        return owner._net_cache

    @property
    def sent_count(self) -> int:
        return self._counts()[0]

    @property
    def delivered_count(self) -> int:
        return self._counts()[1]

    @property
    def dropped_partition(self) -> int:
        return self._counts()[2]

    @property
    def dropped_policy(self) -> int:
        return self._counts()[3]

    @property
    def dropped_count(self) -> int:
        counts = self._counts()
        return counts[2] + counts[3]

    @property
    def policy(self) -> Any:
        raise ShardError(
            "the live delivery policy is shard-local state; drive it via "
            "set_policy()/set_policy_spec()"
        )

    def set_policy(self, policy: Any) -> None:
        owner = self._owner
        owner._register_policy(policy)
        owner._control(("set_policy", ("obj", policy)))

    def set_policy_spec(self, spec: Any) -> None:
        """Install a *named* policy, resolved shard-side against each shard's
        live cluster (the route for policies that bind shard-local state,
        e.g. bursty delays reading ``sim.now``)."""
        from repro.faults.timeline import build_policy

        owner = self._owner
        owner._register_policy(build_policy(spec, owner))
        owner._control(("set_policy", ("name", spec)))


class ShardedCluster:
    """Drop-in driving facade for a sharded run.

    Exposes the :class:`~repro.harness.scenario.Cluster` surface the
    experiment drivers and the suite runner rely on -- ``params``,
    ``config``, ``sim.now``, ``propose``, ``run_for``, ``net.set_policy``,
    ``decisions``/``latest_decision_per_node``,
    ``correct_ids``/``byzantine_ids``, network counters, and a merged
    ``tracer`` -- while the actual nodes live inside shard workers.  Direct
    node access (``nodes``, ``protocol_node``...) raises :class:`ShardError`
    with guidance, as do features whose semantics cannot be reproduced
    across shards (``Havoc`` timelines, ``Restart(scramble=True)``,
    ``max_events`` budgets, zero-lookahead policies with more than one
    shard).
    """

    sharded = True

    def __init__(
        self,
        config: Any,
        shards: Optional[int] = None,
        transport: Optional[str] = None,
    ) -> None:
        params = config.params
        requested = int(shards if shards is not None else (config.shards or 1))
        if requested < 1:
            raise ShardError(f"shards must be >= 1, got {requested}")
        transport = transport or getattr(config, "shard_transport", "process")
        try:
            transport_cls = _TRANSPORTS[transport]
        except KeyError:
            known = ", ".join(sorted(_TRANSPORTS))
            raise ShardError(
                f"unknown shard transport {transport!r} (known: {known})"
            ) from None
        if (
            len(config.byzantine) > params.f
            and not config.allow_extra_byzantine
        ):
            raise ValueError(
                f"{len(config.byzantine)} Byzantine nodes exceeds f={params.f}"
            )
        self.config = config
        self.params = params
        self.requested_shards = requested
        self.shard_count = min(requested, params.n)
        self.shard_transport = transport
        self.rng = RandomSource(config.seed)
        self.byzantine_ids = [i for i in range(params.n) if i in config.byzantine]
        self.correct_ids = [
            i for i in range(params.n) if i not in config.byzantine
        ]
        self._policy_pool: list[Any] = [
            config.policy
            or UniformDelay(0.1 * params.delta, params.delta)
        ]
        self._now = 0.0
        self.sim = _FacadeSim(self)
        self.net = _FacadeNet(self)
        self._pending: list[list[tuple]] = [[] for _ in range(self.shard_count)]
        self._next: list[Optional[float]] = [None] * self.shard_count
        self._decision_cache: dict[int, dict] = {}
        self._net_cache: Optional[list[int]] = None
        self._trace_cache: Optional[Tracer] = None
        worker_config = replace(config, shards=None)
        shard_list: list[Any] = []
        try:
            for index in range(self.shard_count):
                shard_list.append(
                    transport_cls(worker_config, index, self.shard_count)
                )
        except BaseException:
            _close_all(shard_list)
            raise
        self._shards = shard_list
        self._finalizer = weakref.finalize(self, _close_all, list(shard_list))
        self._broadcast(("ping",))

    # ------------------------------------------------------------------
    # Coordinator plumbing
    # ------------------------------------------------------------------
    def _broadcast(self, cmd: tuple) -> list:
        for shard in self._shards:
            shard.post(cmd)
        payloads = []
        for index, shard in enumerate(self._shards):
            _tag, payload, outbox, next_time = shard.wait()
            self._next[index] = next_time
            if outbox:
                self._route(outbox)
            payloads.append(payload)
        return payloads

    def _route(self, outbox: Sequence[tuple]) -> None:
        pending = self._pending
        count = self.shard_count
        for item in outbox:
            pending[item[3] % count].append(item)

    def _control(self, *ops: tuple) -> list:
        self._invalidate()
        return self._broadcast(("control", list(ops)))

    def _invalidate(self) -> None:
        self._decision_cache.clear()
        self._net_cache = None
        self._trace_cache = None

    def _register_policy(self, policy: Any) -> None:
        self._policy_pool.append(policy)

    def _horizon(self) -> Optional[float]:
        horizon = None
        for index in range(self.shard_count):
            t = self._next[index]
            pending = self._pending[index]
            if pending:
                arrival = min(item[0] for item in pending)
                t = arrival if t is None or arrival < t else t
            if t is not None and (horizon is None or t < horizon):
                horizon = t
        return horizon

    def _step(self, bound: float, inclusive: bool) -> None:
        inboxes = self._pending
        self._pending = [[] for _ in range(self.shard_count)]
        for index, shard in enumerate(self._shards):
            shard.post(("step", bound, inclusive, inboxes[index]))
        for index, shard in enumerate(self._shards):
            _tag, _payload, outbox, next_time = shard.wait()
            self._next[index] = next_time
            if outbox:
                self._route(outbox)

    # ------------------------------------------------------------------
    # Driving the run
    # ------------------------------------------------------------------
    def propose(self, general: int, value: Any) -> bool:
        if general in self.config.byzantine:
            raise TypeError(f"node {general} is not a correct protocol node")
        results = self._control(("propose", general, value))
        return results[general % self.shard_count][0]

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        if max_events is not None:
            raise ShardError(
                "max_events budgets are serial-kernel only (a global event "
                "budget has no well-defined meaning across shards)"
            )
        self.run_until(self._now + duration)

    def run_until(self, until: float) -> None:
        self._invalidate()
        lookahead = min(policy.min_delay() for policy in self._policy_pool)
        single = self.shard_count == 1
        while True:
            horizon = self._horizon()
            if horizon is None or horizon > until:
                break
            if single:
                self._step(until, True)
                break
            if lookahead <= 0.0:
                raise ShardError(
                    "sharded execution requires a positive cross-shard "
                    "lookahead, but a delivery policy in this run has "
                    "min_delay() == 0.0; run with shards=1 instead"
                )
            grant = horizon + lookahead
            if grant <= until:
                self._step(grant, False)
            else:
                self._step(until, True)
                break
        self._broadcast(("finish_run", until))
        self._now = until

    def install_script(self, script: Any, start_real: Optional[float] = None) -> None:
        """Install a fault timeline (the :meth:`FaultScript.install` target)."""
        self._validate_script(script)
        self._control(("install_script", script, start_real))

    def _validate_script(self, script: Any) -> None:
        from repro.faults.timeline import Havoc, Restart, SwapPolicy, build_policy

        for action in script.actions:
            if isinstance(action, Havoc):
                raise ShardError(
                    "Havoc timelines are not supported in sharded runs (the "
                    "transient injector reaches across live nodes and the "
                    "fabric); run with shards=1"
                )
            if isinstance(action, Restart) and action.scramble:
                raise ShardError(
                    "Restart(scramble=True) is not supported in sharded runs "
                    "(one injector stream spans a node set); run with shards=1"
                )
            if isinstance(action, SwapPolicy):
                # Future policies constrain the lookahead for the whole run.
                self._register_policy(build_policy(action.policy, self))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def decisions(self, general: int, since_real: float = 0.0) -> list:
        per_node = self._decision_cache.get(general)
        if per_node is None:
            per_node = {}
            for shard_map in self._broadcast(("query", "decisions", general)):
                per_node.update(shard_map)
            self._decision_cache[general] = per_node
        out: list = []
        for node_id in self.correct_ids:
            decs = per_node.get(node_id)
            if decs:
                out.extend(d for d in decs if d.returned_real >= since_real)
        return out

    def latest_decision_per_node(
        self, general: int, since_real: float = 0.0
    ) -> dict:
        latest: dict = {}
        for dec in self.decisions(general, since_real):
            held = latest.get(dec.node)
            if held is None or dec.returned_real > held.returned_real:
                latest[dec.node] = dec
        return latest

    @property
    def tracer(self) -> Tracer:
        if self._trace_cache is None:
            merged = Tracer(enabled=self.config.trace)
            counts: dict[str, int] = {}
            entries: list[tuple] = []
            for shard_index, (shard_counts, keys, events) in enumerate(
                self._broadcast(("query", "trace"))
            ):
                for kind, count in shard_counts.items():
                    counts[kind] = counts.get(kind, 0) + count
                entries.extend(
                    (key, shard_index, pos, event)
                    for pos, (key, event) in enumerate(zip(keys, events))
                )
            entries.sort(key=lambda entry: entry[:3])
            merged._events = [entry[3] for entry in entries]
            merged._counts = counts
            self._trace_cache = merged
        return self._trace_cache

    # ------------------------------------------------------------------
    # Unsupported surface (clear errors beat silent wrong answers)
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> dict:
        raise ShardError(
            "live node objects stay inside shard workers; gather results via "
            "decisions()/latest_decision_per_node(), or run with shards=None"
        )

    def correct_nodes(self) -> list:
        raise ShardError(
            "live node objects stay inside shard workers; use correct_ids "
            "or run with shards=None"
        )

    def node(self, node_id: int) -> Any:
        raise ShardError(
            "live node objects stay inside shard workers; run with shards=None"
        )

    def protocol_node(self, node_id: int) -> Any:
        raise ShardError(
            "live node objects stay inside shard workers; run with shards=None"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the shard workers down (idempotent; also runs on GC)."""
        self._finalizer()

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "KeyedSimulator",
    "ShardError",
    "ShardNetwork",
    "ShardTracer",
    "ShardedCluster",
]
