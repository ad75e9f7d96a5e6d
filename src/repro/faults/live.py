"""Live fault drivers: :class:`~repro.faults.timeline.FaultScript` on real time.

The sim installer (:meth:`FaultScript.install`) schedules one simulator
event per action.  This module interprets the **same** timeline data against
the wall-clock backends, so one JSON-able spec drives all three:

* :class:`AsyncioFaultDriver` -- in-process: actions fire as
  ``loop.call_later`` wake-ups against an :class:`~repro.runtime.aio.
  AsyncioCluster`.  Link faults go to the shared transport's sender-side
  drop matrix; ``Crash``/``Restart`` stun and revive the in-process nodes
  with the sim path's exact semantics (shared wipe/scramble helpers).
* :class:`WallClockFaultDriver` -- parent-side, for a
  :class:`~repro.runtime.socket_host.SocketCluster` of OS processes:
  ``Crash(state_loss=True)`` SIGKILLs the child (the heap is *really*
  gone), ``Crash(state_loss=False)`` SIGSTOPs it (a stun), ``Restart``
  SIGCONTs or respawns via the cluster's supervisor, and link faults are
  broadcast as control-pipe directives every child applies to its own
  sender.  Fire times are computed on the shared epoch, so ``at_d``
  offsets mean exactly what they mean in sim.

Support matrix: ``SwapStrategy`` and ``Havoc`` are sim-only (they need
in-process node surgery / the sim network's spurious-injection hook) and
are rejected up front by :func:`validate_live_script`; a live ``SwapPolicy``
must name a registered policy (:data:`LIVE_POLICY_BUILDERS`) so it can
travel over a control pipe.

:func:`run_chaos_agreement` is the paper's self-stabilization claim as a
live demo: SIGKILL ``f`` nodes mid-agreement with full state loss, let the
supervisor heal them with scrambled state, and verify every node -- the
revenants included -- converges to the agreed value within a recovery
bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.params import ProtocolParams
from repro.faults.timeline import (
    Coherent,
    Crash,
    FaultAction,
    FaultScript,
    Havoc,
    Heal,
    Isolate,
    Partition,
    Reconnect,
    Restart,
    SwapPolicy,
    SwapStrategy,
)
from repro.faults.transient import TransientFaultInjector, wipe_protocol_state
from repro.net.delivery import BurstyDelay, DeliveryPolicy, FixedDelay, UniformDelay

if TYPE_CHECKING:  # annotations only: no runtime import cycle
    from repro.core.messages import Value
    from repro.runtime.aio import AsyncioCluster
    from repro.runtime.socket_host import SocketCluster, SocketRunReport


# ---------------------------------------------------------------------------
# Live delivery-policy builders
# ---------------------------------------------------------------------------
# Same numeric recipes as the sim's POLICY_BUILDERS, but parameterized by
# (params, now_fn) instead of a sim Cluster so a policy *name* -- the only
# form that can travel over a control pipe -- resolves identically on every
# backend.
def _live_uniform(params: ProtocolParams, now_fn) -> DeliveryPolicy:
    return UniformDelay(0.1 * params.delta, params.delta)


def _live_fast(params: ProtocolParams, now_fn) -> DeliveryPolicy:
    return UniformDelay(0.01 * params.delta, 0.1 * params.delta)


def _live_default(params: ProtocolParams, now_fn) -> DeliveryPolicy:
    # The wall-clock backends' spawn-time default: headroom under delta for
    # loop/kernel jitter.
    return UniformDelay(0.05 * params.delta, 0.5 * params.delta)


def _live_delay_storm(params: ProtocolParams, now_fn) -> DeliveryPolicy:
    return UniformDelay(0.9 * params.delta, params.delta)


def _live_fixed_max(params: ProtocolParams, now_fn) -> DeliveryPolicy:
    return FixedDelay(params.delta)


def _live_bursty(params: ProtocolParams, now_fn) -> DeliveryPolicy:
    return BurstyDelay(
        now_fn=now_fn,
        period=2.0 * params.d,
        fast_max=0.2 * params.delta,
        slow_min=0.8 * params.delta,
        slow_max=params.delta,
    )


LIVE_POLICY_BUILDERS: dict[
    str, Callable[[ProtocolParams, Callable[[], float]], DeliveryPolicy]
] = {
    "uniform": _live_uniform,
    "fast": _live_fast,
    "live_default": _live_default,
    "delay_storm": _live_delay_storm,
    "fixed_max": _live_fixed_max,
    "bursty": _live_bursty,
}


def build_live_policy(
    name: str, params: ProtocolParams, now_fn: Callable[[], float]
) -> DeliveryPolicy:
    """Resolve a policy name against (params, a live clock)."""
    try:
        return LIVE_POLICY_BUILDERS[name](params, now_fn)
    except KeyError:
        known = ", ".join(sorted(LIVE_POLICY_BUILDERS))
        raise KeyError(f"unknown live policy {name!r} (known: {known})") from None


# ---------------------------------------------------------------------------
# Validation: which actions a live backend can honour
# ---------------------------------------------------------------------------
_LIVE_UNSUPPORTED = (SwapStrategy, Havoc)


def validate_live_script(script: FaultScript, backend: str = "socket") -> None:
    """Reject actions a live driver cannot honour, *before* the run starts."""
    for action in script.actions:
        if isinstance(action, _LIVE_UNSUPPORTED):
            raise ValueError(
                f"{action.kind!r} is not supported by the {backend} fault "
                f"driver (sim only: it needs in-process node surgery or the "
                f"sim network's spurious-injection hook)"
            )
        if isinstance(action, SwapPolicy) and not isinstance(action.policy, str):
            raise ValueError(
                "a live SwapPolicy must name a registered policy (one of: "
                + ", ".join(sorted(LIVE_POLICY_BUILDERS))
                + "); factories cannot travel over a control pipe"
            )
        if isinstance(action, SwapPolicy) and action.policy not in LIVE_POLICY_BUILDERS:
            known = ", ".join(sorted(LIVE_POLICY_BUILDERS))
            raise ValueError(
                f"unknown live policy {action.policy!r} (known: {known})"
            )


# ---------------------------------------------------------------------------
# Shared link-fault dispatch (asyncio transport and socket children)
# ---------------------------------------------------------------------------
def link_fault_directive(action: FaultAction) -> Optional[tuple[str, dict]]:
    """The ``(kind, args)`` directive of a link-level action, else ``None``.

    The args are plain JSON-able values, so the same directive is applied
    in-process by :class:`AsyncioFaultDriver` and shipped down the control
    pipes by :class:`WallClockFaultDriver`.
    """
    if isinstance(action, Partition):
        return "partition", {"island": list(action.island)}
    if isinstance(action, Heal):
        return "heal", {}
    if isinstance(action, Isolate):
        return "isolate", {"nodes": list(action.nodes)}
    if isinstance(action, Reconnect):
        return "reconnect", {"nodes": list(action.nodes)}
    if isinstance(action, SwapPolicy):
        return "policy", {"policy": action.policy}
    return None


def apply_transport_fault(
    transport, params: ProtocolParams, kind: str, args: dict
) -> None:
    """Apply one link-level fault directive to a live transport.

    Used both by :class:`AsyncioFaultDriver` (directly) and by every socket
    child when a ``("fault", kind, args)`` control message arrives, so the
    two wall-clock backends interpret a directive identically.
    """
    if kind == "partition":
        transport.set_partition(frozenset(args["island"]))
    elif kind == "heal":
        transport.heal_partitions()
    elif kind == "isolate":
        transport.isolate(args["nodes"])
    elif kind == "reconnect":
        transport.reconnect(args["nodes"])
    elif kind == "policy":
        transport.set_policy(
            build_live_policy(args["policy"], params, transport.now)
        )
    else:
        raise ValueError(f"unknown transport fault {kind!r}")


# ---------------------------------------------------------------------------
# In-process crash/restart (sim-parity semantics, shared helpers)
# ---------------------------------------------------------------------------
def crash_in_process(node, state_loss: bool) -> None:
    """Stun an in-process node: the live analogue of the sim ``Crash``."""
    node.crash()
    node.cancel_timers()
    if state_loss:
        wipe_protocol_state(node)


def restart_in_process(
    node, injector: Optional[TransientFaultInjector] = None
) -> None:
    """Revive an in-process node (no-op unless crashed), sim semantics.

    With an injector, the revived node's state is scrambled -- the paper's
    arbitrary-state recovery model.  The background cleanup tick is
    re-armed (its periodic chain died with the crash).
    """
    if not node.crashed:
        return
    node.resume()
    if injector is not None and hasattr(node, "instances"):
        injector.corrupt_node(node)
    if hasattr(node, "cleanup_interval_d"):
        node.every_local(
            node.cleanup_interval_d * node.params.d,
            node._cleanup_tick,
            tag=f"cleanup:{node.node_id}",
        )


# ---------------------------------------------------------------------------
# Asyncio driver
# ---------------------------------------------------------------------------
class AsyncioFaultDriver:
    """Interpret a :class:`FaultScript` against an :class:`AsyncioCluster`.

    Construct inside the running loop and call :meth:`install` once; every
    action becomes a ``loop.call_later`` wake-up at ``at_d * d`` protocol
    units after install (scaled by the transport's ``time_scale``).  Call
    :meth:`cancel` at teardown so unfired actions don't outlive the run.
    """

    def __init__(self, script: FaultScript, cluster: "AsyncioCluster") -> None:
        validate_live_script(script, backend="asyncio")
        self.script = script
        self.cluster = cluster
        self._handles: list = []
        self.fired: list[str] = []

    def install(self) -> None:
        transport = self.cluster.transport
        d = self.cluster.params.d
        ordered = sorted(
            enumerate(self.script.actions), key=lambda pair: pair[1].at_d
        )
        for index, action in ordered:
            self._handles.append(
                transport.loop.call_later(
                    action.at_d * d * transport.time_scale,
                    self._fire,
                    action,
                    index,
                )
            )

    def cancel(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()

    # ------------------------------------------------------------------
    def _fire(self, action: FaultAction, index: int) -> None:
        cluster = self.cluster
        transport = cluster.transport
        tracer = cluster.tracer
        if tracer.enabled:
            tracer.record(transport.now(), None, "timeline", action=action.kind)
        else:
            tracer.bump("timeline")
        directive = link_fault_directive(action)
        if directive is not None:
            apply_transport_fault(transport, cluster.params, *directive)
        elif isinstance(action, Crash):
            for node_id in action.nodes:
                crash_in_process(cluster.nodes[node_id], action.state_loss)
        elif isinstance(action, Restart):
            injector = None
            if action.scramble:
                injector = TransientFaultInjector(
                    cluster.params,
                    cluster.rng.split(f"live/restart/{index}@{action.at_d!r}"),
                    value_pool=list(action.value_pool),
                    generals=list(action.generals),
                )
            for node_id in action.nodes:
                restart_in_process(cluster.nodes[node_id], injector)
        elif isinstance(action, Coherent):
            pass  # trace marker only, recorded above
        self.fired.append(action.kind)


# ---------------------------------------------------------------------------
# Socket (parent-side) driver
# ---------------------------------------------------------------------------
class WallClockFaultDriver:
    """Interpret a :class:`FaultScript` against a :class:`SocketCluster`.

    The parent's agreement loop calls :meth:`pump` every iteration (~50 ms),
    which fires every action whose shared-epoch deadline has passed --
    ``at_d`` is measured from the cluster epoch, the same zero the children
    measure protocol time from, so offsets mean what they mean in sim (to
    one polling quantum).

    Process faults act on the cluster's supervisor surface
    (:meth:`SocketCluster.kill_node` / :meth:`SocketCluster.revive_node`);
    link faults are broadcast as ``("fault", kind, args)`` control messages
    that every *currently live* child applies to its own sender.  A child
    respawned later starts with a clean drop matrix -- scripts that mix
    churn with partitions should order their actions accordingly.
    """

    def __init__(self, script: FaultScript, cluster: "SocketCluster") -> None:
        validate_live_script(script, backend="socket")
        self.script = script
        self.cluster = cluster
        self._queue: list[tuple[float, int, FaultAction]] = []
        self._started = False
        self.fired: list[str] = []

    def start(self, epoch_wall: float) -> None:
        """Arm the timeline once the cluster epoch is known."""
        params = self.cluster.params
        scale = self.cluster.time_scale
        epoch_mono = time.monotonic() - (time.time() - epoch_wall)
        ordered = sorted(
            enumerate(self.script.actions), key=lambda pair: pair[1].at_d
        )
        self._queue = [
            (epoch_mono + action.at_d * params.d * scale, index, action)
            for index, action in ordered
        ]
        self._started = True

    @property
    def done(self) -> bool:
        return self._started and not self._queue

    def pump(self) -> None:
        """Fire every action whose deadline has passed."""
        if not self._started:
            return
        now = time.monotonic()
        while self._queue and self._queue[0][0] <= now:
            _when, index, action = self._queue.pop(0)
            self._apply(action, index)
            self.fired.append(action.kind)

    # ------------------------------------------------------------------
    def _apply(self, action: FaultAction, index: int) -> None:
        cluster = self.cluster
        directive = link_fault_directive(action)
        if directive is not None:
            cluster.broadcast_fault(*directive)
        elif isinstance(action, Crash):
            for node_id in action.nodes:
                cluster.kill_node(node_id, state_loss=action.state_loss)
        elif isinstance(action, Restart):
            for node_id in action.nodes:
                cluster.revive_node(node_id, scramble=action.scramble)
        elif isinstance(action, Coherent):
            pass  # marker only


# ---------------------------------------------------------------------------
# The chaos runner: the paper's claim as a live demo
# ---------------------------------------------------------------------------
@dataclass
class ChaosReport:
    """Outcome of one chaos run: kill f nodes live, verify re-convergence."""

    report: "SocketRunReport"
    value: object
    general: int
    victims: list[int]
    kill_at_d: float
    recovery_bound_d: float
    #: every correct node decided, and on a single common value
    agreed: bool = False
    #: that common value is the proposed one
    converged: bool = False
    #: every victim was respawned and decided *after* its kill
    victims_recovered: bool = False
    #: worst victim decision latency since its kill, in units of d
    recovery_latency_d: Optional[float] = None
    per_victim_latency_d: dict[int, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The live self-stabilization verdict, teardown hygiene included."""
        return (
            self.agreed
            and self.converged
            and self.victims_recovered
            and (self.recovery_latency_d is None
                 or self.recovery_latency_d <= self.recovery_bound_d)
            and self.report.clean_exit
        )


def run_chaos_agreement(
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    value: "Value" = "v",
    general: int = 0,
    time_scale: float = 0.02,
    kill_at_d: float = 1.0,
    victims: Optional[list[int]] = None,
    recovery_bound_d: Optional[float] = None,
    timeout_units: Optional[float] = None,
    restart_backoff_s: float = 0.1,
    trace: bool = False,
    delta: float = 1.0,
    rho: float = 0.0,
) -> ChaosReport:
    """SIGKILL ``f`` nodes mid-agreement and verify live re-convergence.

    The General proposes at the epoch and re-proposes the same value every
    couple of ``d`` (``propose`` is pacing-guarded, so extra attempts are
    silently refused until the Sending Validity Criteria allow a same-value
    re-initiation after ``Delta_v``).  Victims are SIGKILLed with full state
    loss; the cluster supervisor respawns them with *scrambled* protocol
    state (the arbitrary-state model) and re-brokers their UDP addresses to
    the survivors.  The run converges when every correct node's **current
    incarnation** has decided -- i.e. each revenant re-decides via a later
    initiation wave -- and the verdict additionally checks every latest
    decision equals the proposed value within ``recovery_bound_d``.
    """
    from repro.runtime.socket_host import SocketCluster

    params = ProtocolParams(n=n, f=f, delta=delta, rho=rho)
    if victims is None:
        victims = [i for i in reversed(range(n)) if i != general][:f]
    victims = list(victims)
    if general in victims:
        raise ValueError("the General cannot be a chaos victim (it drives "
                         "the re-initiation wave the revenants converge on)")
    if recovery_bound_d is None:
        # A same-value re-initiation is legal Delta_v after the first wave,
        # and the new wave completes within Delta_agr; the rest is margin
        # for backoff, respawn, and scheduling.
        recovery_bound_d = (params.delta_v + 2.0 * params.delta_agr) / params.d
    if timeout_units is None:
        timeout_units = (
            kill_at_d * params.d + params.delta_v + 3.0 * params.delta_agr
        )
    script = FaultScript(
        tuple(
            Crash(at_d=kill_at_d + i * 1.0, nodes=(victim,), state_loss=True)
            for i, victim in enumerate(victims)
        )
    )
    cluster = SocketCluster(
        params,
        seed=seed,
        time_scale=time_scale,
        value=value,
        general=general,
        timeout_units=timeout_units,
        trace=trace,
        supervise=True,
        scramble_on_restart=True,
        restart_backoff_s=restart_backoff_s,
        fault_script=script,
        repropose_every_d=2.0,
        value_pool=(value, "B", "C"),
    )
    try:
        report = cluster.run_agreement()
    finally:
        cluster.close()

    chaos = ChaosReport(
        report=report,
        value=value,
        general=general,
        victims=victims,
        kill_at_d=kill_at_d,
        recovery_bound_d=recovery_bound_d,
    )
    decisions = report.decisions
    decided = [
        node_id
        for node_id in report.correct_ids
        if node_id in decisions and decisions[node_id].decided
    ]
    values = {decisions[node_id].value for node_id in decided}
    chaos.agreed = set(decided) == set(report.correct_ids) and len(values) == 1
    chaos.converged = chaos.agreed and values == {value}

    recovered = True
    worst: Optional[float] = None
    for i, victim in enumerate(victims):
        kill_units = (kill_at_d + i * 1.0) * params.d
        decision = decisions.get(victim)
        if (
            decision is None
            or not decision.decided
            or decision.value != value
            or decision.returned_real <= kill_units
            or report.restart_counts.get(victim, 0) < 1
        ):
            recovered = False
            continue
        latency_d = (decision.returned_real - kill_units) / params.d
        chaos.per_victim_latency_d[victim] = latency_d
        worst = latency_d if worst is None else max(worst, latency_d)
    chaos.victims_recovered = recovered
    chaos.recovery_latency_d = worst
    return chaos


__all__ = [
    "AsyncioFaultDriver",
    "ChaosReport",
    "LIVE_POLICY_BUILDERS",
    "WallClockFaultDriver",
    "apply_transport_fault",
    "build_live_policy",
    "crash_in_process",
    "link_fault_directive",
    "restart_in_process",
    "run_chaos_agreement",
    "validate_live_script",
]
