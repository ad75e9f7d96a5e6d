"""The live fault driver: :class:`~repro.faults.timeline.FaultScript` on real time.

The sim installer (:meth:`FaultScript.install`) schedules one simulator
event per action.  This module interprets the **same** timeline data on
the wall-clock backends, so one JSON-able spec drives all three.

:class:`LiveFaultDriver` is written once, against the lifecycle surface
both :class:`~repro.runtime.aio.AsyncioCluster` and
:class:`~repro.runtime.socket_host.SocketCluster` provide:

* ``kill_node(id, state_loss)`` -- asyncio stuns the in-process node with
  the sim ``Crash``'s own helper; socket SIGKILLs the child (the heap is
  *really* gone) or SIGSTOPs it (a stun);
* ``revive_node(id, restart, index)`` -- revives it, scrambled from the
  ``Restart`` action's pool and Generals when it asks for that (socket:
  SIGCONT, or a respawn through the supervisor);
* ``link_fault(kind, args)`` -- one :func:`apply_transport_fault`
  directive, on the shared transport or broadcast to every child;
* ``now()`` -- protocol time, so ``at_d`` offsets mean what they mean in
  sim.

Support matrix: ``SwapStrategy`` and ``Havoc`` are sim-only (they need
in-process node surgery / the sim network's spurious-injection hook) and
are rejected up front by :func:`validate_live_script`; a live ``SwapPolicy``
must name a registered policy
(:data:`~repro.faults.timeline.POLICY_BUILDERS`) so it can travel over a
control pipe.

:func:`run_chaos_agreement` is the paper's self-stabilization claim as a
live demo: SIGKILL ``f`` nodes mid-agreement with full state loss, let the
supervisor heal them with scrambled state, and verify every node -- the
revenants included -- converges to the agreed value within a recovery
bound.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.params import ProtocolParams
from repro.faults.timeline import (
    POLICY_BUILDERS,
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
    build_named_policy,
)

if TYPE_CHECKING:  # annotations only: no runtime import cycle
    from repro.core.messages import Value
    from repro.runtime.socket_host import SocketRunReport


# ---------------------------------------------------------------------------
# Validation: which actions a live backend can honour
# ---------------------------------------------------------------------------
_LIVE_UNSUPPORTED = (SwapStrategy, Havoc)


def validate_live_script(script: FaultScript) -> None:
    """Reject actions the live driver cannot honour, *before* they fire."""
    for action in script.actions:
        if isinstance(action, _LIVE_UNSUPPORTED):
            raise ValueError(
                f"{action.kind!r} is not supported by the live fault driver "
                f"(sim only: it needs in-process node surgery or the sim "
                f"network's spurious-injection hook)"
            )
        if isinstance(action, SwapPolicy) and not isinstance(action.policy, str):
            raise ValueError(
                "a live SwapPolicy must name a registered policy (one of: "
                + ", ".join(sorted(POLICY_BUILDERS))
                + "); factories cannot travel over a control pipe"
            )
        if isinstance(action, SwapPolicy) and action.policy not in POLICY_BUILDERS:
            known = ", ".join(sorted(POLICY_BUILDERS))
            raise ValueError(
                f"unknown live policy {action.policy!r} (known: {known})"
            )


# ---------------------------------------------------------------------------
# Shared link-fault dispatch (asyncio transport and socket children)
# ---------------------------------------------------------------------------
def link_fault_directive(action: FaultAction) -> Optional[tuple[str, dict]]:
    """The ``(kind, args)`` directive of a link-level action, else ``None``.

    The args are plain JSON-able values, so the same directive is applied
    to the asyncio transport in-process and shipped down the socket
    backend's control pipes.
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

    Used both by ``AsyncioCluster.link_fault`` and by every socket child
    when a ``("fault", kind, args)`` control message arrives, so the two
    wall-clock backends interpret a directive identically.
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
            build_named_policy(args["policy"], params, transport.now)
        )
    else:
        raise ValueError(f"unknown transport fault {kind!r}")


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------
def parse_fault_payload(spec: object) -> FaultScript:
    """Parse a ``POST /faults`` body: a list of action dicts, bare or as
    ``{"actions": [...]}``; malformed input raises (an HTTP 400)."""
    if isinstance(spec, dict):
        spec = spec.get("actions")
    if not isinstance(spec, list) or not spec:
        raise ValueError(
            'expected a non-empty JSON list of fault actions (or {"actions":'
            " [...]}); see repro.faults.timeline.FaultScript.from_spec"
        )
    return FaultScript.from_spec(spec)


class LiveFaultDriver:
    """Interpret :class:`FaultScript` timelines against a live cluster.

    One dispatch and one time-ordered queue; actions due at the same time
    fire in script order.  Given a ``loop`` (asyncio), one ``call_later``
    timer stays armed at the head deadline; without one (the socket
    parent), the owner calls :meth:`pump` every loop iteration.
    :meth:`inject` is the only thread-safe entry: it validates a JSON spec
    on the caller's thread and leaves the script in an inbox, which the
    next :meth:`pump` loads -- so its ``at_d`` counts from injection.
    """

    def __init__(self, cluster, loop=None, tracer=None) -> None:
        self.cluster = cluster
        self._loop = loop
        self._tracer = tracer
        self._queue: list[tuple[float, int, int, FaultAction]] = []
        self._seq = itertools.count()
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._timer = None
        #: Fault actions accepted through :meth:`inject` (any thread).
        self.injected = 0
        self._injected_lock = threading.Lock()
        self.fired: list[str] = []

    def load(self, script: FaultScript, base: Optional[float] = None) -> None:
        """Queue every action at ``base + at_d * d`` (``base``: now)."""
        validate_live_script(script)
        if base is None:
            base = self.cluster.now()
        d = self.cluster.params.d
        for index, action in enumerate(script.actions):
            heapq.heappush(
                self._queue,
                (base + action.at_d * d, next(self._seq), index, action),
            )
        self._arm()

    def inject(self, spec: object) -> dict:
        """Validate a JSON spec and hand it to the owning thread."""
        script = parse_fault_payload(spec)
        validate_live_script(script)
        n = self.cluster.params.n
        named = [i for a in script.actions for i in getattr(a, "nodes", ())]
        if not all(0 <= node_id < n for node_id in named):
            raise ValueError(f"fault actions may name nodes 0..{n - 1} only")
        self._inbox.put(script)
        with self._injected_lock:
            self.injected += len(script.actions)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.pump)
        return {"accepted": len(script.actions), "backend": self.cluster.backend}

    def pump(self) -> None:
        """Load injected scripts, then fire every action that is due."""
        while not self._inbox.empty():
            self.load(self._inbox.get_nowait())
        now = self.cluster.now()
        while self._queue and self._queue[0][0] <= now:
            _at, _seq, index, action = heapq.heappop(self._queue)
            self._fire(action, index)
        self._arm()

    def cancel(self) -> None:
        """Drop every unfired action (teardown)."""
        self._queue.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self) -> None:
        if self._loop is None:
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._queue:
            delay = self._queue[0][0] - self.cluster.now()
            self._timer = self._loop.call_later(
                max(0.0, delay) * self.cluster.time_scale, self.pump
            )

    def _fire(self, action: FaultAction, index: int) -> None:
        cluster = self.cluster
        tracer = self._tracer
        if tracer is not None:
            if tracer.enabled:
                tracer.record(cluster.now(), None, "timeline", action=action.kind)
            else:
                tracer.bump("timeline")
        directive = link_fault_directive(action)
        if directive is not None:
            cluster.link_fault(*directive)
        elif isinstance(action, Crash):
            for node_id in action.nodes:
                cluster.kill_node(node_id, action.state_loss)
        elif isinstance(action, Restart):
            for node_id in action.nodes:
                cluster.revive_node(node_id, action, index)
        # Coherent is a marker only.
        self.fired.append(action.kind)


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
    "ChaosReport",
    "LiveFaultDriver",
    "apply_transport_fault",
    "link_fault_directive",
    "parse_fault_payload",
    "run_chaos_agreement",
    "validate_live_script",
]
