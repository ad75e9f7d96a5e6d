"""Fault timelines: timed, composable adversary actions over a running scenario.

A :class:`FaultScript` is *data*: an ordered tuple of actions, each firing at
a fixed offset (in units of the timing constant ``d``) after installation.
Installing a script on a cluster schedules one simulator event per action, so
a scripted run stays a pure function of (scenario config, script, master
seed): bit-identical rows and trace digests at any worker count, across
repeated runs, and across interpreter restarts.

Action vocabulary
-----------------
======================  =====================================================
:class:`Partition`      cut an island off via a :class:`~repro.net.delivery.
                        LinkPartitionPolicy` wrapped around the live policy
:class:`Heal`           heal every active link partition
:class:`Isolate`        hard-disconnect nodes at the fabric
                        (:meth:`~repro.net.network.Network.partition`)
:class:`Reconnect`      undo :class:`Isolate`
                        (:meth:`~repro.net.network.Network.heal`)
:class:`SwapPolicy`     swap the delivery policy mid-run (delay storms,
                        bursty periods, back to uniform)
:class:`Crash`          node churn: stop nodes, optionally with protocol
                        state loss
:class:`Restart`        resume churned nodes (re-arms background cleanup)
:class:`SwapStrategy`   hot-swap a Byzantine node's strategy
:class:`Coherent`       mark the coherence transition in the trace
:class:`Havoc`          transient-fault injection at a chosen instant
======================  =====================================================

Scripts are JSON-able via :meth:`FaultScript.from_spec` (a list of dicts) so
suite configs can carry inline timelines, and common shapes are registered by
name in :data:`TIMELINE_BUILDERS` for the scenario-matrix runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence, Union

from repro.faults.transient import (
    TransientFaultInjector,
    crash_in_process,
    restart_in_process,
)
from repro.net.delivery import (
    BurstyDelay,
    DeliveryPolicy,
    FixedDelay,
    LinkPartitionPolicy,
    UniformDelay,
    wall_clock_default,
)

if TYPE_CHECKING:  # only for annotations: avoids a faults <-> harness cycle
    from repro.core.params import ProtocolParams
    from repro.harness.scenario import Cluster


# ---------------------------------------------------------------------------
# Named delivery-policy builders (shared by timelines and the suite runner)
# ---------------------------------------------------------------------------
# Each recipe takes ``(params, now_fn)`` rather than a sim Cluster, so a
# policy *name* -- the only form that can travel over a control pipe --
# resolves identically on every backend.
def _policy_bursty(params: "ProtocolParams", now_fn) -> DeliveryPolicy:
    return BurstyDelay(
        now_fn=now_fn,
        period=2.0 * params.d,
        fast_max=0.2 * params.delta,
        slow_min=0.8 * params.delta,
        slow_max=params.delta,
    )


POLICY_BUILDERS: dict[str, Callable[..., DeliveryPolicy]] = {
    "uniform": lambda p, now_fn: UniformDelay(0.1 * p.delta, p.delta),
    "fast": lambda p, now_fn: UniformDelay(0.01 * p.delta, 0.1 * p.delta),
    # Every copy near the legal bound: the congested-but-correct worst case.
    "delay_storm": lambda p, now_fn: UniformDelay(0.9 * p.delta, p.delta),
    "fixed_max": lambda p, now_fn: FixedDelay(p.delta),
    "bursty": _policy_bursty,
    # The wall-clock backends' spawn-time default.
    "live_default": lambda p, now_fn: wall_clock_default(p.delta),
}

PolicySpec = Union[str, Callable[["Cluster"], DeliveryPolicy]]


def build_named_policy(
    name: str, params: "ProtocolParams", now_fn: Callable[[], float]
) -> DeliveryPolicy:
    """Resolve a policy name against (params, a clock) on any backend."""
    try:
        builder = POLICY_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(POLICY_BUILDERS))
        raise KeyError(f"unknown policy {name!r} (known: {known})") from None
    return builder(params, now_fn)


def build_policy(spec: PolicySpec, cluster: "Cluster") -> DeliveryPolicy:
    """Resolve a policy name (or module-level factory) against a cluster."""
    if callable(spec):
        return spec(cluster)
    return build_named_policy(spec, cluster.params, lambda: cluster.sim.now)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultAction:
    """Base: something that happens to the cluster at ``at_d`` (units of d).

    ``index`` is the action's position in its script -- actions that need
    per-action randomness fold it into their seed-split key so two equal
    actions at the same offset still get independent streams.
    """

    at_d: float

    def apply(self, cluster: "Cluster", index: int = 0) -> None:
        raise NotImplementedError

    @property
    def kind(self) -> str:
        return type(self).__name__.lower()


@dataclass(frozen=True)
class Partition(FaultAction):
    """Cut ``island`` off from the rest by wrapping the live policy."""

    island: tuple[int, ...] = ()

    def apply(self, cluster: "Cluster", index: int = 0) -> None:
        cluster.net.set_policy(
            LinkPartitionPolicy(cluster.net.policy, frozenset(self.island))
        )


@dataclass(frozen=True)
class Heal(FaultAction):
    """Heal every link partition, unwrapping the wrapper stack.

    Unwrapping (rather than leaving healed wrappers to delegate forever)
    keeps per-message ``decide()`` flat under flapping partition/heal
    cycles; delivery behaviour is identical either way.
    """

    def apply(self, cluster: "Cluster", index: int = 0) -> None:
        policy = cluster.net.policy
        unwrapped = False
        while isinstance(policy, LinkPartitionPolicy):
            policy = policy.inner
            unwrapped = True
        if unwrapped:
            cluster.net.set_policy(policy)


@dataclass(frozen=True)
class Isolate(FaultAction):
    """Hard-disconnect nodes at the network fabric (total blackout)."""

    nodes: tuple[int, ...] = ()

    def apply(self, cluster: "Cluster", index: int = 0) -> None:
        for node_id in self.nodes:
            cluster.net.partition(node_id)


@dataclass(frozen=True)
class Reconnect(FaultAction):
    """Reconnect fabric-isolated nodes."""

    nodes: tuple[int, ...] = ()

    def apply(self, cluster: "Cluster", index: int = 0) -> None:
        for node_id in self.nodes:
            cluster.net.heal(node_id)


@dataclass(frozen=True)
class SwapPolicy(FaultAction):
    """Swap the delivery policy (by registered name or factory).

    Note: a wholesale swap replaces any active partition wrapper too --
    order partition/heal and policy swaps deliberately.
    """

    policy: PolicySpec = "uniform"

    def apply(self, cluster: "Cluster", index: int = 0) -> None:
        cluster.set_policy(build_policy(self.policy, cluster))


@dataclass(frozen=True)
class Crash(FaultAction):
    """Stop nodes.  Pending timers are wiped (a real crash loses them);
    ``state_loss=True`` additionally erases all protocol state, modelling a
    restart-from-empty-disk rather than a stun."""

    nodes: tuple[int, ...] = ()
    state_loss: bool = False

    def apply(self, cluster: "Cluster", index: int = 0) -> None:
        for node_id in self.nodes:
            crash_in_process(cluster.nodes[node_id], self.state_loss)


@dataclass(frozen=True)
class Restart(FaultAction):
    """Resume crashed nodes.

    A restarted protocol node gets its background cleanup tick re-armed
    (the periodic chain died with the crash) but is otherwise *non-faulty,
    not yet correct* in the paper's sense: whatever state survived is stale
    until the decay rules scrub it.  Restarting a node that is not crashed
    is a no-op, so a stray or duplicated restart entry cannot double the
    cleanup tick rate.

    ``scramble=True`` additionally overwrites the revived node's protocol
    state with plausible garbage via
    :meth:`~repro.faults.transient.TransientFaultInjector.corrupt_node` --
    the paper's arbitrary-state recovery model, and the exact scramble the
    live drivers apply to a respawned process.
    """

    nodes: tuple[int, ...] = ()
    scramble: bool = False
    value_pool: tuple = ("A", "B", "C")
    generals: tuple[int, ...] = (0,)

    def apply(self, cluster: "Cluster", index: int = 0) -> None:
        injector = None
        if self.scramble:
            injector = TransientFaultInjector(
                cluster.params,
                cluster.rng.split(f"timeline/restart/{index}@{self.at_d!r}"),
                value_pool=list(self.value_pool),
                generals=list(self.generals),
            )
        for node_id in self.nodes:
            restart_in_process(cluster.nodes[node_id], injector)


@dataclass(frozen=True)
class SwapStrategy(FaultAction):
    """Hot-swap a Byzantine node's strategy mid-run."""

    node: int = 0
    strategy: object = None

    def __post_init__(self) -> None:
        if self.strategy is None or not hasattr(self.strategy, "install"):
            raise ValueError(
                f"swap_strategy for node {self.node} needs a Strategy instance, "
                f"got {self.strategy!r}"
            )

    def apply(self, cluster: "Cluster", index: int = 0) -> None:
        target = cluster.nodes[self.node]
        if not hasattr(target, "strategy"):
            raise TypeError(
                f"node {self.node} is not Byzantine; cannot swap strategy"
            )
        target.strategy = self.strategy
        self.strategy.install(target)  # type: ignore[union-attr]


@dataclass(frozen=True)
class Coherent(FaultAction):
    """Record the coherence transition (assumption bounds hold from here)."""

    def apply(self, cluster: "Cluster", index: int = 0) -> None:
        cluster.mark_coherent()


@dataclass(frozen=True)
class Havoc(FaultAction):
    """Transient-fault injection at a chosen instant.

    Randomness derives from the cluster's master seed, split on the
    action's script position and firing offset, so scripted havoc is
    replayable like everything else and two havoc actions never share a
    stream.
    """

    garbage: int = 200
    value_pool: tuple = ("A", "B", "C")
    generals: tuple[int, ...] = (0,)

    def apply(self, cluster: "Cluster", index: int = 0) -> None:
        injector = TransientFaultInjector(
            cluster.params,
            cluster.rng.split(f"timeline/havoc/{index}@{self.at_d!r}"),
            value_pool=list(self.value_pool),
            generals=list(self.generals),
        )
        injector.havoc(cluster.correct_nodes(), cluster.net, self.garbage)


# ---------------------------------------------------------------------------
# The script
# ---------------------------------------------------------------------------
_ACTION_KINDS: dict[str, type] = {
    "partition": Partition,
    "heal": Heal,
    "isolate": Isolate,
    "reconnect": Reconnect,
    "policy": SwapPolicy,
    "crash": Crash,
    "restart": Restart,
    "swap_strategy": SwapStrategy,
    "coherent": Coherent,
    "havoc": Havoc,
}

# JSON spec fields that arrive as lists but are stored as tuples.
_TUPLE_FIELDS = ("island", "nodes", "value_pool", "generals")


@dataclass(frozen=True)
class FaultScript:
    """An ordered, deterministic schedule of fault actions.

    ``install`` schedules every action relative to the current simulation
    time (or an explicit ``start_real``); equal-time actions fire in script
    order (the simulator breaks time ties by scheduling order).
    """

    actions: tuple[FaultAction, ...] = ()

    @classmethod
    def from_spec(cls, spec: Sequence[dict]) -> "FaultScript":
        """Build a script from JSON-able dicts: ``{"at_d": 1.0, "do": ...}``."""
        actions = []
        for entry in spec:
            entry = dict(entry)
            kind = entry.pop("do")
            try:
                action_cls = _ACTION_KINDS[kind]
            except KeyError:
                known = ", ".join(sorted(_ACTION_KINDS))
                raise KeyError(f"unknown action {kind!r} (known: {known})") from None
            for key in _TUPLE_FIELDS:
                if key in entry:
                    entry[key] = tuple(entry[key])
            actions.append(action_cls(**entry))
        return cls(tuple(actions))

    def install(self, cluster: "Cluster", start_real: "float | None" = None) -> None:
        """Schedule all actions on the cluster's simulator, ``at_d`` units
        of ``d`` after ``start_real`` (default: now)."""
        base = cluster.sim.now if start_real is None else start_real
        d = cluster.params.d
        ordered = sorted(enumerate(self.actions), key=lambda pair: pair[1].at_d)
        for index, action in ordered:
            cluster.sim.schedule_at(
                base + action.at_d * d,
                _Firing(cluster, action, index),
                tag=f"timeline:{action.kind}",
            )

    def churned_nodes(self) -> frozenset[int]:
        """Ids of nodes this script crashes at some point.

        A churned node stops being *correct* in the paper's sense for the
        rest of the run (it only regains correctness ``Delta_node`` after a
        restart), so property checkers should quantify over the others.
        """
        churned: set[int] = set()
        for action in self.actions:
            if isinstance(action, Crash):
                churned.update(action.nodes)
        return frozenset(churned)


class _Firing:
    """One scheduled action application (a named callable for picklability
    of the surrounding script and clearer simulator introspection)."""

    __slots__ = ("cluster", "action", "index")

    def __init__(self, cluster: "Cluster", action: FaultAction, index: int) -> None:
        self.cluster = cluster
        self.action = action
        self.index = index

    def __call__(self) -> None:
        cluster = self.cluster
        cluster.tracer.record(
            cluster.sim.now, None, "timeline", action=self.action.kind
        )
        self.action.apply(cluster, self.index)


# ---------------------------------------------------------------------------
# Named timelines (parameterized by the scenario's ProtocolParams)
# ---------------------------------------------------------------------------
def _half_island(params: "ProtocolParams") -> tuple[int, ...]:
    # A cut with no strong quorum (n - f) on either side: the General's half.
    return tuple(range(params.n // 2))


def _tl_none(params: "ProtocolParams") -> FaultScript:
    return FaultScript(())


def _tl_partition_heal(params: "ProtocolParams") -> FaultScript:
    # Mid-protocol partition that heals inside the decision window: quorum
    # collection stalls during the cut and completes after the heal via the
    # protocol's re-sends.  Agreement must survive; latency may grow.
    return FaultScript(
        (
            Partition(at_d=1.0, island=_half_island(params)),
            Heal(at_d=3.0),
        )
    )


def _tl_partition_late_heal(params: "ProtocolParams") -> FaultScript:
    # Heals only after the paper's 4d fast-path window: decisions (or clean
    # aborts) must still never split the correct nodes.
    return FaultScript(
        (
            Partition(at_d=1.0, island=_half_island(params)),
            Heal(at_d=6.0),
        )
    )


def _tl_delay_storm(params: "ProtocolParams") -> FaultScript:
    return FaultScript(
        (
            SwapPolicy(at_d=0.5, policy="delay_storm"),
            SwapPolicy(at_d=4.5, policy="uniform"),
        )
    )


def _tl_bursty(params: "ProtocolParams") -> FaultScript:
    return FaultScript((SwapPolicy(at_d=0.0, policy="bursty"),))


def _tl_churn(params: "ProtocolParams") -> FaultScript:
    # Crash the last node with full state loss mid-run, restart it later:
    # the restarted node is non-faulty-but-not-yet-correct and must not
    # break agreement among the others.
    victim = (params.n - 1,)
    return FaultScript(
        (
            Crash(at_d=1.0, nodes=victim, state_loss=True),
            Restart(at_d=5.0, nodes=victim),
        )
    )


def _tl_partition_storm(params: "ProtocolParams") -> FaultScript:
    # Compound adversary: a healing partition followed by a delay storm.
    return FaultScript(
        (
            Partition(at_d=1.0, island=_half_island(params)),
            Heal(at_d=3.0),
            SwapPolicy(at_d=3.0, policy="delay_storm"),
            SwapPolicy(at_d=7.0, policy="uniform"),
        )
    )


TIMELINE_BUILDERS: dict[str, Callable[["ProtocolParams"], FaultScript]] = {
    "none": _tl_none,
    "partition_heal": _tl_partition_heal,
    "partition_late_heal": _tl_partition_late_heal,
    "delay_storm": _tl_delay_storm,
    "bursty": _tl_bursty,
    "churn": _tl_churn,
    "partition_storm": _tl_partition_storm,
}

TimelineSpec = Union[str, FaultScript, Sequence[dict]]


def build_timeline(spec: TimelineSpec, params: "ProtocolParams") -> FaultScript:
    """Resolve a timeline name / inline dict spec / ready script."""
    if isinstance(spec, FaultScript):
        return spec
    if isinstance(spec, str):
        try:
            return TIMELINE_BUILDERS[spec](params)
        except KeyError:
            known = ", ".join(sorted(TIMELINE_BUILDERS))
            raise KeyError(f"unknown timeline {spec!r} (known: {known})") from None
    return FaultScript.from_spec(spec)


__all__ = [
    "Coherent",
    "Crash",
    "FaultAction",
    "FaultScript",
    "Havoc",
    "Heal",
    "Isolate",
    "POLICY_BUILDERS",
    "Partition",
    "Reconnect",
    "Restart",
    "SwapPolicy",
    "SwapStrategy",
    "TIMELINE_BUILDERS",
    "build_named_policy",
    "build_policy",
    "build_timeline",
]
