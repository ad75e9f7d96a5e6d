"""Scenario construction: from a declarative config to a running cluster.

A scenario fixes everything a run depends on -- n, f, timing model, delivery
policy, clock drift/offsets, the Byzantine cast, and the master seed -- so
that every run is exactly reproducible and sweeps vary one knob at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.core.agreement import Decision, ProtocolNode
from repro.core.messages import Value
from repro.core.params import ProtocolParams
from repro.faults.byzantine import ByzantineNode, Strategy
from repro.net.delivery import DeliveryPolicy, UniformDelay
from repro.net.network import Network
from repro.node.base import Node
from repro.runtime.sim_host import NodeContext
from repro.sim.clock import ClockConfig
from repro.sim.engine import Simulator
from repro.sim.rand import RandomSource
from repro.sim.trace import Tracer

StrategyOrFactory = Union[Strategy, Callable[[RandomSource], Strategy]]


@dataclass
class ScenarioConfig:
    """Everything that defines a run.

    Attributes
    ----------
    params:
        The timing-constant algebra (n, f, delta, pi, rho).
    seed:
        Master seed; all randomness in the run derives from it.
    policy:
        Delivery policy while the network is correct.  Defaults to uniform
        delays in ``[0.1 * delta, delta]``.
    byzantine:
        Map of node id to a strategy (or a factory taking a
        :class:`RandomSource`).  All other ids get correct protocol nodes.
    random_clock_offsets:
        Give each node an arbitrary initial clock reading (the model allows
        readings to be "arbitrarily apart"); disable for tests that want
        aligned clocks.
    drifted_rates:
        Draw per-node rates uniformly from ``[1 - rho, 1 + rho]``; disable
        for rate-1 clocks.
    trace:
        Record the full event trace (needed by the property checkers).
    allow_extra_byzantine:
        Permit more Byzantine nodes than ``f`` -- used only by the
        resilience-boundary experiment (E6), which deliberately violates
        ``n > 3f`` to show where the guarantees stop.
    cleanup_interval_d / resend_gap_d:
        Ablation knobs (in units of ``d``): period of the background cleanup
        tick and the identical-message re-send throttle.  Defaults match the
        paper's assumptions; the ablation benches sweep them.
    """

    params: ProtocolParams
    seed: int = 0
    policy: Optional[DeliveryPolicy] = None
    byzantine: dict[int, StrategyOrFactory] = field(default_factory=dict)
    random_clock_offsets: bool = True
    drifted_rates: bool = True
    trace: bool = True
    allow_extra_byzantine: bool = False
    cleanup_interval_d: float = 1.0
    resend_gap_d: float = 1.0


class Cluster:
    """A built scenario: simulator + network + nodes, ready to run.

    ``_sim`` substitutes the simulator, e.g. one started at a late instant.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        *,
        _sim: Optional[Simulator] = None,
    ) -> None:
        self.config = config
        self.params = config.params
        self.rng = RandomSource(config.seed)
        self.sim = _sim if _sim is not None else Simulator()
        self.tracer = Tracer(enabled=config.trace)
        policy = config.policy or UniformDelay(
            0.1 * self.params.delta, self.params.delta
        )
        self.net = Network(self.sim, policy, self.rng.split("net"), self.tracer)

        self.nodes: dict[int, Node] = {}
        self.correct_ids: list[int] = []
        self.byzantine_ids: list[int] = []
        self._build_nodes()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _clock_config(self, node_id: int) -> ClockConfig:
        clock_rng = self.rng.split(f"clock/{node_id}")
        rho = self.params.rho
        rate = (
            clock_rng.uniform(1.0 - rho, 1.0 + rho)
            if self.config.drifted_rates and rho > 0
            else 1.0
        )
        offset = (
            clock_rng.uniform(0.0, 1000.0 * self.params.d)
            if self.config.random_clock_offsets
            else 0.0
        )
        return ClockConfig(rate=rate, offset=offset)

    def _build_nodes(self) -> None:
        if (
            len(self.config.byzantine) > self.params.f
            and not self.config.allow_extra_byzantine
        ):
            raise ValueError(
                f"{len(self.config.byzantine)} Byzantine nodes exceeds f={self.params.f}"
            )
        for node_id in range(self.params.n):
            ctx = NodeContext(
                sim=self.sim,
                net=self.net,
                tracer=self.tracer,
                clock_config=self._clock_config(node_id),
                rand=self.rng.split(f"host/{node_id}"),
            )
            spec = self.config.byzantine.get(node_id)
            if spec is None:
                self.nodes[node_id] = self._correct_node(node_id, ctx)
                self.correct_ids.append(node_id)
            else:
                if hasattr(spec, "install"):
                    strategy = spec
                else:
                    strategy = spec(self.rng.split(f"byz/{node_id}"))  # type: ignore[operator]
                self.nodes[node_id] = ByzantineNode(
                    node_id, ctx, self.params, strategy  # type: ignore[arg-type]
                )
                self.byzantine_ids.append(node_id)

    def _correct_node(self, node_id: int, ctx: NodeContext) -> ProtocolNode:
        """The node a correct id runs; a subclass may build another kind."""
        return ProtocolNode(
            node_id,
            ctx,
            self.params,
            cleanup_interval_d=self.config.cleanup_interval_d,
            resend_gap_d=self.config.resend_gap_d,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def correct_nodes(self) -> list[ProtocolNode]:
        """All correct protocol nodes, in id order."""
        return [self.nodes[i] for i in self.correct_ids]  # type: ignore[list-item]

    def protocol_node(self, node_id: int) -> ProtocolNode:
        """A correct node by id (raises if the id is Byzantine)."""
        node = self.nodes[node_id]
        if not isinstance(node, ProtocolNode):
            raise TypeError(f"node {node_id} is not a correct protocol node")
        return node

    # ------------------------------------------------------------------
    # Driving the run
    # ------------------------------------------------------------------
    def propose(self, general: int, value: Value) -> bool:
        """Have a *correct* General initiate agreement on ``value``."""
        return self.protocol_node(general).propose(value)

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Advance the simulation by ``duration`` real-time units."""
        self.sim.run_until(self.sim.now + duration, max_events=max_events)

    def set_policy(self, policy: DeliveryPolicy) -> None:
        """Swap the network's delivery policy (coherence transitions)."""
        self.net.set_policy(policy)
        self.tracer.record(self.sim.now, None, "policy_change")

    def mark_coherent(self) -> None:
        """Record the moment the system (re)entered its assumption bounds."""
        self.tracer.record(self.sim.now, None, "coherent")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def decisions(self, general: int, since_real: float = 0.0) -> list[Decision]:
        """Outcomes recorded by correct nodes for one General, post-`since`."""
        out: list[Decision] = []
        for node in self.correct_nodes():
            out.extend(
                dec
                for dec in node.decisions_for(general)
                if dec.returned_real >= since_real
            )
        return out

    def latest_decision_per_node(
        self, general: int, since_real: float = 0.0
    ) -> dict[int, Decision]:
        """The most recent outcome per correct node for one General."""
        latest: dict[int, Decision] = {}
        for dec in self.decisions(general, since_real):
            held = latest.get(dec.node)
            if held is None or dec.returned_real > held.returned_real:
                latest[dec.node] = dec
        return latest


__all__ = [
    "Cluster",
    "ScenarioConfig",
    "StrategyOrFactory",
]
