"""Synchronized pulses atop ss-Byz-Agree.

The paper's Section 1: "we show in [6] that synchronized pulses can actually
be produced more efficiently atop the protocol in the current paper.  This
pulse synchronization procedure can in turn be used as the pulse
synchronization mechanism for making any Byzantine algorithm self-stabilize."
Reference [6] was an unpublished manuscript; this module reconstructs the
idea on top of our ss-Byz-Agree:

* Nodes take turns initiating a *pulse agreement* (value ``("pulse", k)``
  with a fresh counter ``k``); any node whose local pulse timer expires may
  initiate, with the timer staggered by node id so that, at steady state,
  the lowest-id correct node is the usual initiator and others act as
  fallbacks if it is faulty or its initiation fails.
* A node **fires its pulse** when the agreement decides.  ss-Byz-Agree's
  Timeliness-1(a) bounds the spread of decision times among correct nodes by
  ``3d`` -- which is therefore the pulse skew bound, inherited rather than
  re-proven.
* A refractory period ignores decisions that land too close to the previous
  pulse (residue of concurrent fallback initiations).

Self-stabilization is likewise inherited: the only extra state (the pulse
timer and the last-pulse stamp) is local-time-stamped and sanitized against
future/stale values each cleanup tick, so after the underlying protocol
stabilizes, the first decided pulse agreement resynchronizes everyone.

Guarantees once the system is stable (checked in tests and the ablation
bench):

* **Skew**: consecutive pulses fire within ``3d`` across correct nodes.
* **Period**: consecutive pulses at a node are separated by at least the
  refractory period and at most ``cycle + n * retry + Delta_agr``.
* **Convergence**: pulses resume within one cycle after ``Delta_stb``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.agreement import Decision, ProtocolNode
from repro.core.params import ProtocolParams
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.runtime.sim_host import NodeContext


@dataclass(frozen=True)
class PulseConfig:
    """Pulse-layer timing, in units the caller picks (local time).

    ``cycle`` must leave room for a whole agreement plus the General pacing:
    ``cycle >= Delta_0 + Delta_agr`` is enforced.
    """

    cycle: float
    retry_gap: float
    refractory: float

    @staticmethod
    def default_for(params: ProtocolParams) -> "PulseConfig":
        cycle = 2.0 * (params.delta_0 + params.delta_agr)
        return PulseConfig(
            cycle=cycle,
            retry_gap=params.delta_agr + params.delta_0,
            refractory=cycle / 2.0,
        )


class PulseNode(ProtocolNode):
    """A protocol node that additionally fires synchronized pulses."""

    def __init__(
        self,
        node_id: int,
        ctx: NodeContext,
        params: ProtocolParams,
        pulse_config: Optional[PulseConfig] = None,
    ) -> None:
        super().__init__(node_id, ctx, params, on_decision=self._on_any_decision)
        self.pulse_config = pulse_config or PulseConfig.default_for(params)
        if self.pulse_config.cycle < params.delta_0 + params.delta_agr:
            raise ValueError("pulse cycle too short for one agreement")
        self.pulses: list[float] = []  # real times (observer-side record)
        self._last_pulse_local: Optional[float] = None
        self._pulse_counter = 0
        self._arm_timer(first=True)
        self.every_local(params.d, self._sanitize_pulse_state)

    # ------------------------------------------------------------------
    # Initiation (leader by staggered timeout)
    # ------------------------------------------------------------------
    def _arm_timer(self, first: bool = False) -> None:
        stagger = self.node_id * self.pulse_config.retry_gap
        delay = self.pulse_config.cycle + stagger
        if first:
            # Start-up: do not wait a whole cycle to produce the first pulse.
            delay = self.params.delta_0 + stagger
        self._pulse_timer = self.after_local(delay, self._timer_expired, tag="pulse")

    def _timer_expired(self) -> None:
        now = self.local_now()
        if (
            self._last_pulse_local is not None
            and now - self._last_pulse_local < self.pulse_config.cycle
        ):
            # A pulse arrived while we waited; fall back to the normal cycle.
            self._arm_timer()
            return
        self._pulse_counter += 1
        value = ("pulse", self.node_id, self._pulse_counter)
        if self.may_propose(value):
            self.propose(value)
        self._arm_timer()

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def _on_any_decision(self, decision: Decision) -> None:
        if not decision.decided:
            return
        value = decision.value
        if not (isinstance(value, tuple) and value and value[0] == "pulse"):
            return
        now = self.local_now()
        if (
            self._last_pulse_local is not None
            and now - self._last_pulse_local < self.pulse_config.refractory
        ):
            return  # residue of a concurrent fallback initiation
        self._last_pulse_local = now
        self.pulses.append(self.sim.now)
        if self.trace_enabled:
            self.trace("pulse", counter=value[2], initiator=value[1])
        # Re-anchor the cycle at the pulse for everyone (this is what keeps
        # the timers of correct nodes aligned).
        self._pulse_timer.cancel()
        self._arm_timer()

    # ------------------------------------------------------------------
    # Self-stabilization hygiene
    # ------------------------------------------------------------------
    def _sanitize_pulse_state(self) -> None:
        now = self.local_now()
        if self._last_pulse_local is not None and self._last_pulse_local > now:
            self._last_pulse_local = None  # future stamp: clearly wrong


class _PulseCluster(Cluster):
    """A :class:`Cluster` whose correct nodes are :class:`PulseNode`."""

    def __init__(self, config: ScenarioConfig, pulse_config: PulseConfig) -> None:
        self.pulse_config = pulse_config
        super().__init__(config)

    def _correct_node(self, node_id: int, ctx: NodeContext) -> PulseNode:
        return PulseNode(node_id, ctx, self.params, self.pulse_config)


class PulseSyncCluster:
    """A cluster of :class:`PulseNode` (optionally with Byzantine members).

    Pulse trains are recorded on the nodes themselves (``pulses``), so
    skew/period measurements stay available with tracing disabled -- long
    soak runs ride the tracer's zero-cost path.
    """

    def __init__(
        self,
        params: ProtocolParams,
        seed: int = 0,
        pulse_config: Optional[PulseConfig] = None,
        byzantine: Optional[dict] = None,
        trace: bool = True,
    ) -> None:
        self.params = params
        self.pulse_config = pulse_config or PulseConfig.default_for(params)
        self.cluster = _PulseCluster(
            ScenarioConfig(
                params=params, seed=seed, byzantine=byzantine or {}, trace=trace
            ),
            self.pulse_config,
        )

    # ------------------------------------------------------------------
    # Driving and reading
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> None:
        self.cluster.run_for(duration)

    def pulse_trains(self) -> dict[int, list[float]]:
        """Real-time pulse instants per correct node."""
        return {
            node_id: list(self.cluster.nodes[node_id].pulses)  # type: ignore[union-attr]
            for node_id in self.cluster.correct_ids
        }

    def aligned_pulses(self) -> list[dict[int, float]]:
        """Group per-node pulses into cluster-wide pulse events.

        Greedy alignment: the k-th pulse of each node belongs to event k
        (valid while skews stay far below the cycle, which the tests assert).
        """
        trains = self.pulse_trains()
        if not trains:
            return []
        count = min(len(train) for train in trains.values())
        return [
            {node_id: trains[node_id][k] for node_id in trains}
            for k in range(count)
        ]

    def max_skew(self) -> Optional[float]:
        """Worst pulse-event skew across correct nodes."""
        events = self.aligned_pulses()
        if not events:
            return None
        return max(max(ev.values()) - min(ev.values()) for ev in events)


__all__ = ["PulseConfig", "PulseNode", "PulseSyncCluster"]
