"""Toueg-Perry-Srikanth (1987) agreement with time-driven lock-step rounds.

This is the protocol ss-Byz-Agree is modeled on ([14] in the paper), kept as
close as possible to our msgd-broadcast implementation so the *only*
difference the E5 experiment measures is the round structure:

* **Here**: nodes evaluate quorum conditions and emit the next wave of
  messages only at *phase boundaries* ``t0 + i * Phi`` of a globally
  synchronized round clock.  A message arriving early still waits for the
  boundary; latency is a multiple of ``Phi`` no matter how fast the network
  actually is.
* **msgd-broadcast**: the same conditions fire the moment the messages
  arrive; the phase bound is only an upper limit.

The baseline is granted everything its model assumes and the paper's model
denies: perfectly synchronized initialization (all nodes know ``t0``) and
drift-free clocks.  It is therefore an *upper* bound on what a time-driven
protocol can do -- and it still loses to the message-driven rounds whenever
actual delivery beats the worst case, which is the paper's point.

The broadcast primitive below is the original echo / init' / echo' relay
machinery with the same ``n - 2f`` / ``n - f`` thresholds; the agreement
layer is the same R/S/T/U skeleton (round-1 adoption by the General's
direct recipients plays the role of Initiator-Accept).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.core.params import BOTTOM, ProtocolParams
from repro.net.delivery import DeliveryPolicy, UniformDelay
from repro.net.network import Envelope, Network
from repro.node.base import Node
from repro.runtime.sim_host import NodeContext
from repro.node.msglog import MessageLog
from repro.sim.clock import ClockConfig
from repro.sim.engine import Simulator
from repro.sim.rand import RandomSource
from repro.sim.trace import Tracer

Value = Hashable


@dataclass(frozen=True)
class TpsInitiate:
    """Round-0 value dissemination by the General."""

    general: int
    value: Value


@dataclass(frozen=True)
class TpsMsg:
    """One broadcast-primitive message: kind in {init, echo, init', echo'}."""

    general: int
    kind: str
    origin: int
    value: Value
    k: int


@dataclass(frozen=True)
class TpsDecision:
    """Outcome of the baseline agreement at one node."""

    node: int
    general: int
    value: Value
    returned_real: float

    @property
    def decided(self) -> bool:
        return self.value is not BOTTOM


class Tps87Node(Node):
    """One lock-step participant.

    Phase ``i`` covers real time ``[t0 + i * Phi, t0 + (i + 1) * Phi)``; all
    protocol action happens at phase boundaries.
    """

    def __init__(
        self,
        node_id: int,
        ctx: NodeContext,
        params: ProtocolParams,
        general: int,
        t0: float,
    ) -> None:
        super().__init__(node_id, ctx)
        self.params = params
        self.general = general
        self.t0 = t0
        self.log = MessageLog()
        self.value: Optional[Value] = None  # adopted value
        self.accepted: dict[tuple[int, Value, int], int] = {}  # triplet -> phase
        self.broadcasters: set[int] = set()
        self._sent: set[tuple[str, int, Value, int]] = set()
        self.decision: Optional[TpsDecision] = None
        self._schedule_phases()

    # ------------------------------------------------------------------
    # Phase clock
    # ------------------------------------------------------------------
    def _schedule_phases(self) -> None:
        total_phases = 2 * self.params.f + 4
        for i in range(1, total_phases + 1):
            boundary = self.t0 + i * self.params.phi
            delay = max(0.0, boundary - self.sim.now)
            self.sim.schedule_in(
                delay, lambda i=i: self._at_phase_boundary(i), tag=f"tps:phase{i}"
            )

    # ------------------------------------------------------------------
    # Message intake: log only; processing waits for the boundary
    # ------------------------------------------------------------------
    def on_message(self, envelope: Envelope) -> None:
        msg = envelope.payload
        if isinstance(msg, TpsInitiate):
            if envelope.sender == msg.general == self.general and self.value is None:
                self.value = msg.value
        elif isinstance(msg, TpsMsg):
            if msg.kind == "init" and envelope.sender != msg.origin:
                return  # authenticated: only the origin may init
            self.log.add((msg.kind, msg.origin, msg.value, msg.k), envelope.sender, self.sim.now)

    # ------------------------------------------------------------------
    # Lock-step processing
    # ------------------------------------------------------------------
    def _send_once(self, kind: str, origin: int, value: Value, k: int) -> None:
        key = (kind, origin, value, k)
        if key in self._sent:
            return
        self._sent.add(key)
        self.broadcast(TpsMsg(self.general, kind, origin, value, k))

    def _at_phase_boundary(self, phase: int) -> None:
        p = self.params

        # Broadcast-primitive relays (kinds gated by the original's phase
        # windows: echo by 2k, init'/accept by 2k+1, echo' by 2k+2).  A node
        # that has decided keeps relaying: the nodes still undecided need
        # its echoes to accept anything.
        for k in range(1, p.f + 2):
            if phase >= 2 * k - 1:
                self._phase_relay(k, phase)

        # Agreement layer at odd boundaries 2r+1, until this node decides.
        if phase % 2 == 1 and self.decision is None:
            r = (phase - 1) // 2
            self._agreement_step(r, phase)

    def _phase_relay(self, k: int, phase: int) -> None:
        p = self.params
        # Echo every init we have (round-k window: by phase 2k).
        for key in list(self.log.keys):
            kind, origin, value, kk = key
            if kk != k:
                continue
            if kind == "init" and phase <= 2 * k and self.log.has_from(key, origin):
                self._send_once("echo", origin, value, k)
            if kind == "echo" and phase <= 2 * k + 1:
                count = self.log.count_distinct(key)
                if count >= p.weak_quorum:
                    self._send_once("init_prime", origin, value, k)
                if count >= p.strong_quorum:
                    self._accept(origin, value, k, phase)
            if kind == "init_prime" and phase <= 2 * k + 2:
                count = self.log.count_distinct(key)
                if count >= p.weak_quorum:
                    self.broadcasters.add(origin)
                if count >= p.strong_quorum:
                    self._send_once("echo_prime", origin, value, k)
            if kind == "echo_prime":
                count = self.log.count_distinct(key)
                if count >= p.weak_quorum:
                    self._send_once("echo_prime", origin, value, k)
                if count >= p.strong_quorum:
                    self._accept(origin, value, k, phase)

    def _accept(self, origin: int, value: Value, k: int, phase: int) -> None:
        triplet = (origin, value, k)
        if triplet not in self.accepted:
            self.accepted[triplet] = phase
            self.trace("tps_accept", origin=origin, value=value, k=k)

    def _agreement_step(self, r: int, phase: int) -> None:
        p = self.params
        # Round-0 adoption: the General's direct value, relayed at k=1.
        if r == 0:
            if self.value is not None:
                self._send_once("init", self.node_id, self.value, 1)
                self._decide(self.value)
            return
        # S-analogue: a chain of accepted (p_i, m, i), i = 1..r, distinct.
        for value, chain_ok in self._chains(r).items():
            if chain_ok:
                self._send_once("init", self.node_id, value, r + 1)
                self._decide(value)
                return
        # T/U-analogue: abort when the broadcaster count lags the round.
        if r >= 2 and len(self.broadcasters) < r - 1:
            self._decide(BOTTOM)
            return
        if r >= p.f + 1:
            self._decide(BOTTOM)

    def _chains(self, r: int) -> dict[Value, bool]:
        by_value: dict[Value, dict[int, set[int]]] = {}
        for (origin, value, k), _phase in self.accepted.items():
            if origin == self.general:
                continue
            by_value.setdefault(value, {}).setdefault(k, set()).add(origin)
        out: dict[Value, bool] = {}
        for value, per_level in by_value.items():
            used: set[int] = set()
            ok = True
            for i in range(1, r + 1):
                pick = next(
                    (o for o in per_level.get(i, set()) if o not in used), None
                )
                if pick is None:
                    ok = False
                    break
                used.add(pick)
            out[value] = ok
        return out

    def _decide(self, value: Value) -> None:
        if self.decision is None:
            self.decision = TpsDecision(
                node=self.node_id,
                general=self.general,
                value=value,
                returned_real=self.sim.now,
            )
            self.trace("tps_decide", value=value)


class Tps87Cluster:
    """A synchronized lock-step cluster running one TPS'87 agreement."""

    def __init__(
        self,
        params: ProtocolParams,
        seed: int = 0,
        general: int = 0,
        policy: Optional[DeliveryPolicy] = None,
    ) -> None:
        self.params = params
        self.general = general
        self.rng = RandomSource(seed, "tps87")
        self.sim = Simulator()
        self.tracer = Tracer()
        self.net = Network(
            self.sim,
            policy or UniformDelay(0.1 * params.delta, params.delta),
            self.rng.split("net"),
            self.tracer,
        )
        self.t0 = 0.0
        self.nodes: dict[int, Tps87Node] = {}
        for node_id in range(params.n):
            ctx = NodeContext(
                sim=self.sim, net=self.net, tracer=self.tracer, clock_config=ClockConfig()
            )
            self.nodes[node_id] = Tps87Node(node_id, ctx, params, general, self.t0)

    def initiate(self, value: Value) -> None:
        """The (correct) General disseminates its value at round 0."""
        self.nodes[self.general].broadcast(TpsInitiate(self.general, value))

    def run_to_completion(self) -> list[TpsDecision]:
        """Run through all phases; returns the per-node decisions."""
        horizon = self.t0 + (2 * self.params.f + 5) * self.params.phi
        self.sim.run_until(horizon)
        return [n.decision for n in self.nodes.values() if n.decision is not None]


__all__ = ["Tps87Cluster", "Tps87Node", "TpsDecision", "TpsInitiate", "TpsMsg"]
