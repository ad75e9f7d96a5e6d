"""Test doubles for driving primitives directly (no network, no peers)."""

from __future__ import annotations

from repro.core.params import ProtocolParams
from repro.runtime.api import TimerRegistry
from repro.sim.clock import ClockConfig, DriftClock
from repro.sim.engine import Simulator


class FakeHost:
    """Implements the primitives' ProtocolHost surface with manual control."""

    trace_enabled = True

    def __init__(
        self,
        params: ProtocolParams,
        node_id: int = 0,
        clock_config: ClockConfig = ClockConfig(),
    ) -> None:
        self.sim = Simulator()
        self.params = params
        self.node_id = node_id
        self.clock = DriftClock(self.sim, clock_config)
        self.sent: list[tuple[float, object]] = []
        self.traced: list[tuple[str, dict]] = []
        self._registry = TimerRegistry()

    # ProtocolHost surface ------------------------------------------------
    def now(self) -> float:
        return self.clock.local_now()

    local_now = now  # legacy spelling (tests read the clock through it too)

    def real_now(self) -> float:
        return self.sim.now

    def real_at_local(self, local_time: float) -> float:
        return self.clock.real_at_local(local_time)

    def broadcast(self, payload: object) -> None:
        self.sent.append((self.now(), payload))

    def send(self, receiver: int, payload: object) -> None:
        self.sent.append((self.now(), payload))

    def trace(self, kind: str, **detail: object) -> None:
        self.traced.append((kind, detail))

    def schedule_after(self, delay_local: float, action, tag: str = ""):
        """Local-time timers, so the push evaluators' deadline chains run."""
        handle = self.sim.schedule_at(
            self.sim.now + self.clock.real_delay_for_local(delay_local), action, tag
        )
        self._registry.track(handle)
        return handle

    after_local = schedule_after  # legacy spelling

    def live_timer_count(self) -> int:
        return self._registry.live_count()

    def cancel_all_timers(self) -> None:
        self._registry.cancel_all()

    # Test-control helpers --------------------------------------------------
    def advance(self, real_delta: float) -> None:
        """Move real time forward (runs any pending events)."""
        self.sim.run_until(self.sim.now + real_delta)

    def sent_of(self, cls: type) -> list[object]:
        return [payload for _t, payload in self.sent if isinstance(payload, cls)]

    def traced_kinds(self) -> list[str]:
        return [kind for kind, _ in self.traced]
