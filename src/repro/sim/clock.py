"""Bounded-drift local clocks (paper Definition 1, Bounded Drift).

Each non-faulty node owns a hardware timer whose rate relative to real time is
within ``[1 - rho, 1 + rho]`` and whose absolute reading is arbitrary: the
paper's protocol only ever measures *intervals* of local time, never absolute
local time, so clocks here expose an affine map

    local(t) = offset + rate * (t - epoch)

with an arbitrary ``offset``.  The inverse map is exact because the clock is
affine, which is what lets the simulator schedule "wake me at local time tau"
requests precisely.

The paper notes local time may wrap but assumes the wrap period is a large
constant factor of the longest measured interval; the clocks here never
wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class ClockConfig:
    """Configuration for a :class:`DriftClock`.

    Attributes
    ----------
    rate:
        Drift rate; must lie in ``[1 - rho, 1 + rho]`` for a correct node.
    offset:
        Arbitrary initial local reading at clock creation time.
    """

    rate: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"clock rate must be positive, got {self.rate!r}")


class DriftClock:
    """An affine local clock bound to a simulator's real-time axis."""

    def __init__(self, sim: Simulator, config: ClockConfig = ClockConfig()) -> None:
        self._sim = sim
        self._rate = config.rate
        self._offset = config.offset
        self._epoch = sim.now

    # ------------------------------------------------------------------
    # Reading the clock
    # ------------------------------------------------------------------
    @property
    def rate(self) -> float:
        """Drift rate of this clock relative to real time."""
        return self._rate

    def local_at(self, real_time: float) -> float:
        """Unwrapped local reading at the given real time."""
        return self._offset + self._rate * (real_time - self._epoch)

    def local_now(self) -> float:
        """Unwrapped local reading at the current real time.

        Inlined affine map: this is the single most-called function in a
        run (every arrival and timer reads the clock), so it bypasses the
        ``local_at`` indirection and the simulator's ``now`` property.
        """
        return self._offset + self._rate * (self._sim._now - self._epoch)

    # ------------------------------------------------------------------
    # Converting local intervals to the real-time axis
    # ------------------------------------------------------------------
    def real_at_local(self, local_time: float) -> float:
        """Real time at which the (unwrapped) local reading equals the input."""
        return self._epoch + (local_time - self._offset) / self._rate

    def real_delay_for_local(self, local_interval: float) -> float:
        """Real-time duration corresponding to a local-time interval."""
        if local_interval < 0:
            raise ValueError(f"negative local interval {local_interval!r}")
        return local_interval / self._rate

    # ------------------------------------------------------------------
    # Transient-fault support
    # ------------------------------------------------------------------
    def corrupt_offset(self, new_offset: float) -> None:
        """Simulate a transient fault that scrambles the absolute reading.

        The rate is a *hardware* property and survives transient faults; only
        the reading (register contents) can be corrupted.  Interval
        measurements started before the corruption become garbage, which is
        exactly the hazard the protocol's cleanup logic must survive.
        """
        self._offset = new_offset
        self._epoch = self._sim.now


__all__ = ["ClockConfig", "DriftClock"]
