"""Discrete-event simulation substrate.

This package provides the execution substrate on which every protocol in
:mod:`repro` runs:

* :mod:`repro.sim.engine` -- the discrete-event kernel (priority queue of
  timestamped events on a real-time axis, deterministic tie-breaking).
* :mod:`repro.sim.clock` -- per-node local clocks with bounded drift and
  arbitrary offset, matching the paper's timer model (Definition 1).
* :mod:`repro.sim.rand` -- deterministic, hierarchically split randomness so
  every run is reproducible from a single seed.
* :mod:`repro.sim.trace` -- a structured trace of everything that happened,
  consumed by the property checkers in :mod:`repro.harness.properties`.
"""

from repro import _lazy

__getattr__, __all__ = _lazy(__name__, {
    "repro.sim.clock": ("ClockConfig", "DriftClock"),
    "repro.sim.engine": ("EventHandle", "Simulator"),
    "repro.sim.rand": ("RandomSource",),
    "repro.sim.trace": ("TraceEvent", "Tracer"),
})
