"""Experiment harness.

* :mod:`repro.harness.scenario` -- declarative scenario construction: a
  :class:`~repro.harness.scenario.Cluster` wires the simulator, network,
  clocks, correct protocol nodes and Byzantine nodes together from a
  :class:`~repro.harness.scenario.ScenarioConfig`.
* :mod:`repro.harness.metrics` -- measurements over finished runs (decision
  spreads, anchor skews, message counts, latency).
* :mod:`repro.harness.properties` -- every theorem of the paper as an
  executable checker producing a :class:`~repro.harness.properties.
  PropertyReport`.
* :mod:`repro.harness.stats` -- aggregation helpers for sweeps, and the
  nearest-rank latency summary the service CLI prints.
* :mod:`repro.harness.parallel` -- process-pool seed fan-out: one warm
  :class:`~repro.harness.parallel.SeedPool` per worker count, results in
  seed order.
* :mod:`repro.harness.registry` -- experiments as data, and the one engine
  that fans seeds out: :func:`~repro.harness.registry.run_experiment` runs
  an :class:`~repro.harness.registry.ExperimentSpec` (seeds, ``workers=``
  fan-out, row aggregation) for the registered experiments, the suites
  and the CLI's ``run`` and ``stabilize`` alike.
* :mod:`repro.harness.experiments` -- the E1..E10 experiments, registered
  with the engine as ``"e1"``..``"e10"``; ``tests/test_experiments.py``
  asserts their pass criteria.
* :mod:`repro.harness.suite` -- the scenario-matrix runner: declarative
  suite configs (grids over n, casts, delivery policies and fault
  timelines) run by the engine, one group per cell, into one
  consolidated report.
"""

from repro import _lazy

__getattr__, __all__ = _lazy(__name__, {
    "repro.harness.parallel": ("SeedPool",),
    "repro.harness.registry": (
        "ExperimentSpec",
        "ScenarioGroup",
        "get_experiment",
        "list_experiments",
        "run_experiment",
    ),
    "repro.harness.metrics": (
        "anchor_spread_real",
        "decision_latencies",
        "decision_spread_real",
        "message_stats",
    ),
    "repro.harness.properties": ("PropertyReport",),
    "repro.harness.scenario": ("Cluster", "ScenarioConfig"),
    "repro.harness.stats": ("summarize",),
})
