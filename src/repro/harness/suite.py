"""Scenario-matrix runner: suites of (scenario x seed) cells as data.

A *suite config* is a JSON-able dict describing a grid of scenarios::

    {
        "name": "smoke",
        "seeds": [0, 1],
        "base": {"delta": 1.0, "rho": 1e-4, "value": "v"},
        "grid": {
            "n": [4, 7],
            "cast": ["none", "crash_one"],
            "policy": ["uniform", "bursty"],
            "timeline": ["none", "partition_heal"],
        },
    }

The grid's cartesian product (in declared key order) expands into *cells*;
each cell runs once per seed -- a correct General proposes, the cell's
:class:`~repro.faults.timeline.FaultScript` plays out, and the run is
scored with the property checkers and the network's split drop counters
(``dropped_partition`` vs ``dropped_policy``).  Cells reference Byzantine
casts, delivery policies and fault timelines *by name* (or inline dict
specs for timelines), so a cell is a plain picklable dict.  A suite is an
unregistered :class:`~repro.harness.registry.ExperimentSpec` with one
group per cell, run by the same engine as the experiments -- bit-identical
rows and trace digests at any worker count.

Every cell runs on the simulator, so rows and trace digests replay bit
for bit.

:func:`run_suite` returns one consolidated row per cell;
:func:`suite_report` renders the rows as the Markdown artifact the CLI
prints.  ``python -m repro.cli suite --preset smoke`` is the end-to-end
entry point.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.core.params import ProtocolParams, max_faults
from repro.faults.byzantine import (
    CrashStrategy,
    MirrorParticipantStrategy,
    TwoFacedParticipantStrategy,
)
from repro.faults.timeline import build_policy, build_timeline
from repro.harness import metrics, properties
from repro.harness.experiments import DEFAULT_RHO
from repro.harness.registry import ExperimentSpec, ScenarioGroup, run_experiment
from repro.harness.report import rows_to_markdown
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.harness.stats import summarize
from repro.sim.trace import trace_digest


# ---------------------------------------------------------------------------
# Named Byzantine casts (General 0 always stays correct and proposes)
# ---------------------------------------------------------------------------
def _cast_none(params: ProtocolParams) -> dict:
    return {}


def _cast_crash_one(params: ProtocolParams) -> dict:
    return {params.n - 1: CrashStrategy()}


def _cast_crash_f(params: ProtocolParams) -> dict:
    return {params.n - 1 - i: CrashStrategy() for i in range(params.f)}


def _cast_mirror(params: ProtocolParams) -> dict:
    return {params.n - 1: MirrorParticipantStrategy()}


def _cast_twofaced(params: ProtocolParams) -> dict:
    camp = tuple(range(1, 1 + (params.n - 1) // 2))
    return {params.n - 1: TwoFacedParticipantStrategy(camp)}


CAST_BUILDERS: dict[str, Callable[[ProtocolParams], dict]] = {
    "none": _cast_none,
    "crash_one": _cast_crash_one,
    "crash_f": _cast_crash_f,
    "mirror": _cast_mirror,
    "twofaced": _cast_twofaced,
}


# ---------------------------------------------------------------------------
# Cell execution (runs in pool workers; cell is a plain picklable dict)
# ---------------------------------------------------------------------------
def _cell_params(cell: dict) -> ProtocolParams:
    n = cell["n"]
    f = cell.get("f")
    return ProtocolParams(
        n=n,
        f=f if f is not None else max_faults(n),
        delta=cell.get("delta", 1.0),
        rho=cell.get("rho", DEFAULT_RHO),
    )


def _build_cast(cell: dict, params: ProtocolParams) -> dict:
    cast_name = cell.get("cast", "none")
    try:
        return CAST_BUILDERS[cast_name](params)
    except KeyError:
        known = ", ".join(sorted(CAST_BUILDERS))
        raise KeyError(f"unknown cast {cast_name!r} (known: {known})") from None


def _run_cell(cell: dict, seed: int) -> tuple:
    """One (cell, seed) run; a pure function of its arguments."""
    params = _cell_params(cell)
    cast = _build_cast(cell, params)
    cluster = Cluster(
        ScenarioConfig(
            params=params,
            seed=seed,
            byzantine=cast,
            trace=cell.get("trace", False),
        )
    )
    # Policies may need the live cluster (e.g. bursty reads sim.now), so
    # the named policy is built and swapped in before any event has run.
    cluster.net.set_policy(build_policy(cell.get("policy", "uniform"), cluster))
    script = build_timeline(cell.get("timeline", "none"), params)
    script.install(cluster)

    general = cell.get("general", 0)
    t0 = cluster.sim.now
    proposed = cluster.propose(general=general, value=cell.get("value", "v"))
    run_for_d = cell.get("run_for_d")
    horizon = (
        run_for_d * params.d
        if run_for_d is not None
        else params.delta_agr + 10 * params.d
    )
    cluster.run_for(horizon)

    # Churned nodes stop being correct mid-run; agreement quantifies over
    # the nodes that stayed correct throughout.
    agree = properties.agreement(
        cluster, general, exclude=script.churned_nodes()
    ).holds
    latest = cluster.latest_decision_per_node(general)
    decided = [dec for dec in latest.values() if dec.decided]
    stats = metrics.message_stats(cluster)
    return (
        proposed,
        agree,
        len(decided),
        tuple(metrics.decision_latencies(decided, t0)),
        stats["sent"],
        stats["delivered"],
        stats["dropped_partition"],
        stats["dropped_policy"],
        trace_digest(cluster.tracer),
    )


# ---------------------------------------------------------------------------
# Grid expansion and aggregation
# ---------------------------------------------------------------------------
def _timeline_label(spec: Any) -> str:
    if isinstance(spec, str):
        return spec
    return f"inline[{len(spec)}]"


def expand_grid(config: dict) -> list[dict]:
    """Cartesian product of the grid axes (declared order) over the base."""
    base = dict(config.get("base", {}))
    grid = config.get("grid", {})
    if not grid:
        return [base]
    keys = list(grid)
    cells = []
    for combo in itertools.product(*(grid[key] for key in keys)):
        cell = dict(base)
        cell.update(zip(keys, combo))
        cells.append(cell)
    return cells


def _cell_rows(cell: dict, results: list, seed_list: Sequence[int]) -> list[dict]:
    params = _cell_params(cell)
    agree_ok = sum(1 for r in results if r[1])
    decided_runs = sum(1 for r in results if r[2] > 0)
    latencies = [lat for r in results for lat in r[3]]
    lat = summarize(latencies)
    runs = len(seed_list)
    combined = "|".join(r[8] for r in results).encode()
    return [{
        "n": params.n,
        "f": params.f,
        "backend": "sim",
        "cast": cell.get("cast", "none"),
        "policy": cell.get("policy", "uniform"),
        "timeline": _timeline_label(cell.get("timeline", "none")),
        "runs": runs,
        "proposed": sum(1 for r in results if r[0]),
        "agreement_ok": agree_ok,
        "decided_runs": decided_runs,
        "latency_mean_d": lat.mean / params.d if lat else None,
        "latency_max_d": lat.maximum / params.d if lat else None,
        "sent_mean": sum(r[4] for r in results) / runs if runs else None,
        "dropped_partition_mean": sum(r[6] for r in results) / runs if runs else None,
        "dropped_policy_mean": sum(r[7] for r in results) / runs if runs else None,
        "digest": hashlib.sha256(combined).hexdigest()[:12],
    }]


def run_suite(
    config: dict,
    workers: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
) -> list[dict]:
    """Run a whole suite config; one consolidated row per scenario cell.

    ``seeds``/``workers`` override the config's own values (CLI flags).
    Rows come back in grid order and are bit-identical for any worker
    count: each cell is one group of the experiment engine, each (cell,
    seed) run a pure function it ships to the pool, and aggregation happens
    in seed order in the parent.
    """
    name = config.get("name", "suite")
    spec = ExperimentSpec(
        name=name,
        title=f"suite {name}",
        groups=lambda: [
            ScenarioGroup(partial(_run_cell, cell), partial(_cell_rows, cell))
            for cell in expand_grid(config)
        ],
        defaults={"seeds": config.get("seeds", range(3))},
    )
    return run_experiment(spec, seeds=seeds, workers=workers)


def load_suite_config(path: "str | Path") -> dict:
    """Read a suite config from a JSON file."""
    return json.loads(Path(path).read_text())


def suite_report(config: dict, rows: Sequence[dict]) -> str:
    """Consolidated Markdown report for a finished suite run."""
    name = config.get("name", "suite")
    cells = len(rows)
    runs = sum(row["runs"] for row in rows)
    clean = sum(1 for row in rows if row["agreement_ok"] == row["runs"])
    header = (
        f"Suite `{name}`: {cells} scenario cells, {runs} runs; "
        f"{clean}/{cells} cells with agreement on every seed.\n\n"
    )
    return header + rows_to_markdown(list(rows), title=f"Scenario matrix: {name}")


# ---------------------------------------------------------------------------
# Presets (the CLI's --preset and the CI suite-smoke gate)
# ---------------------------------------------------------------------------
SUITE_PRESETS: dict[str, dict] = {
    # Tiny end-to-end gate: 2 timelines x 2 seeds through the full engine.
    "smoke": {
        "name": "smoke",
        "seeds": [0, 1],
        "base": {"delta": 1.0, "rho": DEFAULT_RHO, "value": "v"},
        "grid": {
            "n": [4],
            "timeline": ["none", "partition_heal"],
        },
    },
    # Fault-timeline tour: every named timeline against two cluster sizes.
    "timelines": {
        "name": "timelines",
        "seeds": [0, 1, 2],
        "base": {"delta": 1.0, "rho": DEFAULT_RHO, "value": "v", "run_for_d": 24.0},
        "grid": {
            "n": [4, 7],
            "timeline": [
                "none",
                "partition_heal",
                "partition_late_heal",
                "delay_storm",
                "bursty",
                "churn",
                "partition_storm",
            ],
        },
    },
    # Casts x policies: adversarial participants under network regimes.
    "casts": {
        "name": "casts",
        "seeds": [0, 1, 2],
        "base": {"delta": 1.0, "rho": DEFAULT_RHO, "value": "v"},
        "grid": {
            "n": [7],
            "cast": ["none", "crash_one", "crash_f", "mirror", "twofaced"],
            "policy": ["uniform", "fast", "delay_storm", "bursty"],
        },
    },
}


__all__ = [
    "CAST_BUILDERS",
    "SUITE_PRESETS",
    "expand_grid",
    "load_suite_config",
    "run_suite",
    "suite_report",
]
