"""Experiment registry: experiments as data, one engine for all of them.

Every sim scenario in ``src/`` runs through :func:`run_experiment`: the
registered experiments E1..E10 and A1..A3, each cell of a
:mod:`~repro.harness.suite` grid, and the CLI's ``run`` and ``stabilize``
(one group each, one seed or many).  What differs between them is *which
sweep points* they visit and *how a sweep point's per-seed results collapse
into result rows*:

* a :class:`ScenarioGroup` is one sweep point -- a picklable per-seed
  callable (shipped to pool workers) plus a parent-side row builder;
* an :class:`ExperimentSpec` names an experiment and knows how to expand its
  sweep kwargs into groups; a caller may build one without registering it;
* :func:`run_experiment` is the single engine: it resolves the spec, takes
  the warm :meth:`~repro.harness.parallel.SeedPool.shared` pool for the
  worker count, fans each group's seeds out, and aggregates rows in group
  order.

Because the engine visits groups in order and :class:`~repro.harness.
parallel.SeedPool` returns results in seed order, rows are bit-identical at
any worker count.

Registering an experiment::

    @experiment("e1", title="Validity with a correct General",
                defaults={"ns": (4, 7, 10, 13), "seeds": range(10)})
    def _e1_groups(ns=(4, 7, 10, 13)) -> list[ScenarioGroup]:
        ...

Running one::

    rows = run_experiment("e1", ns=(4, 7), seeds=range(3), workers=4)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.harness.parallel import SeedPool

# A picklable per-seed callable: module-level function or functools.partial
# over one (the seed is always the trailing positional argument).
SeedFn = Callable[[int], Any]
# Parent-side aggregation: (per-seed results in seed order, seed list) ->
# zero or more result rows (dicts, for the registered experiments).  Never
# pickled, so closures/partials are fine.
RowsFn = Callable[[list, Sequence[int]], list]


@dataclass(frozen=True)
class ScenarioGroup:
    """One sweep point of an experiment.

    ``seed_fn`` runs in pool workers and must be picklable; ``rows`` runs in
    the parent over the ordered per-seed results and returns the group's
    result rows (most groups produce exactly one).
    """

    seed_fn: SeedFn
    rows: RowsFn


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment: sweep expansion plus run defaults.

    ``groups`` takes the experiment's sweep kwargs (everything the public
    driver accepts except ``seeds``/``workers``) and returns the ordered
    :class:`ScenarioGroup` list.  ``defaults`` holds the public driver's
    default kwargs -- including ``"seeds"`` -- so the CLI can run any
    registered experiment without knowing its signature.
    """

    name: str
    title: str
    groups: Callable[..., list[ScenarioGroup]]
    defaults: dict[str, Any] = field(default_factory=dict)


_REGISTRY: dict[str, ExperimentSpec] = {}


def _ensure_builtin_experiments() -> None:
    """Populate the registry with the built-in E1..E10 and A1..A3 specs.

    Registration happens as a side effect of importing
    :mod:`repro.harness.experiments` and :mod:`repro.harness.ablations`;
    importing them lazily here means ``run_experiment("e1")`` works without
    the caller knowing about those modules (and without an import cycle:
    they import this module at load time, but this hook only fires at call
    time).
    """
    import repro.harness.ablations  # noqa: F401
    import repro.harness.experiments  # noqa: F401


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (name must be unused)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def experiment(
    name: str,
    title: str,
    defaults: Optional[dict[str, Any]] = None,
) -> Callable[[Callable[..., list[ScenarioGroup]]], Callable[..., list[ScenarioGroup]]]:
    """Decorator form of :func:`register` for a groups-builder function."""

    def wrap(groups: Callable[..., list[ScenarioGroup]]):
        register(
            ExperimentSpec(
                name=name,
                title=title,
                groups=groups,
                defaults=dict(defaults or {}),
            )
        )
        return groups

    return wrap


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment by name."""
    _ensure_builtin_experiments()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown experiment {name!r} (registered: {known})") from None


def list_experiments() -> list[ExperimentSpec]:
    """All registered experiments, sorted by name."""
    _ensure_builtin_experiments()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def run_experiment(
    name_or_spec: "str | ExperimentSpec",
    *,
    seeds: Optional[Iterable[int]] = None,
    workers: Optional[int] = None,
    **sweep_kwargs: Any,
) -> list[dict]:
    """Run one experiment through the shared engine; returns its rows.

    ``seeds`` defaults to the spec's registered default seed list; any other
    sweep kwarg omitted here also falls back to the spec default, so
    ``run_experiment("e9")`` reproduces the public driver's default table.
    """
    spec = (
        name_or_spec
        if isinstance(name_or_spec, ExperimentSpec)
        else get_experiment(name_or_spec)
    )
    merged = dict(spec.defaults)
    merged.update(sweep_kwargs)
    default_seeds = merged.pop("seeds", range(10))
    seed_list = list(seeds if seeds is not None else default_seeds)

    pool = SeedPool.shared(workers)
    rows: list = []
    for group in spec.groups(**merged):
        rows.extend(group.rows(pool.map(group.seed_fn, seed_list), seed_list))
    return rows


__all__ = [
    "ExperimentSpec",
    "ScenarioGroup",
    "experiment",
    "get_experiment",
    "list_experiments",
    "register",
    "run_experiment",
]
