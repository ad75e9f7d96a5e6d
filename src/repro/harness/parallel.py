"""Process-pool fan-out over experiment seeds.

Every sim scenario runs as ``for seed in seeds: <build cluster, run,
measure>``, and each per-seed run is a pure function of ``(scenario,
seed)`` -- all randomness is derived from the seed via sha256
(:mod:`repro.sim.rand`), so results are identical across processes and
interpreter invocations.  That makes seeds embarrassingly parallel: this
module fans them out over a :class:`concurrent.futures.ProcessPoolExecutor`
while preserving the seed order of the results, so parallel execution is
*bit-identical* to serial.  :func:`repro.harness.registry.run_experiment` is
the one caller in ``src/``::

    results = SeedPool.shared(workers).map(per_seed_fn, seeds)  # seed order

``workers=None`` (the default everywhere) or ``workers=1`` runs serially in
process -- no pool, no pickling.  ``workers`` larger than the seed count is
fine; the pool simply leaves the extra workers idle.

There is one pool per effective worker count.  Its workers start at its
first fanned-out map (forkserver fork plus interpreter warm-up, a visible
fraction of a short run) and stay warm for every later map in the process,
until :func:`shutdown_shared_pools` or interpreter exit.  Workers start
from a ``forkserver``, never by ``fork`` of the calling process: the caller
may already run HTTP or metrics threads, and a child forked mid-lock by one
of them can hang.

The mapped callable and its bound arguments must be picklable: use
module-level functions (optionally wrapped in :func:`functools.partial`),
never lambdas or closures.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Optional, TypeVar

R = TypeVar("R")

# Warm pools cached by effective worker count (see SeedPool.shared).
_SHARED_POOLS: dict[int, "SeedPool"] = {}


def _cpu_count() -> int:
    """Available core count (separate hook so tests can pin it)."""
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` argument to an effective worker count.

    ``None``, ``0`` and ``1`` mean serial; negative values mean "all cores";
    anything else is taken literally up to the machine's core count --
    requests beyond it are capped (with a :class:`RuntimeWarning`), so
    oversubscription is visible instead of silently thrashing the scheduler.
    """
    if workers is None or workers == 0:
        return 1
    cores = _cpu_count()
    if workers < 0:
        return cores
    if workers > cores:
        warnings.warn(
            f"workers={workers} exceeds the {cores} available core(s); "
            f"capping at {cores}",
            RuntimeWarning,
            stacklevel=2,
        )
        return cores
    return workers


class SeedPool:
    """The ordered seed fan-out for one effective worker count.

    Get it from :meth:`shared`; the executor behind it starts lazily and
    lives as long as the process (or until :func:`shutdown_shared_pools`).
    """

    def __init__(self, workers: int) -> None:
        self._workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None

    @classmethod
    def shared(cls, workers: Optional[int] = None) -> "SeedPool":
        """The cached pool for this worker count (see :func:`resolve_workers`)."""
        count = resolve_workers(workers)
        pool = _SHARED_POOLS.get(count)
        if pool is None:
            pool = _SHARED_POOLS[count] = cls(count)
        return pool

    def map(self, fn: Callable[[int], R], seeds: Iterable[int]) -> list[R]:
        """Apply ``fn`` to every seed; results come back in seed order."""
        seed_list = list(seeds)
        if self._workers == 1 or len(seed_list) <= 1:
            return [fn(seed) for seed in seed_list]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=multiprocessing.get_context("forkserver"),
            )
        return list(self._executor.map(fn, seed_list))


def shutdown_shared_pools() -> None:
    """Stop every warm pool's workers (idempotent); later maps start anew."""
    for pool in _SHARED_POOLS.values():
        if pool._executor is not None:
            pool._executor.shutdown()
    _SHARED_POOLS.clear()


__all__ = [
    "SeedPool",
    "resolve_workers",
    "shutdown_shared_pools",
]
