"""Process-pool fan-out over experiment seeds.

Every experiment driver in :mod:`repro.harness.experiments` runs a family of
scenarios as ``for seed in seeds: <build cluster, run, measure>``.  Each
per-seed run is a pure function of ``(scenario, seed)`` -- all randomness is
derived from the seed via sha256 (:mod:`repro.sim.rand`), so results are
identical across processes and interpreter invocations.  That makes seeds
embarrassingly parallel: this module fans them out over a
:class:`concurrent.futures.ProcessPoolExecutor` while preserving the seed
order of the results, so parallel execution is *bit-identical* to serial.

Usage::

    from repro.harness.parallel import SeedPool

    with SeedPool(workers=8) as pool:
        results = pool.map(per_seed_fn, seeds)   # ordered like ``seeds``

``workers=None`` (the default everywhere) or ``workers=1`` runs serially in
process -- no pool, no pickling, deterministic output *ordering and content*
exactly as before this subsystem existed.  ``workers`` larger than the seed
count is fine; the pool simply leaves the extra workers idle.

Workers start from a ``forkserver``, never by ``fork`` of the calling
process: the caller may already run HTTP or metrics threads, and a child
forked mid-lock by one of them can hang.

Pool reuse
----------
Worker startup (forkserver fork + interpreter warmup) costs a visible fraction
of a short driver call, so the executor can outlive a single ``with``
block: :meth:`SeedPool.shared` returns a per-worker-count cached pool whose
context exit leaves the processes warm.  Successive ``run_experiment``
calls with the same ``workers=`` then pay pool startup once per process
lifetime; the experiment engine and the CLI's seed fan-out both use this
path.  :func:`shutdown_shared_pools` releases the warm pools explicitly
(the interpreter's atexit handling reaps them otherwise).

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

# Warm executors cached by effective worker count (see SeedPool.shared).
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
    """A reusable seed fan-out: one process pool spanning many map calls.

    Drivers with outer sweep loops (over ``n``, attack names, delay
    fractions, ...) open one pool for the whole driver so worker startup is
    amortized across every inner seed loop.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.requested_workers = workers
        self._workers = resolve_workers(workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._shared = False

    @classmethod
    def shared(cls, workers: Optional[int] = None) -> "SeedPool":
        """A cached, reusable pool for this worker count.

        The first call starts the workers; later calls (and later ``with``
        blocks) reuse them -- context exit does *not* shut a shared pool
        down.  Call :meth:`close` or :func:`shutdown_shared_pools` to
        release the processes.
        """
        count = resolve_workers(workers)
        pool = _SHARED_POOLS.get(count)
        if pool is None:
            pool = cls(count)
            pool._shared = True
            pool._ensure()
            _SHARED_POOLS[count] = pool
        return pool

    @property
    def workers(self) -> int:
        """Effective worker count (1 means serial in-process)."""
        return self._workers

    def _ensure(self) -> None:
        if self._workers > 1 and self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=multiprocessing.get_context("forkserver"),
            )

    def __enter__(self) -> "SeedPool":
        self._ensure()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self._shared:
            self.close()

    def close(self) -> None:
        """Shut the pool down (idempotent); shared pools leave the cache."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if self._shared:
            _SHARED_POOLS.pop(self._workers, None)
            self._shared = False

    def map(self, fn: Callable[[int], R], seeds: Iterable[int]) -> list[R]:
        """Apply ``fn`` to every seed; results come back in seed order."""
        seed_list = list(seeds)
        if self._executor is None or len(seed_list) <= 1:
            return [fn(seed) for seed in seed_list]
        return list(self._executor.map(fn, seed_list))


def shutdown_shared_pools() -> None:
    """Release every warm shared pool (idempotent)."""
    for pool in list(_SHARED_POOLS.values()):
        pool.close()


__all__ = [
    "SeedPool",
    "resolve_workers",
    "shutdown_shared_pools",
]
