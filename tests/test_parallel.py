"""Tests for the process-pool seed fan-out (repro.harness.parallel).

The contract under test: for any worker count, ``SeedPool.map`` returns
exactly what the serial loop returns, in seed order -- and the registered
experiments and suites run through it produce bit-identical rows with and
without ``workers=``.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.harness.parallel import SeedPool, resolve_workers, shutdown_shared_pools
from repro.harness.registry import run_experiment


def _square_plus(offset: int, seed: int) -> int:
    return seed * seed + offset


def _seed_fingerprint(seed: int) -> tuple:
    """A tiny pure 'experiment': derive values only from the seed."""
    from repro.sim.rand import RandomSource

    rng = RandomSource(seed).split("fingerprint")
    return seed, rng.uniform(0.0, 1.0), rng.randint(0, 10**6)


def run_seeds_parallel(fn, seeds, workers):
    """Fan-out through the warm pool for ``workers``."""
    return SeedPool.shared(workers).map(fn, seeds)


class TestRunSeedsParallel:
    def test_matches_serial_map(self):
        seeds = list(range(12))
        serial = [_square_plus(3, s) for s in seeds]
        assert run_seeds_parallel(partial(_square_plus, 3), seeds, workers=4) == serial

    def test_workers_one_is_serial(self):
        seeds = [5, 3, 1]
        result = run_seeds_parallel(_seed_fingerprint, seeds, workers=1)
        assert result == [_seed_fingerprint(s) for s in seeds]

    def test_workers_exceeding_seed_count(self):
        seeds = [2, 7]
        result = run_seeds_parallel(_seed_fingerprint, seeds, workers=16)
        assert result == [_seed_fingerprint(s) for s in seeds]

    def test_order_follows_seeds_not_completion(self):
        seeds = [9, 1, 8, 2, 7]
        result = run_seeds_parallel(_seed_fingerprint, seeds, workers=3)
        assert [r[0] for r in result] == seeds

    def test_rng_streams_identical_across_processes(self):
        seeds = list(range(8))
        assert run_seeds_parallel(_seed_fingerprint, seeds, workers=4) == [
            _seed_fingerprint(s) for s in seeds
        ]


class TestSeedPool:
    def test_resolve_workers(self, monkeypatch):
        monkeypatch.setattr("repro.harness.parallel._cpu_count", lambda: 8)
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(6) == 6
        assert resolve_workers(-1) == 8

    def test_resolve_workers_caps_at_core_count(self, monkeypatch):
        monkeypatch.setattr("repro.harness.parallel._cpu_count", lambda: 4)
        with pytest.warns(RuntimeWarning, match="exceeds the 4 available"):
            assert resolve_workers(9) == 4
        # At or below the core count: taken literally, no warning.
        assert resolve_workers(4) == 4


class TestSharedPools:
    """SeedPool.shared keeps workers warm across driver calls."""

    def setup_method(self):
        shutdown_shared_pools()

    teardown_method = setup_method

    def test_shared_returns_same_instance_per_worker_count(self, monkeypatch):
        monkeypatch.setattr("repro.harness.parallel._cpu_count", lambda: 8)
        a = SeedPool.shared(2)
        b = SeedPool.shared(2)
        assert a is b
        assert SeedPool.shared(None) is SeedPool.shared(1)
        assert SeedPool.shared(None) is not a

    def test_executor_stays_warm_across_engine_runs(self, monkeypatch):
        monkeypatch.setattr("repro.harness.parallel._cpu_count", lambda: 8)
        pool = SeedPool.shared(2)
        assert pool._executor is None  # workers start at the first fan-out
        run_experiment("e9", ns=(4,), seeds=range(2), workers=2)
        executor = pool._executor
        assert executor is not None
        run_experiment("e9", ns=(4,), seeds=range(2), workers=2)
        assert SeedPool.shared(2) is pool
        assert pool._executor is executor

    def test_serial_pool_never_starts_workers(self):
        pool = SeedPool.shared(None)
        assert pool.map(partial(_square_plus, 1), [4, 5]) == [17, 26]
        assert pool._executor is None

    def test_shared_map_matches_serial(self):
        seeds = list(range(8))
        serial = [_square_plus(5, s) for s in seeds]
        pool = SeedPool.shared(2)
        assert pool.map(partial(_square_plus, 5), seeds) == serial
        # A second map on the warm pool returns the same.
        assert pool.map(partial(_square_plus, 5), seeds) == serial

    def test_close_evicts_from_cache(self):
        """Shutting the warm pools down closes their workers and evicts them."""
        pool = SeedPool.shared(2)
        pool.map(partial(_square_plus, 0), range(4))
        executor = pool._executor
        shutdown_shared_pools()
        assert SeedPool.shared(2) is not pool
        with pytest.raises(RuntimeError):
            executor.submit(_square_plus, 0, 1)

    def test_shutdown_shared_pools_is_idempotent(self):
        SeedPool.shared(2)
        shutdown_shared_pools()
        shutdown_shared_pools()


class TestDriversBitIdentical:
    """workers= must never change an experiment's rows."""

    def test_e1_parallel_matches_serial(self):
        serial = run_experiment("e1", ns=(4,), seeds=range(4))
        for workers in (1, 2, 8):  # 8 > len(seeds)
            rows = run_experiment("e1", ns=(4,), seeds=range(4), workers=workers)
            assert rows == serial

    def test_e9_parallel_matches_serial(self):
        serial = run_experiment("e9", ns=(4, 7), seeds=range(2))
        assert run_experiment("e9", ns=(4, 7), seeds=range(2), workers=2) == serial

    def test_e3_parallel_matches_serial(self):
        serial = run_experiment("e3", n=4, seeds=range(2), garbage_messages=40)
        parallel = run_experiment(
            "e3", n=4, seeds=range(2), garbage_messages=40, workers=2
        )
        assert parallel == serial


class TestFaultScriptBitIdentical:
    """Scripted fault timelines obey the same contract as the drivers:
    rows *and trace digests* are bit-identical at any worker count."""

    SUITE = {
        "name": "parallel-faults",
        "seeds": [0, 1, 2],
        "base": {"delta": 1.0, "rho": 1e-4, "value": "v", "trace": True},
        "grid": {
            "n": [4],
            "timeline": ["partition_heal", "churn"],
        },
    }

    def test_suite_rows_and_digests_parallel_match_serial(self):
        from repro.harness.suite import run_suite

        serial = run_suite(self.SUITE)
        for workers in (1, 4):
            fanned = run_suite(self.SUITE, workers=workers)
            assert fanned == serial, f"workers={workers} diverged"
        # The digest column is a real discriminator, not a constant.
        assert serial[0]["digest"] != serial[1]["digest"]
