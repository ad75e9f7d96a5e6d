"""Tests for the experiment registry and its shared run engine.

The load-bearing guarantee: the registry refactor changed *how* the E1..E10
drivers are expressed (specs + one engine) without changing a single bit of
their output.  ``tests/data/golden_rows_pr3.json`` holds rows captured from
the pre-refactor hand-written driver loops at fixed seeds; the drivers must
reproduce them exactly, serially and under any worker count.

``tests/data/golden_decay_digests.json`` pins the decay path the golden
rows never reach: Byzantine-General casts and a havoc -> ``Delta_stb`` ->
fresh-agreement run (the ``sim_adversary`` benchmark shapes at n = 7),
recorded as trace digests, engine event counts and decision rows.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.params import ProtocolParams, max_faults
from repro.faults.byzantine import (
    EquivocatingGeneralStrategy,
    MirrorParticipantStrategy,
    StaggeredGeneralStrategy,
    TwoFacedParticipantStrategy,
)
from repro.faults.transient import TransientFaultInjector
from repro.harness.registry import (
    ExperimentSpec,
    ScenarioGroup,
    get_experiment,
    list_experiments,
    register,
    run_experiment,
)
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.sim.trace import trace_digest

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_rows_pr3.json"
DECAY_GOLDEN_PATH = Path(__file__).parent / "data" / "golden_decay_digests.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _normalize(rows: list[dict]) -> list[dict]:
    # The golden file went through JSON; apply the same round-trip to the
    # fresh rows (float identity survives it, tuples become lists).
    return json.loads(json.dumps(rows))


class TestGoldenRows:
    """Drivers reproduce pre-refactor rows bit-identically."""

    def test_e1_matches_pre_refactor(self, golden):
        rows = run_experiment("e1", ns=(4, 7), seeds=range(3))
        assert _normalize(rows) == golden["e1"]["rows"]

    def test_e5_matches_pre_refactor(self, golden):
        rows = run_experiment("e5", n=7, delay_fracs=(0.1, 1.0), seeds=range(2))
        assert _normalize(rows) == golden["e5"]["rows"]

    def test_e9_matches_pre_refactor(self, golden):
        rows = run_experiment("e9", ns=(4, 7), seeds=range(2))
        assert _normalize(rows) == golden["e9"]["rows"]

    def test_e9_parallel_matches_pre_refactor(self, golden):
        rows = run_experiment("e9", ns=(4, 7), seeds=range(2), workers=2)
        assert _normalize(rows) == golden["e9"]["rows"]


class TestRegistry:
    def test_all_ten_experiments_registered(self):
        names = [spec.name for spec in list_experiments()]
        for i in range(1, 11):
            assert f"e{i}" in names

    def test_get_experiment_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("e99")

    def test_duplicate_registration_rejected(self):
        spec = get_experiment("e1")
        with pytest.raises(ValueError, match="already registered"):
            register(spec)

    def test_specs_have_defaults_with_seeds(self):
        for spec in list_experiments():
            assert "seeds" in spec.defaults, spec.name


class TestRunEngine:
    def test_run_by_name_matches_spec_object(self):
        by_name = run_experiment("e9", ns=(4,), seeds=range(2))
        by_spec = run_experiment(get_experiment("e9"), ns=(4,), seeds=range(2))
        assert by_name == by_spec

    def test_spec_defaults_fill_missing_kwargs(self):
        # Only override seeds: the ns default from the spec applies.
        rows = run_experiment("e1", seeds=range(1))
        assert [row["n"] for row in rows] == [4, 7, 10, 13]

    def test_explicit_spec_object_accepted(self):
        rows = run_experiment(get_experiment("e9"), ns=(4,), seeds=range(1))
        assert len(rows) == 1 and rows[0]["n"] == 4

    def test_engine_group_order_is_row_order(self):
        calls = []

        def groups(labels=("a", "b", "c")):
            return [
                ScenarioGroup(
                    seed_fn=_identity_seed,
                    rows=lambda results, seeds, lab=label: [{"label": lab}],
                )
                for label in labels
            ]

        spec = ExperimentSpec(name="_roworder", title="t", groups=groups)
        rows = run_experiment(spec, seeds=range(2))
        assert [row["label"] for row in rows] == ["a", "b", "c"]
        assert calls == []  # groups aggregation ran in-process


def _identity_seed(seed: int) -> int:
    return seed


# ----------------------------------------------------------------------
# Decay path: casts and havoc -> Delta_stb -> fresh agreement
# ----------------------------------------------------------------------
DECAY_N = 7
DECAY_SEEDS = (1, 2)


def _decay_casts(params: ProtocolParams) -> dict[str, dict]:
    n = params.n
    others = tuple(range(1, n))
    left = others[: len(others) // 2]
    right = others[len(others) // 2 :]
    return {
        "equivocate+twofaced": {
            0: EquivocatingGeneralStrategy("A", "B", left, right),
            n - 1: TwoFacedParticipantStrategy(left),
        },
        "staggered_3phi": {
            0: StaggeredGeneralStrategy("S", spread_local=3 * params.phi),
            n - 1: MirrorParticipantStrategy(),
        },
    }


def _decision_rows(cluster: Cluster) -> list[list]:
    return [
        [
            dec.node,
            repr(dec.general),
            repr(dec.value),
            dec.tau_g_local,
            dec.tau_g_real,
            dec.returned_local,
            dec.returned_real,
        ]
        for node in cluster.correct_nodes()
        for dec in node.decisions
    ]


def _decay_record(cluster: Cluster) -> dict:
    return {
        "digest": trace_digest(cluster.tracer),
        "events": cluster.sim.events_executed,
        "decisions": _decision_rows(cluster),
    }


def decay_runs() -> dict[str, dict]:
    """Every pinned decay-path run, keyed ``<shape>/seed=<seed>``."""
    params = ProtocolParams(n=DECAY_N, f=max_faults(DECAY_N), delta=1.0, rho=1e-4)
    out: dict[str, dict] = {}
    for seed in DECAY_SEEDS:
        for cast, byzantine in _decay_casts(params).items():
            cluster = Cluster(
                ScenarioConfig(params=params, seed=seed, byzantine=byzantine, trace=True)
            )
            cluster.run_for(3 * params.delta_agr)
            out[f"{cast}/seed={seed}"] = _decay_record(cluster)
        cluster = Cluster(ScenarioConfig(params=params, seed=seed, trace=True))
        injector = TransientFaultInjector(
            params,
            cluster.rng.split("injector"),
            value_pool=["A", "B", "C"],
            generals=[0, 1],
        )
        cluster.run_for(5.0 * params.d)
        injector.havoc(cluster.correct_nodes(), cluster.net, 300)
        cluster.mark_coherent()
        cluster.run_for(params.delta_stb)
        cluster.propose(general=0, value="recovered")
        cluster.run_for(params.delta_agr + 10 * params.d)
        out[f"stabilize/seed={seed}"] = _decay_record(cluster)
    return out


class TestGoldenDecayDigests:
    """The self-stabilizing decay sweep replays its recorded trajectory."""

    def test_decay_runs_match_golden(self):
        golden = json.loads(DECAY_GOLDEN_PATH.read_text())
        assert _normalize(decay_runs()) == golden["runs"]
