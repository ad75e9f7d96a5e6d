"""Experiment drivers E1..E10 (see DESIGN.md section 4).

Each experiment is *data* in the :mod:`repro.harness.registry`: a
groups-builder expands the sweep kwargs into :class:`~repro.harness.
registry.ScenarioGroup` entries (a picklable per-seed callable plus a
parent-side row builder), and the shared :func:`~repro.harness.registry.
run_experiment` engine handles seeds, ``workers=`` fan-out via
:meth:`~repro.harness.parallel.SeedPool.shared`, and row aggregation in
group order.  Run one by name, e.g. ``run_experiment("e9", ns=(4, 7),
seeds=range(2))``; ``tests/test_experiments.py`` asserts each experiment's
pass criteria.

Every experiment takes ``seeds`` so callers can trade confidence for
runtime, and ``workers`` to fan the per-seed runs out over a process pool
(:mod:`repro.harness.parallel`).  The default ``workers=None`` runs
serially; any worker count returns bit-identical rows because each
per-seed run is a pure function of (scenario, seed) and results are
aggregated in seed order.  The per-seed bodies live in module-level
``_eN_seed`` functions so they pickle cleanly into pool workers.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.baselines.eig import EigCluster
from repro.baselines.tps87 import Tps87Cluster
from repro.core.params import BOTTOM, ProtocolParams, max_faults
from repro.faults.byzantine import (
    CrashStrategy,
    EquivocatingGeneralStrategy,
    MirrorParticipantStrategy,
    SelectiveGeneralStrategy,
    SplitWorldStrategy,
    StaggeredGeneralStrategy,
    TwoFacedParticipantStrategy,
)
from repro.faults.transient import TransientFaultInjector
from repro.harness import metrics, properties
from repro.harness.registry import ScenarioGroup, experiment
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.harness.stats import summarize
from repro.net.delivery import DeliveryPolicy, UniformDelay

# The clock drift bound of every harness scenario (the ablations and the
# suite presets read it from here).
DEFAULT_RHO = 1e-4


def _params(n: int, f: Optional[int] = None, delta: float = 1.0) -> ProtocolParams:
    return ProtocolParams(n=n, f=f if f is not None else max_faults(n), delta=delta, rho=DEFAULT_RHO)


# ---------------------------------------------------------------------------
# E1 -- Validity + Timeliness-2 with a correct General
# ---------------------------------------------------------------------------
def _e1_seed(params: ProtocolParams, seed: int) -> tuple:
    cluster = Cluster(ScenarioConfig(params=params, seed=seed))
    t0 = cluster.sim.now
    assert cluster.propose(general=0, value="m1")
    cluster.run_for(params.delta_agr + 10 * params.d)
    decs = list(cluster.latest_decision_per_node(0).values())
    return (
        properties.validity(cluster, 0, "m1").holds,
        properties.timeliness_validity(cluster, 0, t0).holds,
        metrics.decision_latencies(decs, t0),
        metrics.decision_spread_real(decs),
    )


def _e1_rows(params: ProtocolParams, results: list, seed_list: Sequence[int]) -> list[dict]:
    ok_validity = ok_timeliness = 0
    latencies: list[float] = []
    spreads: list[float] = []
    for v_ok, t_ok, lats, spread in results:
        if v_ok:
            ok_validity += 1
        if t_ok:
            ok_timeliness += 1
        latencies.extend(lats)
        if spread is not None:
            spreads.append(spread)
    lat = summarize(latencies)
    return [
        {
            "n": params.n,
            "f": params.f,
            "runs": len(seed_list),
            "validity_ok": ok_validity,
            "timeliness_ok": ok_timeliness,
            "latency_mean_d": lat.mean / params.d if lat else None,
            "latency_max_d": lat.maximum / params.d if lat else None,
            "latency_bound_d": 4.0,  # paper: rt(tau_q) <= t0 + 4d
            "spread_max_d": max(spreads) / params.d if spreads else None,
            "spread_bound_d": 2.0,  # paper: 2d under validity
        }
    ]


@experiment(
    "e1",
    title="E1: validity and timeliness with a correct General",
    defaults={"ns": (4, 7, 10, 13), "seeds": range(10)},
)
def _e1_groups(ns: Sequence[int] = (4, 7, 10, 13)) -> list[ScenarioGroup]:
    """Correct General: everyone decides its value within the paper bounds."""
    return [
        ScenarioGroup(seed_fn=partial(_e1_seed, params), rows=partial(_e1_rows, params))
        for params in map(_params, ns)
    ]



# ---------------------------------------------------------------------------
# E2 -- Agreement under a Byzantine General
# ---------------------------------------------------------------------------
def _e2_seed(params: ProtocolParams, byz: dict, seed: int) -> tuple:
    cluster = Cluster(ScenarioConfig(params=params, seed=seed, byzantine=byz))
    cluster.run_for(3 * params.delta_agr)
    agree = properties.agreement(cluster, 0).holds
    latest = cluster.latest_decision_per_node(0)
    decided = any(dec.decided for dec in latest.values())
    return agree, decided


def _e2_rows(name: str, results: list, seed_list: Sequence[int]) -> list[dict]:
    agree_ok = sum(1 for agree, _ in results if agree)
    split = sum(1 for agree, _ in results if not agree)
    decided_runs = sum(1 for _, decided in results if decided)
    return [
        {
            "attack": name,
            "runs": len(seed_list),
            "agreement_ok": agree_ok,
            "splits": split,
            "runs_with_decision": decided_runs,
        }
    ]


@experiment(
    "e2",
    title="E2: agreement under a Byzantine General",
    defaults={"n": 7, "seeds": range(10)},
)
def _e2_groups(n: int = 7) -> list[ScenarioGroup]:
    """Adversarial General strategies: all-or-nothing, single value, always."""
    params = _params(n)
    others = tuple(range(1, n))
    half = len(others) // 2
    attacks = {
        "equivocate": {
            0: EquivocatingGeneralStrategy("A", "B", others[:half], others[half:])
        },
        "equivocate+twofaced": {
            0: EquivocatingGeneralStrategy("A", "B", others[:half], others[half:]),
            n - 1: TwoFacedParticipantStrategy(others[:half]),
        },
        "staggered_2d": {0: StaggeredGeneralStrategy("S", spread_local=2 * params.d)},
        "staggered_8d": {0: StaggeredGeneralStrategy("S", spread_local=8 * params.d)},
        "staggered_3phi": {
            0: StaggeredGeneralStrategy("S", spread_local=3 * params.phi),
            n - 1: MirrorParticipantStrategy(),
        },
        "selective_quorum": {0: SelectiveGeneralStrategy("X", others[: n - 2])},
        "selective_subquorum": {0: SelectiveGeneralStrategy("X", others[:2])},
    }
    return [
        ScenarioGroup(
            seed_fn=partial(_e2_seed, params, byz),
            rows=partial(_e2_rows, name),
        )
        for name, byz in attacks.items()
    ]



# ---------------------------------------------------------------------------
# E3 -- Self-stabilization from arbitrary state
# ---------------------------------------------------------------------------
def _e3_seed(params: ProtocolParams, garbage_messages: int, seed: int) -> tuple:
    """One havoc -> Delta_stb -> agree run (``repro.cli stabilize`` runs it
    too): (proposal unblocked, post-stabilization validity, timeliness)."""
    cluster = Cluster(ScenarioConfig(params=params, seed=seed))
    injector = TransientFaultInjector(
        params,
        cluster.rng.split("injector"),
        value_pool=["A", "B", "C"],
        generals=[0, 1],
    )
    cluster.run_for(5.0 * params.d)
    injector.havoc(cluster.correct_nodes(), cluster.net, garbage_messages)
    cluster.mark_coherent()
    cluster.run_for(params.delta_stb)
    since = cluster.sim.now
    proposed = cluster.propose(general=0, value="recovered")
    cluster.run_for(params.delta_agr + 10 * params.d)
    v_ok = properties.validity(cluster, 0, "recovered", since_real=since).holds
    t_ok = properties.timeliness_validity(cluster, 0, since, since_real=since).holds
    return proposed, v_ok, t_ok


def _e3_rows(
    params: ProtocolParams,
    garbage_messages: int,
    results: list,
    seed_list: Sequence[int],
) -> list[dict]:
    recovered = sum(1 for proposed, _, _ in results if proposed)
    post_validity = sum(1 for _, v_ok, _ in results if v_ok)
    post_timeliness = sum(1 for _, _, t_ok in results if t_ok)
    return [
        {
            "n": params.n,
            "f": params.f,
            "runs": len(seed_list),
            "garbage_messages": garbage_messages,
            "proposal_unblocked": recovered,
            "post_stb_validity": post_validity,
            "post_stb_timeliness": post_timeliness,
            "stabilization_bound_d": params.delta_stb / params.d,
        }
    ]


@experiment(
    "e3",
    title="E3: self-stabilization from arbitrary state",
    defaults={"n": 7, "garbage_messages": 300, "seeds": range(10)},
)
def _e3_groups(n: int = 7, garbage_messages: int = 300) -> list[ScenarioGroup]:
    """Havoc everything, wait Delta_stb, then demand a clean agreement."""
    params = _params(n)
    return [
        ScenarioGroup(
            seed_fn=partial(_e3_seed, params, garbage_messages),
            rows=partial(_e3_rows, params, garbage_messages),
        )
    ]



# ---------------------------------------------------------------------------
# E4 -- Early stopping: decision time scales with actual faults f'
# ---------------------------------------------------------------------------
def _e4_seed(params: ProtocolParams, f_actual: int, seed: int) -> tuple:
    byz = {params.n - 1 - i: CrashStrategy() for i in range(f_actual)}
    cluster = Cluster(ScenarioConfig(params=params, seed=seed, byzantine=byz))
    t0 = cluster.sim.now
    assert cluster.propose(general=0, value="v")
    cluster.run_for(params.delta_agr + 10 * params.d)
    decs = list(cluster.latest_decision_per_node(0).values())
    return (
        properties.validity(cluster, 0, "v").holds,
        metrics.decision_latencies(decs, t0),
    )


def _e4_rows(
    params: ProtocolParams, f_actual: int, results: list, seed_list: Sequence[int]
) -> list[dict]:
    latencies: list[float] = []
    validity_ok = 0
    for v_ok, lats in results:
        if v_ok:
            validity_ok += 1
        latencies.extend(lats)
    lat = summarize(latencies)
    return [
        {
            "n": params.n,
            "f": params.f,
            "f_actual": f_actual,
            "runs": len(seed_list),
            "validity_ok": validity_ok,
            "latency_mean_d": lat.mean / params.d if lat else None,
            "latency_max_d": lat.maximum / params.d if lat else None,
            "worstcase_bound_d": params.delta_agr / params.d,
        }
    ]


@experiment(
    "e4",
    title="E4: early stopping in the actual fault count",
    defaults={"n": 13, "seeds": range(10)},
)
def _e4_groups(n: int = 13) -> list[ScenarioGroup]:
    """Crash-faulty subsets of size f' = 0..f; latency tracks f', not f."""
    params = _params(n)
    return [
        ScenarioGroup(
            seed_fn=partial(_e4_seed, params, f_actual),
            rows=partial(_e4_rows, params, f_actual),
        )
        for f_actual in range(params.f + 1)
    ]



# ---------------------------------------------------------------------------
# E5 -- Message-driven vs time-driven rounds
# ---------------------------------------------------------------------------
def _e5_seed(
    params: ProtocolParams, policy: DeliveryPolicy, actual_max: float, seed: int
) -> tuple:
    # Speed experiment: rows are built from decisions and message counters
    # only, never from the trace, so tracing runs on its zero-cost disabled
    # path.  Protocol behaviour (and hence every row) is unaffected.
    cluster = Cluster(
        ScenarioConfig(params=params, seed=seed, policy=policy, trace=False)
    )
    t0 = cluster.sim.now
    assert cluster.propose(general=0, value="v")
    cluster.run_for(params.delta_agr + 10 * params.d)
    decs = list(cluster.latest_decision_per_node(0).values())
    ss_lat = metrics.decision_latencies(decs, t0)

    tps = Tps87Cluster(params, seed=seed, policy=UniformDelay(0.1 * actual_max, actual_max))
    tps.initiate("v")
    tps_decs = tps.run_to_completion()
    tps_lat = [d.returned_real for d in tps_decs if d.decided]
    return ss_lat, tps_lat


def _e5_rows(
    params: ProtocolParams, frac: float, results: list, seed_list: Sequence[int]
) -> list[dict]:
    ss_lat: list[float] = []
    tps_lat: list[float] = []
    for ss, tp in results:
        ss_lat.extend(ss)
        tps_lat.extend(tp)
    ss = summarize(ss_lat)
    tp = summarize(tps_lat)
    return [
        {
            "actual_delay_frac": frac,
            "ss_latency_mean": ss.mean if ss else None,
            "tps_latency_mean": tp.mean if tp else None,
            "speedup": (tp.mean / ss.mean) if ss and tp and ss.mean > 0 else None,
            "phi": params.phi,
        }
    ]


@experiment(
    "e5",
    title="E5: message-driven vs time-driven rounds",
    defaults={"n": 7, "delay_fracs": (0.1, 0.25, 0.5, 0.75, 1.0), "seeds": range(5)},
)
def _e5_groups(
    n: int = 7, delay_fracs: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 1.0)
) -> list[ScenarioGroup]:
    """Latency of ss-Byz-Agree vs TPS'87 as actual delay shrinks below delta.

    The model bound ``delta`` (hence ``d``, ``Phi``) is fixed; the *actual*
    delays sweep downward.  The paper's claim: ss-Byz-Agree finishes at
    actual-network speed, the lock-step baseline at ``Phi`` granularity.
    """
    params = _params(n)
    groups = []
    for frac in delay_fracs:
        actual_max = frac * params.delta
        policy = UniformDelay(0.1 * actual_max, actual_max)
        groups.append(
            ScenarioGroup(
                seed_fn=partial(_e5_seed, params, policy, actual_max),
                rows=partial(_e5_rows, params, frac),
            )
        )
    return groups



# ---------------------------------------------------------------------------
# E6 -- Resilience boundary: n > 3f
# ---------------------------------------------------------------------------
def _e6_seed(
    params: ProtocolParams,
    byz_count: int,
    camp_a: tuple,
    camp_b: tuple,
    seed: int,
) -> bool:
    n = params.n
    general = 0
    helpers = [n - 1 - i for i in range(byz_count - 1)]
    byz: dict = {general: EquivocatingGeneralStrategy("A", "B", camp_a, camp_b)}
    for helper in helpers:
        byz[helper] = SplitWorldStrategy(general, "A", "B", camp_a, camp_b)
    cluster = Cluster(
        ScenarioConfig(
            params=params,
            seed=seed,
            byzantine=byz,
            allow_extra_byzantine=byz_count > params.f,
        )
    )
    cluster.run_for(3 * params.delta_agr)
    return properties.agreement(cluster, 0).holds


def _e6_rows(
    label: str, n: int, byz_count: int, results: list, seed_list: Sequence[int]
) -> list[dict]:
    agree_ok = sum(1 for agree in results if agree)
    splits = sum(1 for agree in results if not agree)
    return [
        {
            "condition": label,
            "n": n,
            "byzantine": byz_count,
            "runs": len(seed_list),
            "agreement_ok": agree_ok,
            "splits": splits,
        }
    ]


@experiment(
    "e6",
    title="E6: resilience boundary n > 3f",
    defaults={"seeds": range(10)},
)
def _e6_groups() -> list[ScenarioGroup]:
    """The split-world attack at n = 7: provably harmless with f' = 2
    Byzantine nodes (n > 3f'), and a working partition with f' = 3
    (n <= 3f') -- the resilience bound is tight."""
    n = 7
    groups = []
    for byz_count, camp_a, camp_b, label in (
        (2, (1, 2, 3), (4, 5), "n>3f (within bound)"),
        (3, (1, 2), (3, 4), "n<=3f' (beyond bound)"),
    ):
        params = ProtocolParams(n=n, f=2, delta=1.0, rho=DEFAULT_RHO)
        groups.append(
            ScenarioGroup(
                seed_fn=partial(_e6_seed, params, byz_count, camp_a, camp_b),
                rows=partial(_e6_rows, label, n, byz_count),
            )
        )
    return groups



# ---------------------------------------------------------------------------
# E7 -- Initiator-Accept bounds
# ---------------------------------------------------------------------------
def _e7_seed(params: ProtocolParams, seed: int) -> tuple:
    cluster = Cluster(ScenarioConfig(params=params, seed=seed))
    t0 = cluster.sim.now
    assert cluster.propose(general=0, value="m")
    cluster.run_for(params.delta_agr)
    rep = properties.ia_correctness(cluster, 0, "m", t0)
    return rep.holds, rep.details["accept_spread"], rep.details["anchor_spread"]


def _e7_rows(params: ProtocolParams, results: list, seed_list: Sequence[int]) -> list[dict]:
    ia_ok = 0
    accept_spreads: list[float] = []
    anchor_spreads: list[float] = []
    for holds, accept_spread, anchor_spread in results:
        if holds:
            ia_ok += 1
        if accept_spread is not None:
            accept_spreads.append(accept_spread)
        if anchor_spread is not None:
            anchor_spreads.append(anchor_spread)
    return [
        {
            "n": params.n,
            "f": params.f,
            "runs": len(seed_list),
            "ia1_ok": ia_ok,
            "accept_spread_max_d": max(accept_spreads) / params.d
            if accept_spreads
            else None,
            "accept_spread_bound_d": 2.0,
            "anchor_spread_max_d": max(anchor_spreads) / params.d
            if anchor_spreads
            else None,
            "anchor_spread_bound_d": 1.0,
        }
    ]


@experiment(
    "e7",
    title="E7: Initiator-Accept bounds",
    defaults={"ns": (4, 7, 10), "seeds": range(10)},
)
def _e7_groups(ns: Sequence[int] = (4, 7, 10)) -> list[ScenarioGroup]:
    """IA-1A/1B/1C/1D with a correct General; IA-3A under a staggered one."""
    return [
        ScenarioGroup(seed_fn=partial(_e7_seed, params), rows=partial(_e7_rows, params))
        for params in map(_params, ns)
    ]



# ---------------------------------------------------------------------------
# E8 -- Separation / Uniqueness across recurrent agreements
# ---------------------------------------------------------------------------
def _e8_seed(params: ProtocolParams, rounds: int, seed: int) -> tuple:
    cluster = Cluster(ScenarioConfig(params=params, seed=seed))
    values = [f"v{i}" for i in range(rounds)] + ["v0"]  # repeat v0 at the end
    for value in values:
        # Respect the General's pacing: wait until it may propose again.
        guard = 0
        while not cluster.propose(general=0, value=value):
            cluster.run_for(params.delta_0)
            guard += 1
            if guard > 200:
                raise RuntimeError("General never allowed to propose")
        cluster.run_for(params.delta_agr + 10 * params.d)
    rep = properties.separation(cluster, 0)
    sep = rep.holds
    both = rep.holds and properties.agreement(cluster, 0).holds
    return sep, both


def _e8_rows(
    params: ProtocolParams, rounds: int, results: list, seed_list: Sequence[int]
) -> list[dict]:
    sep_ok = sum(1 for sep, _ in results if sep)
    all_ok = sum(1 for _, both in results if both)
    return [
        {
            "n": params.n,
            "rounds": rounds + 1,
            "runs": len(seed_list),
            "separation_ok": sep_ok,
            "separation_and_agreement_ok": all_ok,
            "distinct_bound_d": 4.0,
            "same_bounds_d": (6.0, 2 * params.delta_rmv / params.d - 3.0),
        }
    ]


@experiment(
    "e8",
    title="E8: separation across recurrent agreements",
    defaults={"n": 7, "rounds": 3, "seeds": range(5)},
)
def _e8_groups(n: int = 7, rounds: int = 3) -> list[ScenarioGroup]:
    """Recurrent initiations (distinct and repeated values): IA-4 bounds."""
    params = _params(n)
    return [
        ScenarioGroup(
            seed_fn=partial(_e8_seed, params, rounds),
            rows=partial(_e8_rows, params, rounds),
        )
    ]



# ---------------------------------------------------------------------------
# E9 -- Message complexity and scaling
# ---------------------------------------------------------------------------
def _e9_seed(params: ProtocolParams, seed: int) -> tuple:
    # Scaling experiment: rows read net.sent_count and node decisions only,
    # so tracing runs disabled (zero-cost path); rows are bit-identical.
    cluster = Cluster(ScenarioConfig(params=params, seed=seed, trace=False))
    t0 = cluster.sim.now
    base = cluster.net.sent_count
    assert cluster.propose(general=0, value="v")
    cluster.run_for(params.delta_agr + 10 * params.d)
    decs = list(cluster.latest_decision_per_node(0).values())
    return (
        cluster.net.sent_count - base,
        metrics.decision_latencies(decs, t0),
    )


def _e9_rows(params: ProtocolParams, results: list, seed_list: Sequence[int]) -> list[dict]:
    n = params.n
    msg_counts: list[float] = []
    latencies: list[float] = []
    for sent, lats in results:
        msg_counts.append(sent)
        latencies.extend(lats)
    msgs = summarize(msg_counts)
    lat = summarize(latencies)
    return [
        {
            "n": n,
            "f": params.f,
            "messages_mean": msgs.mean if msgs else None,
            "messages_per_n2": msgs.mean / (n * n) if msgs else None,
            "latency_mean_d": lat.mean / params.d if lat else None,
        }
    ]


@experiment(
    "e9",
    title="E9: message complexity and latency vs n",
    defaults={"ns": (4, 7, 10, 13, 16, 19, 22, 25), "seeds": range(3)},
)
def _e9_groups(ns: Sequence[int] = (4, 7, 10, 13, 16, 19, 22, 25)) -> list[ScenarioGroup]:
    """Messages per agreement vs n (expected O(n^2) per phase shape)."""
    return [
        ScenarioGroup(seed_fn=partial(_e9_seed, params), rows=partial(_e9_rows, params))
        for params in map(_params, ns)
    ]



# ---------------------------------------------------------------------------
# E10 -- Classic protocol fails from arbitrary state; ss-Byz-Agree recovers
# ---------------------------------------------------------------------------
def _e10_seed(params: ProtocolParams, seed: int) -> tuple:
    eig = EigCluster(params, seed=seed)
    eig.initiate("V")
    eig.corrupt_mid_run(["A", "B"], at_round=params.f)
    decisions = eig.run_to_completion()
    values = set(decisions.values())
    if len(values) > 1:
        eig_outcome = "split"
    elif values == {"V"}:
        eig_outcome = "clean"
    else:
        eig_outcome = "wrong"

    cluster = Cluster(ScenarioConfig(params=params, seed=seed))
    injector = TransientFaultInjector(
        params, cluster.rng.split("inj"), value_pool=["A", "B", "V"], generals=[0]
    )
    cluster.run_for(5.0 * params.d)
    injector.havoc(cluster.correct_nodes(), cluster.net, garbage_messages=200)
    cluster.run_for(params.delta_stb)
    since = cluster.sim.now
    ss_recovered = False
    if cluster.propose(general=0, value="V"):
        cluster.run_for(params.delta_agr + 10 * params.d)
        if properties.validity(cluster, 0, "V", since_real=since).holds:
            ss_recovered = True
    return eig_outcome, ss_recovered


def _e10_rows(params: ProtocolParams, results: list, seed_list: Sequence[int]) -> list[dict]:
    eig_split = sum(1 for outcome, _ in results if outcome == "split")
    eig_clean = sum(1 for outcome, _ in results if outcome == "clean")
    eig_agree_wrong = sum(1 for outcome, _ in results if outcome == "wrong")
    ss_recovered = sum(1 for _, recovered in results if recovered)
    return [
        {
            "n": params.n,
            "runs": len(seed_list),
            "eig_agreed_on_garbage": eig_agree_wrong,
            "eig_disagreement": eig_split,
            "eig_unaffected": eig_clean,
            "ss_byz_agree_recovered": ss_recovered,
        }
    ]


@experiment(
    "e10",
    title="E10: classic protocol fails from arbitrary state",
    defaults={"n": 7, "seeds": range(10)},
)
def _e10_groups(n: int = 7) -> list[ScenarioGroup]:
    """Same transient-corruption idea on EIG vs ss-Byz-Agree."""
    params = _params(n)
    return [
        ScenarioGroup(
            seed_fn=partial(_e10_seed, params),
            rows=partial(_e10_rows, params),
        )
    ]


