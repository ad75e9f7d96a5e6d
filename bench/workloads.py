"""The five workloads.  Everything here runs inside one worker subprocess.

Each workload drives the program through its public surface only
(``Cluster``/``ScenarioConfig``, ``AsyncioCluster`` + ``ReplicatedLogService``
+ ``OpenLoopWorkload``, ``SocketLogService``) and returns a :class:`Result`:
the metrics, how many operations were attempted and failed, and the list of
output checks that did not hold.  Seeds come in as an argument and feed both
the cluster seed and the arrival schedule; the program only ever sees the
generated inputs.

A workload runs in one of two phases: ``setup`` stops at the instant the
first proposal / first scheduled arrival would happen and reports only how
long that took; ``measure`` runs the full window.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Iterator, Optional

from bench import spec, stats
from bench.tracing import SpanTracer, coverage_problems

from repro.core.params import ProtocolParams, max_faults
from repro.faults.byzantine import (
    EquivocatingGeneralStrategy,
    MirrorParticipantStrategy,
    SelectiveGeneralStrategy,
    StaggeredGeneralStrategy,
    TwoFacedParticipantStrategy,
)
from repro.faults.transient import TransientFaultInjector
from repro.harness import properties
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.net.delivery import UniformDelay


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Output checks that did not hold (empty = correct).
    problems: list[str] = field(default_factory=list)
    #: Sample counts, digests, verdicts: printed, never compared.
    info: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def zero_layers() -> dict[str, float]:
    return {name: 0.0 for name in spec.PER_LAYER}


# ======================================================================
# sim_agree / sim_adversary
# ======================================================================
SIM_RHO = 1e-4
#: Simulated latencies are reported in ms at the service workloads' d.
SIM_MS_PER_D = 100.0
#: Cycles that always run and alone feed the simulated-time metrics, so
#: those are a function of the seed, not of how fast the machine is (about
#: 150 decision latencies and 6 s of work on either workload).
REF_CYCLES = {"sim_agree": 2, "sim_adversary": 8}
GARBAGE_MESSAGES = 300


def _sim_params(n: int) -> ProtocolParams:
    return ProtocolParams(n=n, f=max_faults(n), delta=1.0, rho=SIM_RHO)


@dataclass
class Outcome:
    violated: list[str]
    #: Decision latencies of correct nodes, in units of d (None: not timed).
    latencies_d: Optional[list[float]] = None
    garbage: int = 0


def _violations(*reports) -> list[str]:
    return [report.name for report in reports if not report.holds]


class Scenario:
    """One seeded sim run: ``build`` the cluster, then ``run`` and judge it."""

    def __init__(self, kind: str, n: int, seed: int) -> None:
        self.label = f"{kind}/n={n}/seed={seed}"
        self.n = n
        self.params = _sim_params(n)
        self.seed = seed

    def byzantine(self) -> dict:
        return {}

    def build(self, traced: bool) -> Cluster:
        return Cluster(
            ScenarioConfig(
                params=self.params,
                seed=self.seed,
                byzantine=self.byzantine(),
                trace=traced,
            )
        )


class AgreeScenario(Scenario):
    """E9 shape: a correct General, no faults, one agreement."""

    def __init__(self, n: int, seed: int) -> None:
        super().__init__("agree", n, seed)

    def run(self, cluster: Cluster, traced: bool) -> Outcome:
        p = self.params
        t0 = cluster.sim.now
        proposed = cluster.propose(general=0, value="v")
        cluster.run_for(p.delta_agr + 10 * p.d)
        violated = _violations(
            properties.agreement(cluster, 0),
            properties.validity(cluster, 0, "v"),
            properties.timeliness_validity(cluster, 0, t0),
            properties.timeliness_agreement(cluster, 0, validity_held=True),
        )
        if traced:  # termination reads the I-accept events of the Tracer
            violated += _violations(properties.termination(cluster, 0))
        if not proposed:
            violated.append("proposal_refused")
        latest = cluster.latest_decision_per_node(0)
        return Outcome(
            violated, [(d.returned_real - t0) / p.d for d in latest.values()]
        )


def _casts(n: int, params: ProtocolParams) -> dict[str, dict]:
    """The E2 casts: Byzantine Generals with and without accomplices."""
    others = tuple(range(1, n))
    half = len(others) // 2
    left, right = others[:half], others[half:]
    return {
        "equivocate": {0: EquivocatingGeneralStrategy("A", "B", left, right)},
        "equivocate+twofaced": {
            0: EquivocatingGeneralStrategy("A", "B", left, right),
            n - 1: TwoFacedParticipantStrategy(left),
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


class CastScenario(Scenario):
    """E2 shape: a Byzantine General; the correct nodes must still agree."""

    def __init__(self, n: int, cast: str, seed: int) -> None:
        super().__init__(f"cast/{cast}", n, seed)
        self.cast = cast

    def byzantine(self) -> dict:
        return _casts(self.n, self.params)[self.cast]

    def run(self, cluster: Cluster, traced: bool) -> Outcome:
        cluster.run_for(3 * self.params.delta_agr)
        violated = _violations(
            properties.agreement(cluster, 0),
            properties.timeliness_agreement(cluster, 0),
        )
        if traced:
            violated += _violations(properties.termination(cluster, 0))
        return Outcome(violated)


class StabilizeScenario(Scenario):
    """E3 shape: havoc everything, wait Delta_stb, demand a clean agreement."""

    def __init__(self, n: int, seed: int) -> None:
        super().__init__("stabilize", n, seed)

    def run(self, cluster: Cluster, traced: bool) -> Outcome:
        p = self.params
        injector = TransientFaultInjector(
            p,
            cluster.rng.split("injector"),
            value_pool=["A", "B", "C"],
            generals=[0, 1],
        )
        cluster.run_for(5.0 * p.d)
        injector.havoc(cluster.correct_nodes(), cluster.net, GARBAGE_MESSAGES)
        cluster.mark_coherent()
        cluster.run_for(p.delta_stb)
        since = t0 = cluster.sim.now
        proposed = cluster.propose(general=0, value="recovered")
        cluster.run_for(p.delta_agr + 10 * p.d)
        violated = _violations(
            properties.agreement(cluster, 0, since_real=since),
            properties.validity(cluster, 0, "recovered", since_real=since),
            properties.timeliness_validity(cluster, 0, t0, since_real=since),
        )
        if not proposed:
            violated.append("proposal_still_blocked")
        latest = cluster.latest_decision_per_node(0, since)
        return Outcome(
            violated,
            [(d.returned_real - t0) / p.d for d in latest.values()],
            garbage=GARBAGE_MESSAGES,
        )


def _sim_cycle(workload: str, seed: int, cycle: int) -> list[Scenario]:
    """One pass over the workload's scenario mix (fixed, so cycles compare)."""
    base = seed * 10_000 + cycle * 100
    if workload == "sim_agree":
        return [AgreeScenario(n, base + n) for n in (13, 25, 37)]
    scenarios: list[Scenario] = []
    for n in (7, 13):
        for k, cast in enumerate(_casts(n, _sim_params(n))):
            scenarios.append(CastScenario(n, cast, base + n + k))
        scenarios.append(StabilizeScenario(n, base + n + 50))
    return scenarios


def _sim_scenarios(workload: str, seed: int) -> Iterator[tuple[int, Scenario]]:
    cycle = 0
    while True:
        for scenario in _sim_cycle(workload, seed, cycle):
            yield cycle, scenario
        cycle += 1


def run_sim(
    workload: str,
    seed: int,
    seconds: float,
    spawned_at: float,
    setup_only: bool,
    tracer: Optional[SpanTracer],
) -> Result:
    traced = tracer is not None
    ref_cycles = REF_CYCLES[workload]
    scenarios = _sim_scenarios(workload, seed)
    cycle, scenario = next(scenarios)
    cluster = scenario.build(traced)
    setup_s = time.time() - spawned_at  # next statement: the first proposal
    if setup_only:
        return Result({"setup_s": setup_s}, 1, 0)

    events = sent = delivered = runs = failed_runs = garbage = 0
    decisions = aborts = watch_fires = 0
    ref_sent = ref_runs = 0
    ref_latencies: list[float] = []
    problems: list[str] = []

    gc.collect()
    gc.disable()
    cpu0 = time.process_time()
    start = time.perf_counter()
    while True:
        if traced:
            tracer.corr = scenario.label
        outcome = scenario.run(cluster, traced)
        runs += 1
        events += cluster.sim.events_executed
        sent += cluster.net.sent_count
        delivered += cluster.net.delivered_count
        garbage += outcome.garbage
        for node in cluster.correct_nodes():
            watch_fires += node.watch_fires()
            for decision in node.decisions:
                if decision.decided:
                    decisions += 1
                else:
                    aborts += 1
        if outcome.violated:
            failed_runs += 1
            problems.append(f"{scenario.label}: {','.join(outcome.violated)}")
        if cycle < ref_cycles:
            ref_runs += 1
            ref_sent += cluster.net.sent_count
            if outcome.latencies_d:
                ref_latencies.extend(outcome.latencies_d)
        next_cycle, scenario = next(scenarios)
        if (
            next_cycle != cycle
            and next_cycle >= ref_cycles
            and time.perf_counter() - start >= seconds
        ):
            break  # only whole cycles count, so the scenario mix is fixed
        cycle = next_cycle
        # Collector off while a scenario runs, one pass between scenarios:
        # collection happens at the same points of every run, and memory
        # does not grow with how many cycles the machine manages.
        del cluster, outcome
        gc.collect()
        cluster = scenario.build(traced)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    gc.enable()

    if not ref_latencies:
        problems.append("no decision latencies in the reference cycles")
        ref_latencies = [0.0]
    info = {
        "runs": runs,
        "cycles": cycle + 1,
        "events": events,
        "wall_s": wall,
        "latency_samples": len(ref_latencies),
        "msgs_per_agreement": ref_sent / ref_runs,
        "rate_for_overhead": events / wall,
    }
    if not traced:
        metrics = {
            "setup_s": setup_s,
            "events_per_s": events / wall,
            "decide_mean_d": sum(ref_latencies) / len(ref_latencies),
            "commit_p50_ms": stats.percentile(ref_latencies, 0.50) * SIM_MS_PER_D,
            "commit_p99_ms": stats.percentile(ref_latencies, 0.99) * SIM_MS_PER_D,
            "cpu_us_per_cmd": cpu * 1e6 / runs,
            "peak_rss_mb": peak_rss_mb(),
        }
        return Result(metrics, runs, failed_runs, problems, info)

    t = tracer
    coverage = coverage_problems(
        t,
        "sim",
        {
            "events executed": (t.units("sim.engine.run_until"), events),
            "copies sent": (
                t.units("net.network.send", "net.network.broadcast"),
                sent,
            ),
        },
    )
    # Corruption replaces message logs, taking their fire counters along, so
    # on sim_adversary the program's count is a lower bound, not an equal.
    fired = t.calls("node.msglog.watch_fire")
    if fired < watch_fires or (workload == "sim_agree" and fired != watch_fires):
        coverage.append(
            f"watch fires: wrappers saw {fired}, program counted {watch_fires}"
        )
    problems += [f"span coverage: {c}" for c in coverage]
    info["span_coverage"] = "green" if not coverage else coverage
    metrics = zero_layers()
    metrics.update({
        "sim.engine.events": events,
        "sim.engine.self_s": t.self_s("sim.engine.run_until"),
        "net.network.deliveries": delivered,
        "net.network.msgs_per_agreement": ref_sent / ref_runs,
        "net.network.self_s": t.self_s("net.network.send", "net.network.broadcast"),
        "net.delivery.decide_s": t.self_s("net.delivery.decide"),
        "faults.transient.havoc_s": t.self_s("faults.transient.havoc"),
        "faults.transient.garbage_injected": garbage,
        "core.agreement.decisions": decisions,
        "core.agreement.aborts": aborts,
        "run.failed_share": stats.failed_share(failed_runs, runs),
        "trace.unattributed_share": max(0.0, cpu - t.attributed_s()) / cpu,
    })
    metrics.update(_core_layers(t, watch_fires))
    return Result(metrics, runs, failed_runs, problems, info)


def _core_layers(t: SpanTracer, watch_fires: int) -> dict[str, float]:
    """Layers every in-process backend shares: message log and evaluators."""
    prunes = ("node.msglog.prune_older_than", "node.msglog.prune_future")
    out = {
        "node.msglog.adds": t.calls("node.msglog.add"),
        "node.msglog.watch_fires": watch_fires,
        "node.msglog.add_s": t.self_s("node.msglog.add"),
        "node.msglog.pruned": t.units(*prunes),
        "node.msglog.prune_s": t.self_s(*prunes),
    }
    for layer, intake in (
        ("core.msgd_broadcast", "on_message"),
        ("core.initiator_accept", "on_message"),
        ("core.agreement", "handle"),
    ):
        out[f"{layer}.msgs"] = t.calls(f"{layer}.{intake}")
        out[f"{layer}.self_s"] = t.self_s(f"{layer}.{intake}")
        if layer != "core.agreement":
            out[f"{layer}.cleanup_s"] = t.self_s(f"{layer}.cleanup")
    # The watch callbacks are msgd-broadcast's; AgreementInstance.cleanup
    # only dispatches to the two primitives' cleanups.
    out["core.msgd_broadcast.self_s"] += t.self_s("node.msglog.watch_fire")
    out["core.agreement.self_s"] += t.self_s("core.agreement.cleanup")
    return out


# ======================================================================
# svc_asyncio_hot / svc_asyncio_fastnet / svc_socket_kill
# ======================================================================
SVC_N, SVC_F = 4, 1
#: Seconds per protocol time unit: d = 100 ms.
TIME_SCALE = 0.1
WINDOW, MAX_BATCH = 8, 128
DRAIN_TIMEOUT_S = 15.0
STARTUP_GRACE_S = 0.35
KILL_VICTIM = 2

#: Injected per-copy delay as (low, high) shares of d; None = the backends'
#: default, UniformDelay(0.05 d, 0.5 d).
INJECTED_DELAY = {
    "svc_asyncio_hot": None,
    "svc_asyncio_fastnet": (0.01, 0.02),
    "svc_socket_kill": None,
}


def _svc_params() -> ProtocolParams:
    return ProtocolParams(n=SVC_N, f=SVC_F, delta=1.0, rho=0.0)


def _latency_metrics(latencies_s: list[float]) -> dict[str, float]:
    d_s = TIME_SCALE * _svc_params().d
    return {
        "decide_mean_d": sum(latencies_s) / len(latencies_s) / d_s,
        "commit_p50_ms": stats.percentile(latencies_s, 0.50) * 1e3,
        "commit_p99_ms": stats.percentile(latencies_s, 0.99) * 1e3,
    }


def _check_log(applied: list, total: int) -> Optional[str]:
    """Every command exactly once, none invented."""
    flat = [cmd for _index, batch in applied for cmd in batch]
    if len(flat) != len(set(flat)):
        return "a command was applied twice"
    if set(flat) - {f"cmd{i}" for i in range(total)}:
        return "a command nobody submitted was applied"
    return None


def _prefix_consistent(logs: list[list]) -> bool:
    longest = max(logs, key=len)
    return all(log == longest[: len(log)] for log in logs)


async def _loop_lag_probe(samples: list[float], interval_s: float = 0.01) -> None:
    """How late the loop runs a 10 ms timer: the stall every node shares."""
    loop = asyncio.get_running_loop()
    while True:
        due = loop.time() + interval_s
        await asyncio.sleep(interval_s)
        samples.append(loop.time() - due)


async def _coordinator_probe(coordinator, samples: list[tuple]) -> None:
    while True:
        samples.append(
            (
                coordinator.backlog,
                coordinator.in_flight,
                coordinator.unretired,
            )
        )
        await asyncio.sleep(0.02)


#: An asyncio run is this many back-to-back sub-runs, each a fresh cluster on
#: a fresh loop with its own derived seed, latencies pooled.  With the default
#: delays a single cluster settles into one of two pipeline phasings for its
#: whole life (commit p50 near 1.8 d or 2.2 d), so one long run reads
#: bimodally; pooling independent sub-runs averages over the phasing.  With
#: near-zero delays the tail of one long run is a handful of sporadic gate
#: stalls (p99 spread 33% over ten seeds); pooled sub-runs read 9%.
SUB_RUNS = 3


@dataclass
class AioPiece:
    """What one sub-run measured (everything additive or poolable)."""

    ready_wall: float
    total: int
    consistent: bool
    problems: list[str]
    elapsed: float
    cpu: float
    report: object
    gen_lag_s: float
    #: Kept (traced run only, they pin the whole cluster in memory) so the
    #: program's own counters are read after the loop has closed: callbacks
    #: still run while asyncio.run() shuts it down.
    transport: object
    nodes: list
    lag_samples: list[float]
    gate_stalls: int
    gate_samples: list[int]


async def _aio_setup(workload: str, seed: int, seconds: float):
    from repro.runtime.aio import AsyncioCluster
    from repro.service import ReplicatedLogService
    from repro.service.workload import OpenLoopWorkload

    rate = spec.OFFERED_RATE[workload]
    delay = INJECTED_DELAY[workload]
    cluster = AsyncioCluster(
        _svc_params(),
        seed=seed,
        time_scale=TIME_SCALE,
        policy=UniformDelay(*delay) if delay else None,
    )
    service = ReplicatedLogService(
        cluster, primary=0, window=WINDOW, max_batch=MAX_BATCH
    )
    service.start()
    # Driven directly (not via run_workload) so the generator's lag and the
    # drain verdict stay visible.
    generator = OpenLoopWorkload(
        service.coordinator.submit,
        rate=rate,
        total=max(1, round(rate * seconds)),
        seed=seed,
    )
    return cluster, service, generator


async def _aio_setup_only(workload: str, seed: int, seconds: float) -> float:
    cluster, service, _generator = await _aio_setup(workload, seed, seconds)
    ready_wall = time.time()  # next: the first scheduled arrival
    await service.stop()
    cluster.close()
    return ready_wall


async def _aio_subrun(
    workload: str, seed: int, seconds: float, traced: bool
) -> AioPiece:
    cluster, service, generator = await _aio_setup(workload, seed, seconds)
    ready_wall = time.time()
    total = generator.total
    probes: list[asyncio.Task] = []
    lag_samples: list[float] = []
    gate_samples: list[tuple] = []
    try:
        if traced:
            loop = asyncio.get_running_loop()
            probes = [
                loop.create_task(_loop_lag_probe(lag_samples)),
                loop.create_task(
                    _coordinator_probe(service.coordinator, gate_samples)
                ),
            ]
        # A cyclic-GC pass mid-run is a loop stall the protocol cannot tell
        # from a network fault (the bench_service.py precedent).
        gc.collect()
        gc.disable()
        cpu0 = time.process_time()
        start = time.monotonic()
        await generator.run()
        drained = await service.drain(DRAIN_TIMEOUT_S)
        elapsed = time.monotonic() - start
        cpu = time.process_time() - cpu0
        for probe in probes:
            probe.cancel()
        await asyncio.gather(*probes, return_exceptions=True)
        service.repair()
        await service.stop()
        report = service.report(elapsed_s=elapsed)
        logs = [applier.applied for applier in service.appliers.values()]
        cap = service.coordinator.unretired_cap
        piece = AioPiece(
            ready_wall=ready_wall,
            total=total,
            consistent=_prefix_consistent(logs),
            problems=[],
            elapsed=elapsed,
            cpu=cpu,
            report=report,
            gen_lag_s=generator.max_lag_s,
            transport=cluster.transport if traced else None,
            nodes=[cluster.protocol_node(i) for i in cluster.correct_ids]
            if traced else [],
            lag_samples=lag_samples,
            gate_stalls=sum(
                1
                for backlog, in_flight, unretired in gate_samples
                if backlog and in_flight < WINDOW and unretired >= cap
            ),
            gate_samples=[sample[0] for sample in gate_samples],
        )
    finally:
        gc.enable()
        for probe in probes:
            probe.cancel()
        cluster.close()

    if not drained:
        piece.problems.append(f"pipeline not drained within {DRAIN_TIMEOUT_S:.0f}s")
    if not report.identical_logs:
        piece.problems.append(f"replica logs differ: digests {report.digests}")
    if report.bound_violations:
        piece.problems.append(
            f"{report.bound_violations} live-state bound violations"
        )
    bad_log = _check_log(max(logs, key=len), total)
    if bad_log:
        piece.problems.append(bad_log)
    return piece


def run_aio(workload, seed, seconds, spawned_at, setup_only, tracer) -> Result:
    if setup_only:
        ready_wall = asyncio.run(
            _aio_setup_only(workload, seed * SUB_RUNS, seconds / SUB_RUNS)
        )
        return Result({"setup_s": ready_wall - spawned_at}, 1, 0)
    pieces = [
        asyncio.run(
            _aio_subrun(
                workload, seed * SUB_RUNS + k, seconds / SUB_RUNS,
                tracer is not None,
            )
        )
        for k in range(SUB_RUNS)
    ]
    setup_s = pieces[0].ready_wall - spawned_at

    total = sum(p.total for p in pieces)
    failed = sum(
        stats.failed_commands(
            p.total, list(p.report.applied_per_replica.values()), p.consistent
        )
        for p in pieces
    )
    served = total - failed
    problems = [
        f"sub-run {k}: {problem}"
        for k, p in enumerate(pieces)
        for problem in p.problems
    ]
    if failed:
        problems.append(f"{failed}/{total} commands not applied at every replica")
    latencies = [lat for p in pieces for lat in p.report.latencies]
    if not latencies:
        return Result({}, total, total, problems + ["no command decided"])

    elapsed = sum(p.elapsed for p in pieces)
    cpu = sum(p.cpu for p in pieces)
    reports = [p.report for p in pieces]
    slots_decided = sum(r.slots_decided for r in reports)
    slots_aborted = sum(r.slots_aborted for r in reports)
    gen_lag_ms = max(p.gen_lag_s for p in pieces) * 1e3
    latency = _latency_metrics(latencies)
    cpu_us_per_cmd = cpu * 1e6 / max(1, served)
    info = {
        "commands": total,
        "sub_runs": SUB_RUNS,
        "latency_samples": len(latencies),
        "slots": slots_decided,
        "slots_aborted": slots_aborted,
        "slo_ok": latency["commit_p99_ms"] <= spec.SLO_P99_MS,
        "gen_lag_max_ms": gen_lag_ms,
        "digests": [sorted(set(r.digests.values())) for r in reports],
        "rate_for_overhead": 1.0 / cpu_us_per_cmd,
    }
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "events_per_s": served / elapsed,
            "cpu_us_per_cmd": cpu_us_per_cmd,
            "peak_rss_mb": peak_rss_mb(),
            **latency,
        }
        return Result(metrics, total, failed, problems, info)

    t = tracer
    transports = [p.transport for p in pieces]
    nodes = [node for p in pieces for node in p.nodes]
    sent = sum(tr.sent_count for tr in transports)
    delivered = sum(tr.delivered_count for tr in transports)
    datagrams = sum(tr.datagrams_sent for tr in transports)
    rejected = sum(tr.rejected_count for tr in transports)
    watch_fires = sum(node.watch_fires() for node in nodes)
    decided = sum(1 for node in nodes for d in node.decisions if d.decided)
    coverage = coverage_problems(
        t,
        "aio",
        {
            "copies sent": (
                t.units("runtime.aio.send", "runtime.aio.broadcast"), sent
            ),
            "frames delivered": (t.units("runtime.aio.deliver"), delivered),
            "datagrams decoded": (
                t.calls("runtime.framing.decode_frames"), datagrams
            ),
            "frames rejected": (
                t.errors("runtime.framing.decode_frames"), rejected
            ),
            "watch fires": (t.calls("node.msglog.watch_fire"), watch_fires),
        },
    )
    problems += [f"span coverage: {c}" for c in coverage]
    info["span_coverage"] = "green" if not coverage else coverage
    encodes = (
        "runtime.framing.encode_body",
        "runtime.framing.frame",
        "runtime.framing.frame_batch",
    )
    lag_samples = [x for p in pieces for x in p.lag_samples]
    backlogs = [x for p in pieces for x in p.gate_samples]
    slots = slots_decided + slots_aborted
    metrics = zero_layers()
    metrics.update(_core_layers(t, watch_fires))
    metrics.update({
        "net.delivery.decide_s": t.self_s("net.delivery.decide"),
        "core.agreement.decisions": decided,
        "core.agreement.aborts": sum(len(node.decisions) for node in nodes) - decided,
        "runtime.framing.encodes": t.calls(*encodes),
        "runtime.framing.encode_s": t.self_s(*encodes),
        "runtime.framing.decodes": t.calls("runtime.framing.decode_frames"),
        "runtime.framing.decode_s": t.self_s("runtime.framing.decode_frames"),
        "runtime.framing.bytes_per_cmd": t.units(
            "runtime.framing.frame", "runtime.framing.frame_batch"
        ) / max(1, served),
        "runtime.framing.msgs_per_datagram": delivered / max(1, datagrams),
        "runtime.framing.rejected": rejected,
        "runtime.aio.sent_count": sent,
        "runtime.aio.datagrams_sent": datagrams,
        "runtime.aio.deliver_s": t.self_s("runtime.aio.deliver"),
        "runtime.aio.flush_s": t.self_s("runtime.aio.flush", "runtime.aio.enqueue"),
        "runtime.aio.loop_lag_p99_ms": stats.percentile(lag_samples, 0.99) * 1e3
        if lag_samples else 0.0,
        "runtime.aio.gen_lag_max_ms": gen_lag_ms,
        "service.coordinator.slots": slots,
        "service.coordinator.batch_mean": sum(r.commands_decided for r in reports)
        / max(1, slots_decided),
        "service.coordinator.aborted": slots_aborted,
        "service.coordinator.backlog_p99": stats.percentile(backlogs, 0.99)
        if backlogs else 0.0,
        "service.coordinator.gate_stall_share": sum(p.gate_stalls for p in pieces)
        / max(1, len(backlogs)),
        "service.coordinator.cpu_ms_per_slot": cpu * 1e3 / max(1, slots),
        "service.applier.applied": served,
        "service.applier.peak_live_instances": max(
            r.peak_live_instances for r in reports
        ),
        "service.applier.peak_live_timers": max(r.peak_live_timers for r in reports),
        "service.applier.bound_violations": sum(r.bound_violations for r in reports),
        "service.applier.adopted": sum(r.repaired_entries for r in reports),
        "run.failed_share": stats.failed_share(failed, total),
        "trace.unattributed_share": max(0.0, cpu - t.attributed_s()) / cpu,
    })
    return Result(metrics, total, failed, problems, info)


# ----------------------------------------------------------------------
# svc_socket_kill: the children are separate interpreters
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _proc_cpu_s(pid: Optional[int]) -> Optional[float]:
    """utime + stime of a live process, from /proc/<pid>/stat."""
    if pid is None:
        return None
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


_SCRAPED = {
    "repro_datagrams_sent_total": "datagrams",
    "repro_frames_rejected_total": "rejected",
    "repro_frames_authenticated_total": "authenticated",
    "repro_watch_fires_total": "watch_fires",
    "repro_decisions_total": "decisions",
}


class SocketWatcher(threading.Thread):
    """Watches a socket service from a side thread, through public reads only.

    Always: polls ``status_snapshot()["started"]`` every 5 ms to stamp the
    end of set-up (children spawned, addresses brokered), and reads each
    child's CPU there so start-up cost stays out of the window.  In the
    traced run it keeps going: every 50 ms the supervision status, apply
    progress and ``/proc`` CPU of every child, every 0.5 s each child's
    ``/metrics``.
    """

    def __init__(self, service, traced: bool) -> None:
        super().__init__(name="bench-socket-watcher", daemon=True)
        self.service = service
        self.traced = traced
        self.started_wall: Optional[float] = None
        self.startup_cpu_s = 0.0
        #: pid -> (node id, last CPU reading)
        self.child_cpu: dict[int, tuple[int, float]] = {}
        #: (node id, incarnation) -> last scraped counters
        self.scraped: dict[tuple[int, int], dict[str, float]] = {}
        self.killed_at: Optional[float] = None
        self.respawned_at: Optional[float] = None
        self.caught_up_at: Optional[float] = None
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    def _read_cpus(self) -> None:
        for node_id, proc in list(self.service.procs.items()):
            cpu = _proc_cpu_s(proc.pid)
            if cpu is not None:
                self.child_cpu[proc.pid] = (node_id, cpu)

    def run(self) -> None:
        service = self.service
        while not self._halt.is_set():
            if service.status_snapshot()["started"]:
                self.started_wall = time.time()
                self._read_cpus()
                self.startup_cpu_s = sum(c for _n, c in self.child_cpu.values())
                break
            time.sleep(0.005)
        if not self.traced:
            return
        next_scrape = 0.0
        while not self._halt.is_set():
            now = time.monotonic()
            status = service.status_snapshot()
            self._read_cpus()
            self._track_victim(status, now)
            if now >= next_scrape:
                next_scrape = now + 0.5
                self._scrape(status)
            time.sleep(0.05)

    def _track_victim(self, status: dict, now: float) -> None:
        node = status["nodes"][str(KILL_VICTIM)]
        if self.killed_at is None:
            if not node["alive"] or node["restarts"]:
                self.killed_at = now
        if self.killed_at is not None and self.respawned_at is None:
            if node["alive"] and node["restarts"]:
                self.respawned_at = now
        if self.respawned_at is not None and self.caught_up_at is None:
            progress = status.get("service", {}).get("progress", {})
            mine = progress.get(str(KILL_VICTIM))
            peers = [p["applied"] for n, p in progress.items()
                     if n != str(KILL_VICTIM)]
            if mine and peers and mine["applied"] >= min(peers):
                self.caught_up_at = now

    def _scrape(self, status: dict) -> None:
        for node_id, node in status["nodes"].items():
            url = node.get("metrics_url")
            if not url or not node["alive"]:
                continue
            try:
                with urllib.request.urlopen(url, timeout=0.5) as reply:
                    text = reply.read().decode()
            except OSError:
                continue  # mid-respawn; the next round gets it
            counters: dict[str, float] = {}
            for line in text.splitlines():
                series = line.split("{", 1)[0]
                if series in _SCRAPED:
                    counters[_SCRAPED[series]] = float(line.rsplit(" ", 1)[1])
            self.scraped[(int(node_id), node["incarnation"])] = counters

    def scraped_total(self, key: str) -> float:
        return sum(c.get(key, 0.0) for c in self.scraped.values())

    def node_cpu_s(self, node_id: int) -> float:
        return sum(c for n, c in self.child_cpu.values() if n == node_id)


def run_socket(workload, seed, seconds, spawned_at, setup_only, traced) -> Result:
    from repro.service.socket_service import SocketLogService

    rate = spec.OFFERED_RATE[workload]
    params = _svc_params()
    total = 1 if setup_only else max(1, round(rate * seconds))
    service = SocketLogService(
        params,
        primary=0,
        window=WINDOW,
        max_batch=MAX_BATCH,
        seed=seed,
        time_scale=TIME_SCALE,
        # Children exit at this protocol time whatever the parent does.
        timeout_units=(2.0 * seconds + 60.0) / TIME_SCALE,
        startup_grace_s=STARTUP_GRACE_S,
        supervise=True,
        metrics=traced and not setup_only,
    )
    watcher = SocketWatcher(service, traced and not setup_only)
    watcher.start()
    try:
        if not setup_only:
            # SIGKILL of a non-primary replica one third into the schedule
            # (offsets of an injected script count from injection, in d).
            kill_after_s = STARTUP_GRACE_S + seconds / 3.0
            service.inject_fault_script([{
                "at_d": kill_after_s / (TIME_SCALE * params.d),
                "do": "crash",
                "nodes": [KILL_VICTIM],
                "state_loss": True,
            }])
            gc.collect()
            gc.disable()
        own_cpu0 = time.process_time()
        report = service.run_workload(
            rate=rate, total=total, seed=seed,
            settle_timeout_s=DRAIN_TIMEOUT_S,
        )
    finally:
        gc.enable()
        watcher.stop()
        status = service.status_snapshot()
        service.close()
    if watcher.started_wall is None:
        return Result({}, total, total, ["children never started"])
    # The first arrival is scheduled at the cluster epoch: one start-up
    # grace after the address book went out.
    setup_s = watcher.started_wall + STARTUP_GRACE_S - spawned_at
    if setup_only:
        return Result({"setup_s": setup_s}, 1, 0)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    children_cpu = usage.ru_utime + usage.ru_stime - watcher.startup_cpu_s
    cpu = children_cpu + time.process_time() - own_cpu0
    applied = list(report.applied_per_replica.values())
    # Only digests cross the process boundary: equal digests prove identical
    # logs; unequal digests with unequal lengths are read as a replica that
    # lags (the run still fails its check), with equal lengths as divergence.
    consistent = len(report.digests) == params.n and (
        report.identical_logs or len(set(applied)) > 1
    )
    failed = stats.failed_commands(total, applied, consistent)
    served = total - failed
    problems = []
    if not report.identical_logs:
        problems.append(f"replica logs differ: digests {report.digests}")
    if failed:
        problems.append(f"{failed}/{total} commands not applied at every replica")
    if report.exit_reasons.get(KILL_VICTIM) != "signal:9":
        problems.append(f"victim was not killed: {report.exit_reasons}")
    if problems:
        _dump_failure(workload, status, report, problems)
    if not report.latencies:
        return Result({}, total, total, problems + ["no command decided"])

    latency = _latency_metrics(report.latencies)
    cpu_us_per_cmd = cpu * 1e6 / max(1, served)
    info = {
        "commands": total,
        "latency_samples": len(report.latencies),
        "slots": report.slots_decided,
        "slots_aborted": report.slots_aborted,
        "slo_ok": latency["commit_p99_ms"] <= spec.SLO_P99_MS,
        "repaired_entries": report.repaired_entries,
        "exit_reasons": report.exit_reasons,
        "digest": sorted(set(report.digests.values())),
        "rate_for_overhead": 1.0 / cpu_us_per_cmd,
    }
    if not traced:
        metrics = {
            "setup_s": setup_s,
            "events_per_s": served / report.elapsed_s,
            "cpu_us_per_cmd": cpu_us_per_cmd,
            "peak_rss_mb": peak_rss_mb(),
            **latency,
        }
        return Result(metrics, total, failed, problems, info)

    w = watcher
    coverage = []
    if len(w.scraped) < params.n + 1:
        coverage.append(
            f"/metrics scraped from {len(w.scraped)} incarnations, "
            f"expected {params.n + 1}"
        )
    if not w.scraped_total("datagrams"):
        coverage.append("scraped datagram counters are all zero")
    if w.respawned_at is None:
        coverage.append("respawn of the victim never observed")
    problems += [f"span coverage: {c}" for c in coverage]
    info["span_coverage"] = "green" if not coverage else coverage
    replicas = [i for i in range(params.n) if i != 0]
    sampled_cpu = sum(c for _n, c in w.child_cpu.values()) - w.startup_cpu_s
    slots = report.slots_decided + report.slots_aborted
    metrics = zero_layers()
    metrics.update({
        "node.msglog.watch_fires": w.scraped_total("watch_fires"),
        "core.agreement.decisions": w.scraped_total("decisions"),
        "core.agreement.aborts": report.slots_aborted * params.n,
        "runtime.framing.msgs_per_datagram": w.scraped_total("authenticated")
        / max(1.0, w.scraped_total("datagrams")),
        "runtime.framing.rejected": w.scraped_total("rejected"),
        "service.coordinator.slots": slots,
        "service.coordinator.batch_mean": report.commands_decided
        / max(1, report.slots_decided),
        "service.coordinator.aborted": report.slots_aborted,
        "service.coordinator.cpu_ms_per_slot": cpu * 1e3 / max(1, slots),
        "service.applier.applied": min(applied) if applied else 0,
        "service.applier.peak_live_instances": report.peak_live_instances,
        "service.applier.peak_live_timers": report.peak_live_timers,
        "service.applier.adopted": report.repaired_entries,
        "runtime.socket_host.datagrams_sent": w.scraped_total("datagrams"),
        "runtime.socket_host.rejected": w.scraped_total("rejected"),
        "runtime.socket_host.child_cpu_s.primary": w.node_cpu_s(0),
        "runtime.socket_host.child_cpu_s.replica_mean": sum(
            w.node_cpu_s(i) for i in replicas
        ) / len(replicas),
        "runtime.socket_host.respawn_s": (w.respawned_at - w.killed_at)
        if w.respawned_at is not None else 0.0,
        "service.socket_service.catchup_s": (w.caught_up_at - w.respawned_at)
        if w.caught_up_at is not None else 0.0,
        "service.socket_service.repaired_entries": report.repaired_entries,
        "run.failed_share": stats.failed_share(failed, total),
        # Here: the share of all CPU spent that /proc sampling did not pin
        # on a child (the parent's pumps, and the tail after the last read).
        "trace.unattributed_share": max(0.0, cpu - sampled_cpu) / cpu,
    })
    return Result(metrics, total, failed, problems, info)


def _dump_failure(workload: str, status: dict, report, problems: list[str]) -> None:
    """Keep what a later correctness issue needs to look at a bad run."""
    spec.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (spec.OUT_DIR / f"{workload}.failure.json").write_text(json.dumps({
        "problems": problems,
        "status_snapshot": status,
        "applied_per_replica": report.applied_per_replica,
        "digests": report.digests,
        "exit_reasons": report.exit_reasons,
        "repaired_entries": report.repaired_entries,
        "commands_issued": report.commands_issued,
    }, indent=2, default=str) + "\n")


def run(workload, seed, seconds, spawned_at, setup_only, tracer) -> Result:
    if workload.startswith("sim_"):
        return run_sim(workload, seed, seconds, spawned_at, setup_only, tracer)
    if workload == "svc_socket_kill":
        return run_socket(
            workload, seed, seconds, spawned_at, setup_only, tracer is not None
        )
    return run_aio(workload, seed, seconds, spawned_at, setup_only, tracer)
