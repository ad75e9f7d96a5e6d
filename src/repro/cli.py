"""Command-line interface.

Subcommands::

    python -m repro.cli constants --n 7 --f 2 --delta 1.0
        Print the derived timing constants for a configuration.

    python -m repro.cli run --n 7 --f 2 --seed 3 [--attack equivocate]
        Run one agreement scenario and print per-node outcomes plus the
        property-checker verdicts.  With ``--seeds 0 1 2 ... --workers K``
        the per-seed runs fan out over a process pool and one verdict line
        per seed plus a summary is printed instead.  One seed or many, the
        scenario runs through the experiment engine
        (:func:`repro.harness.registry.run_experiment`).

    python -m repro.cli run-async --n 4 --f 1
        Run one agreement on the **asyncio runtime backend**: real
        coroutines, wall-clock-scaled timers, in-process transport -- the
        same protocol code the simulator drives, hosted sans-I/O.  By
        default one participant is a mirror-amplifying Byzantine sender.

    python -m repro.cli run-socket --n 4 --f 1
        Run one agreement on the **socket runtime backend**: one OS process
        per node, real UDP datagrams on localhost, authenticated frames,
        wall-clock timers.  Same default Byzantine cast as ``run-async``;
        exits non-zero if any child leaks a timer or fails to exit cleanly.

    python -m repro.cli chaos --n 4 --f 1
        The paper's self-stabilization claim as a live demo: run the socket
        backend under supervision, SIGKILL ``f`` nodes mid-agreement (full
        state loss), let the supervisor respawn them with *scrambled*
        state, and verify every node -- revenants included -- converges to
        the agreed value within a recovery bound.  Exits non-zero unless
        agreement, convergence, recovery, and a clean teardown all hold.

    python -m repro.cli stabilize --n 7 --seed 5
        Run experiment E3's havoc -> Delta_stb -> agree scenario (the
        registered per-seed body, through the same engine as ``run``) and
        report recovery.  Also accepts ``--seeds``/``--workers``.

    python -m repro.cli serve --backend asyncio --commands 10000 --rate 1000
        Run the replicated command-log service: pipelined slot-indexed
        agreement under a sustained open-loop workload, on the asyncio or
        socket backend.  Prints the offered vs achieved rate, agreement
        instances/s, the per-command decide-latency percentiles and the
        live-state peaks, and exits non-zero unless every correct replica
        applied the identical command sequence.

    python -m repro.cli suite --preset smoke [--config suite.json]
        Expand a scenario-matrix suite config (grids over n, casts,
        delivery policies and fault timelines), fan scenario x seed over
        the pool, and print the consolidated report.

    python -m repro.cli list-experiments
        List every experiment registered with the scenario engine.

Importing this module loads no simulator, fault or harness code: the sim
commands import it when they run.  Under ``python -m repro.cli`` the
socket backend's spawn children re-import this module before they report
their ports, so its module-level imports stay on their critical path.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Optional, Sequence

from repro.core.params import BOTTOM, ProtocolParams, max_faults

ATTACKS = ("none", "equivocate", "staggered", "selective", "crash")
ASYNC_ATTACKS = ("none", "mirror", "twofaced", "crash")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-stabilizing Byzantine Agreement (Daliot & Dolev, PODC 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(
        p: argparse.ArgumentParser, n: int = 7, rho: float = 1e-4
    ) -> None:
        """The paper's model.  ``chaos`` and the service commands pass n=4,
        rho=0: their wall clocks share one epoch."""
        p.add_argument("--n", type=int, default=n, help=f"number of nodes (default: {n})")
        p.add_argument("--f", type=int, default=None, help="fault bound (default: max for n)")
        p.add_argument("--delta", type=float, default=1.0, help="message delay bound")
        p.add_argument(
            "--rho", type=float, default=rho, help=f"clock drift bound (default: {rho})"
        )

    def add_fanout_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--seeds",
            type=int,
            nargs="+",
            default=None,
            help="run these seeds (fanned out over --workers) and summarize",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="process-pool size for per-seed fan-out (default: serial)",
        )

    constants = sub.add_parser("constants", help="print derived timing constants")
    add_model_args(constants)

    run = sub.add_parser("run", help="run one agreement scenario")
    add_model_args(run)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--value", default="v", help="the General's value")
    run.add_argument("--general", type=int, default=0)
    run.add_argument("--attack", choices=ATTACKS, default="none")
    add_fanout_args(run)

    def add_wallclock_args(
        p: argparse.ArgumentParser, time_scale: float, attack: bool = True
    ) -> None:
        """One agreement on a wall-clock backend: who proposes what, against
        which cast, at what speed."""
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--value", default="v", help="the General's value")
        p.add_argument("--general", type=int, default=0)
        if attack:
            p.add_argument(
                "--attack", choices=ASYNC_ATTACKS, default="mirror",
                help="byzantine cast (default: one mirror-amplifying participant)",
            )
        p.add_argument(
            "--time-scale",
            type=float,
            default=time_scale,
            help="wall-clock seconds per protocol time unit "
            f"(default: {time_scale})",
        )

    run_async = sub.add_parser(
        "run-async",
        help="run one agreement on the asyncio runtime backend (real coroutines)",
    )
    add_model_args(run_async)
    add_wallclock_args(run_async, time_scale=0.02)

    run_socket = sub.add_parser(
        "run-socket",
        help="run one agreement on the socket runtime backend "
        "(UDP datagrams, one OS process per node)",
    )
    add_model_args(run_socket)
    add_wallclock_args(run_socket, time_scale=0.05)
    run_socket.add_argument(
        "--timeout-units",
        type=float,
        default=None,
        help="hard per-child deadline in protocol units (default: 3 * Delta_agr)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="SIGKILL f socket-backend nodes mid-agreement and verify the "
        "supervisor heals them into re-convergence",
    )
    add_model_args(chaos, n=4, rho=0.0)
    add_wallclock_args(chaos, time_scale=0.02, attack=False)
    chaos.add_argument(
        "--kill-at-d",
        type=float,
        default=1.0,
        help="first SIGKILL fires this many d after the epoch (default: 1.0; "
        "further victims are staggered 1d apart)",
    )
    chaos.add_argument(
        "--victims",
        type=int,
        nargs="+",
        default=None,
        help="node ids to kill (default: the f highest non-General ids)",
    )
    chaos.add_argument(
        "--recovery-bound-d",
        type=float,
        default=None,
        help="max allowed victim decision latency after its kill, in units "
        "of d (default: (Delta_v + 2*Delta_agr)/d)",
    )
    chaos.add_argument(
        "--timeout-units",
        type=float,
        default=None,
        help="hard per-child deadline in protocol units "
        "(default: kill time + Delta_v + 3*Delta_agr)",
    )
    chaos.add_argument(
        "--restart-backoff-s",
        type=float,
        default=0.1,
        help="supervisor base backoff before a respawn (default: 0.1s)",
    )
    chaos.add_argument("--trace", action="store_true", help="record child traces")

    def add_service_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend",
            choices=("asyncio", "socket"),
            default="asyncio",
            help="wall-clock runtime hosting the replicas (default: asyncio)",
        )
        add_model_args(p, n=4, rho=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--primary", type=int, default=0,
            help="node hosting the log coordinator (default: 0)",
        )
        p.add_argument(
            "--rate", type=float, default=1000.0,
            help="open-loop arrival rate, commands/s (default: 1000)",
        )
        p.add_argument(
            "--commands", type=int, default=10_000,
            help="total commands to issue (default: 10000)",
        )
        p.add_argument(
            "--window", type=int, default=8,
            help="max agreement slots in flight (default: 8)",
        )
        p.add_argument(
            "--batch", type=int, default=128,
            help="max commands batched into one slot (default: 128)",
        )
        p.add_argument(
            "--time-scale", type=float, default=0.1,
            help="wall-clock seconds per protocol time unit (default: 0.1; "
            "d must outlast scheduler stalls under load)",
        )
        p.add_argument(
            "--fixed", action="store_true",
            help="fixed-interval arrivals (default: Poisson process)",
        )
        p.add_argument(
            "--metrics", action="store_true",
            help="expose Prometheus /metrics per node plus a cluster-wide "
            "/status + POST /faults control endpoint (printed as "
            "'control: http://...' on startup)",
        )
        p.add_argument(
            "--control-port", type=int, default=0,
            help="TCP port for the control endpoint (default: 0 = ephemeral)",
        )
        p.add_argument(
            "--supervise", action="store_true",
            help="socket backend: respawn children that die mid-run; a "
            "revenant heals its log from f+1 peer answers (the live "
            "self-stabilization demo)",
        )

    serve = sub.add_parser(
        "serve",
        help="run the replicated command-log service under an open-loop "
        "workload and print its report",
    )
    add_service_args(serve)

    stab = sub.add_parser("stabilize", help="havoc -> wait Delta_stb -> agree")
    add_model_args(stab)
    stab.add_argument("--seed", type=int, default=0)
    stab.add_argument("--garbage", type=int, default=300, help="forged messages")
    add_fanout_args(stab)

    suite = sub.add_parser(
        "suite", help="run a scenario-matrix suite (grids x timelines x seeds)"
    )
    suite.add_argument(
        "--preset",
        default=None,
        help="named suite config (see repro.harness.suite.SUITE_PRESETS)",
    )
    suite.add_argument("--config", default=None, help="path to a JSON suite config")
    suite.add_argument("--csv", action="store_true", help="emit CSV instead of Markdown")
    add_fanout_args(suite)

    sub.add_parser("list-experiments", help="list registered experiments")
    return parser


def _params(args: argparse.Namespace) -> ProtocolParams:
    f = args.f if args.f is not None else max_faults(args.n)
    return ProtocolParams(n=args.n, f=f, delta=args.delta, rho=args.rho)


def cmd_constants(args: argparse.Namespace) -> int:
    params = _params(args)
    for name, value in params.describe().items():
        print(f"{name:12s} = {value}")
    return 0


def _general_out_of_range(command: str, general: int, params: ProtocolParams) -> bool:
    """Report a ``--general`` that names no node (the caller exits 2)."""
    if 0 <= general < params.n:
        return False
    print(f"{command}: --general {general} out of range for n={params.n}",
          file=sys.stderr)
    return True


# ---------------------------------------------------------------------------
# Sim commands: one scenario over ``--seed``, or over ``--seeds`` fanned out
# across ``--workers``, run as a one-group experiment by the engine.  The
# per-seed bodies are module level so they pickle into pool workers, and
# they import the sim stack themselves (see the module docstring).
# ---------------------------------------------------------------------------
def _attack_strategies(
    attack: str, general: int, params: ProtocolParams
) -> dict:
    from repro.faults.byzantine import (
        CrashStrategy,
        EquivocatingGeneralStrategy,
        SelectiveGeneralStrategy,
        StaggeredGeneralStrategy,
    )

    others = tuple(i for i in range(params.n) if i != general)
    half = len(others) // 2
    if attack == "none":
        return {}
    if attack == "equivocate":
        return {
            general: EquivocatingGeneralStrategy(
                "A", "B", others[:half], others[half:]
            )
        }
    if attack == "staggered":
        return {general: StaggeredGeneralStrategy("S", spread_local=10 * params.d)}
    if attack == "selective":
        return {general: SelectiveGeneralStrategy("X", others[: len(others) - 1])}
    if attack == "crash":
        return {general: CrashStrategy()}
    raise AssertionError(attack)


def _run_seed(
    params: ProtocolParams, attack: str, general: int, value: str, seed: int
) -> tuple:
    """One `run` scenario: (per-node outcomes, verdicts, decided nodes)."""
    from repro.harness import properties
    from repro.harness.scenario import Cluster, ScenarioConfig

    byzantine = _attack_strategies(attack, general, params)
    cluster = Cluster(ScenarioConfig(params=params, seed=seed, byzantine=byzantine))
    t0 = cluster.sim.now
    if attack == "none":
        cluster.propose(general=general, value=value)
    cluster.run_for(3 * params.delta_agr)
    verdicts = {"agreement": properties.agreement(cluster, general).holds}
    if attack == "none":
        verdicts["validity"] = properties.validity(cluster, general, value).holds
        verdicts["timeliness"] = properties.timeliness_validity(
            cluster, general, t0
        ).holds
    latest = cluster.latest_decision_per_node(general)
    nodes = [
        (node_id, "ABORT" if dec.value is BOTTOM else repr(dec.value),
         dec.returned_real)
        for node_id, dec in sorted(latest.items())
    ]
    return nodes, verdicts, sum(1 for dec in latest.values() if dec.decided)


def _seed_results(args: argparse.Namespace, seed_fn) -> list[tuple]:
    """``seed_fn`` over the command's seeds: (seed, result) in seed order."""
    from repro.harness.registry import ExperimentSpec, ScenarioGroup, run_experiment

    group = ScenarioGroup(seed_fn, lambda results, seeds: list(zip(seeds, results)))
    spec = ExperimentSpec(args.command, title=args.command, groups=lambda: [group])
    seeds = [args.seed] if args.seeds is None else args.seeds
    return run_experiment(spec, seeds=seeds, workers=args.workers)


def _seeds_report(lines: list[tuple[int, dict, str]], all_good: str) -> int:
    """The ``--seeds`` report: a line per (seed, verdicts, suffix), then a
    summary; every verdict must hold."""
    for seed, verdicts, suffix in lines:
        shown = " ".join(f"{name}={held}" for name, held in verdicts.items())
        print(f"seed {seed}: {shown}{suffix}")
    ok = all(all(verdicts.values()) for _, verdicts, _ in lines)
    print(f"{len(lines)} seeds: {all_good if ok else 'FAILURES'}")
    return 0 if ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    params = _params(args)
    if _general_out_of_range("run", args.general, params):
        return 2
    results = _seed_results(
        args, partial(_run_seed, params, args.attack, args.general, args.value)
    )
    if args.seeds is not None:
        return _seeds_report([
            (seed, verdicts, f" decided_nodes={decided}")
            for seed, (_, verdicts, decided) in results
        ], "all ok")

    [(_, (nodes, verdicts, _))] = results
    if not nodes:
        print("no correct node returned anything")
    for node_id, outcome, returned_real in nodes:
        print(f"node {node_id}: {outcome} at rt={returned_real:.2f}")
    print(f"agreement: {verdicts['agreement']}")
    if "validity" in verdicts:
        print(f"validity:  {verdicts['validity']}")
        print(f"timeliness: {verdicts['timeliness']}")
    return 0 if all(verdicts.values()) else 1


def _wallclock_attack_cast(
    command: str, attack: str, general: int, params: ProtocolParams
) -> Optional[tuple[Optional[int], dict]]:
    """(Byzantine id, cast) for the wall-clock backends; ``None`` after
    reporting an unusable configuration (the caller exits 2)."""
    from repro.faults.byzantine import (
        CrashStrategy,
        MirrorParticipantStrategy,
        TwoFacedParticipantStrategy,
    )

    if _general_out_of_range(command, general, params):
        return None
    byz_id: Optional[int] = None
    if attack != "none":
        others = tuple(i for i in range(params.n) if i != general)
        if not others:
            print(f"{command}: no non-General node left to play the Byzantine "
                  "sender; use --attack none", file=sys.stderr)
            return None
        byz_id = others[-1]  # highest non-General id plays the Byzantine sender
    if attack == "none":
        byzantine = {}
    elif attack == "mirror":
        byzantine = {byz_id: MirrorParticipantStrategy()}
    elif attack == "twofaced":
        half = [i for i in range(params.n) if i != byz_id][: params.n // 2]
        byzantine = {byz_id: TwoFacedParticipantStrategy(tuple(half))}
    elif attack == "crash":
        byzantine = {byz_id: CrashStrategy()}
    else:
        raise AssertionError(attack)
    return byz_id, byzantine


def _wallclock_verdict(
    decisions: dict,
    correct: list,
    byz_id: Optional[int],
    attack: str,
    value: str,
    transport_line: str,
) -> bool:
    """Shared report tail for the wall-clock backends: print per-node
    outcomes and the agreement/decided verdicts; True iff the run is good."""
    if byz_id is not None:
        print(f"byzantine node {byz_id}: {attack}")
    for node_id in correct:
        dec = decisions.get(node_id)
        if dec is None:
            print(f"node {node_id}: (no return within timeout)")
        else:
            outcome = "ABORT" if dec.value is BOTTOM else repr(dec.value)
            print(f"node {node_id}: {outcome} at local={dec.returned_local:.2f}")
    print(transport_line)
    decided = [d for d in decisions.values() if d.decided]
    agreement = (
        len(decisions) == len(correct)
        and len({repr(d.value) for d in decisions.values()}) <= 1
    )
    all_decided_value = bool(decided) and all(d.value == value for d in decided)
    print(f"agreement: {agreement}")
    print(f"decided:   {len(decided)}/{len(correct)} nodes")
    return agreement and all_decided_value


def cmd_run_async(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runtime.aio import run_agreement_async

    params = _params(args)
    general = args.general
    cast = _wallclock_attack_cast("run-async", args.attack, general, params)
    if cast is None:
        return 2
    byz_id, byzantine = cast

    cluster, decisions = asyncio.run(
        run_agreement_async(
            n=params.n,
            f=params.f,
            seed=args.seed,
            value=args.value,
            general=general,
            byzantine=byzantine,
            time_scale=args.time_scale,
            delta=args.delta,
            rho=args.rho,
        )
    )

    ok = _wallclock_verdict(
        decisions,
        sorted(cluster.correct_ids),
        byz_id if byzantine else None,
        args.attack,
        args.value,
        f"transport: {cluster.transport.sent_count} sent, "
        f"{cluster.transport.delivered_count} delivered "
        f"(time_scale={args.time_scale}s/unit)",
    )
    return 0 if ok else 1


def cmd_run_socket(args: argparse.Namespace) -> int:
    from repro.runtime.socket_host import run_agreement_socket

    params = _params(args)
    general = args.general
    cast = _wallclock_attack_cast("run-socket", args.attack, general, params)
    if cast is None:
        return 2
    byz_id, byzantine = cast

    report, decisions = run_agreement_socket(
        n=params.n,
        f=params.f,
        seed=args.seed,
        value=args.value,
        general=general,
        byzantine=byzantine,
        time_scale=args.time_scale,
        delta=args.delta,
        rho=args.rho,
        timeout_units=args.timeout_units,
    )

    leaked = {i: c for i, c in report.live_timers.items() if c != 0}
    dirty = {i: c for i, c in report.exit_codes.items() if c != 0}
    rejected = {i: c for i, c in sorted(report.rejected_by_node.items()) if c}
    armed = "never" if report.armed_at is None else f"local {report.armed_at:+.3f}"
    ok = _wallclock_verdict(
        decisions,
        sorted(report.correct_ids),
        byz_id if byzantine else None,
        args.attack,
        args.value,
        f"transport: {report.sent_count} sent, {report.delivered_count} delivered, "
        f"{report.rejected_count} rejected frames "
        f"(time_scale={args.time_scale}s/unit, udp localhost)\n"
        f"rejected/node: {rejected if rejected else 'none'}\n"
        f"live timers: {'all drained' if not leaked else leaked}\n"
        f"children:    {'all exited 0' if not dirty else dirty}\n"
        f"last armed:  {armed} (the epoch is local 0)",
    )
    return 0 if (ok and report.clean_exit) else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.live import run_chaos_agreement

    params = _params(args)
    try:
        chaos = run_chaos_agreement(
            n=params.n,
            f=params.f,
            seed=args.seed,
            value=args.value,
            general=args.general,
            time_scale=args.time_scale,
            kill_at_d=args.kill_at_d,
            victims=args.victims,
            recovery_bound_d=args.recovery_bound_d,
            timeout_units=args.timeout_units,
            restart_backoff_s=args.restart_backoff_s,
            trace=args.trace,
            delta=args.delta,
            rho=args.rho,
        )
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2

    report = chaos.report
    print(f"victims: {chaos.victims} (SIGKILL + full state loss, first at "
          f"{chaos.kill_at_d:g}d, scrambled respawn)")
    for node_id in sorted(report.correct_ids):
        dec = report.decisions.get(node_id)
        tags = []
        if node_id in chaos.victims:
            tags.append(f"restarts={report.restart_counts.get(node_id, 0)}")
            latency = chaos.per_victim_latency_d.get(node_id)
            if latency is not None:
                tags.append(f"recovered in {latency:.1f}d")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        if dec is None:
            print(f"node {node_id}: (no return within timeout){suffix}")
        else:
            outcome = "ABORT" if dec.value is BOTTOM else repr(dec.value)
            print(f"node {node_id}: {outcome} at local={dec.returned_local:.2f}"
                  f"{suffix}")

    rejected = {i: c for i, c in sorted(report.rejected_by_node.items()) if c}
    leaked = {i: c for i, c in report.live_timers.items() if c != 0}
    bad_exit = {
        i: why for i, why in sorted(report.exit_reasons.items()) if why != "ok"
    }
    print(f"transport: {report.sent_count} sent, {report.delivered_count} "
          f"delivered, {report.rejected_count} rejected frames")
    print(f"rejected/node: {rejected if rejected else 'none'}")
    print(f"exit reasons: {bad_exit if bad_exit else 'all ok'}")
    print(f"live timers: {'all drained' if not leaked else leaked}")
    latency = (f"{chaos.recovery_latency_d:.1f}d"
               if chaos.recovery_latency_d is not None else "n/a")
    print(f"recovery: {latency} (bound {chaos.recovery_bound_d:.1f}d)")
    print(f"agreed={chaos.agreed} converged={chaos.converged} "
          f"victims_recovered={chaos.victims_recovered} "
          f"clean_exit={report.clean_exit}")
    print(f"chaos verdict: {'OK' if chaos.ok else 'FAILED'}")
    return 0 if chaos.ok else 1


def _control_plane(args: argparse.Namespace, service):
    """Start a control plane over the service when ``--metrics`` asks."""
    if not args.metrics:
        return None
    from repro.obs.control import ControlPlane

    plane = ControlPlane(service, port=args.control_port).start()
    print(f"control: {plane.url}", flush=True)
    return plane


def _run_service(args: argparse.Namespace):
    """Run one service workload on the selected backend; returns its
    :class:`~repro.service.service.ServiceReport`."""
    params = _params(args)
    if args.primary >= args.n:
        print(f"service: primary {args.primary} not in 0..{args.n - 1}",
              file=sys.stderr)
        raise SystemExit(2)
    duration_s = args.commands / args.rate
    if args.backend == "asyncio":
        import asyncio

        async def body():
            from repro.runtime.aio import AsyncioCluster
            from repro.service import ReplicatedLogService

            cluster = AsyncioCluster(
                params, seed=args.seed, time_scale=args.time_scale
            )
            service = ReplicatedLogService(
                cluster,
                primary=args.primary,
                window=args.window,
                max_batch=args.batch,
            )
            plane = _control_plane(args, service)
            try:
                return await service.run_workload(
                    rate=args.rate,
                    total=args.commands,
                    seed=args.seed,
                    poisson=not args.fixed,
                    drain_timeout_s=max(30.0, 3.0 * duration_s),
                )
            finally:
                if plane is not None:
                    plane.close()
                cluster.close()

        return asyncio.run(body())

    from repro.service.socket_service import SocketLogService

    # Children exit at this protocol-time deadline no matter what the
    # parent does -- the orphan backstop.  Budget 3x the offered duration
    # plus settle slack, converted to units.
    timeout_units = (3.0 * duration_s + 60.0) / args.time_scale
    service = SocketLogService(
        params,
        primary=args.primary,
        window=args.window,
        max_batch=args.batch,
        seed=args.seed,
        time_scale=args.time_scale,
        timeout_units=timeout_units,
        supervise=args.supervise,
        metrics=args.metrics,
    )
    plane = _control_plane(args, service)
    try:
        return service.run_workload(
            rate=args.rate,
            total=args.commands,
            seed=args.seed,
            poisson=not args.fixed,
            settle_timeout_s=max(30.0, duration_s),
        )
    finally:
        if plane is not None:
            plane.close()


def _service_verdict(args: argparse.Namespace, report) -> int:
    applied = report.commands_applied
    ok = report.identical_logs and applied == args.commands
    state = "OK" if ok else "FAIL"
    print(f"{state}: identical logs at every correct replica: "
          f"{report.identical_logs}; applied {applied}/{args.commands}")
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.harness.stats import summarize_latencies

    report = _run_service(args)
    lat = summarize_latencies(report.latencies)
    achieved = (
        report.commands_issued / report.elapsed_s if report.elapsed_s > 0 else 0.0
    )
    print(f"backend={args.backend} n={args.n} window={args.window} "
          f"batch={args.batch}")
    print(f"offered:       {args.rate:g} commands/s "
          f"({'fixed' if args.fixed else 'poisson'}), {args.commands} total")
    print(f"achieved:      {achieved:.0f} submitted/s, "
          f"{report.commands_per_s:.0f} decided/s, "
          f"{report.instances_per_s:.1f} agreement instances/s "
          f"over {report.elapsed_s:.1f}s")
    print(f"slots:         {report.slots_decided} decided, "
          f"{report.slots_aborted} aborted (aborts requeue; peak in-flight "
          f"{report.peak_in_flight})")
    print(f"decide latency (arrival -> decided): p50 {lat['p50_ms']:.0f}ms  "
          f"p99 {lat['p99_ms']:.0f}ms  mean {lat['mean_ms']:.0f}ms  "
          f"max {lat['max_ms']:.0f}ms")
    print(f"live state:    peak {report.peak_live_instances} slot instances, "
          f"{report.peak_live_timers} timers (bound {report.live_bound}, "
          f"violations {report.bound_violations} across {report.samples} "
          "samples)")
    print(f"batch bodies:  {report.body_fetches} fetch rounds, "
          f"{report.bodies_rejected} rejected on hash mismatch")
    if report.repaired_entries:
        print(f"repair:        {report.repaired_entries} entries adopted via "
              "f+1 vouching")
    return _service_verdict(args, report)


def cmd_stabilize(args: argparse.Namespace) -> int:
    from repro.harness.experiments import _e3_seed

    params = _params(args)
    if args.seeds is None:
        print(f"havoc (garbage={args.garbage}), then waiting Delta_stb = "
              f"{params.delta_stb:.0f}")
    results = _seed_results(args, partial(_e3_seed, params, args.garbage))
    if args.seeds is not None:
        names = ("proposal_unblocked", "post_stb_validity", "post_stb_timeliness")
        return _seeds_report([
            (seed, dict(zip(names, result)), "") for seed, result in results
        ], "all recovered")

    [(_, (ok, valid, timely))] = results
    print(f"proposal unblocked: {ok}")
    print(f"post-stabilization validity: {valid}")
    print(f"post-stabilization timeliness: {timely}")
    return 0 if (ok and valid and timely) else 1


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.harness.report import rows_to_csv
    from repro.harness.suite import (
        SUITE_PRESETS,
        load_suite_config,
        run_suite,
        suite_report,
    )

    if args.config is not None:
        config = load_suite_config(args.config)
    elif args.preset is not None:
        if args.preset not in SUITE_PRESETS:
            print(
                f"unknown preset {args.preset!r}; "
                f"available: {', '.join(sorted(SUITE_PRESETS))}",
                file=sys.stderr,
            )
            return 2
        config = SUITE_PRESETS[args.preset]
    else:
        print("suite: need --preset or --config", file=sys.stderr)
        return 2

    rows = run_suite(config, workers=args.workers, seeds=args.seeds)
    if args.csv:
        print(rows_to_csv(rows), end="")
    else:
        print(suite_report(config, rows))
    clean = all(row["agreement_ok"] == row["runs"] for row in rows)
    return 0 if clean else 1


def cmd_list_experiments(args: argparse.Namespace) -> int:
    from repro.harness.registry import list_experiments

    for spec in list_experiments():
        defaults = ", ".join(
            f"{key}={value!r}" for key, value in sorted(spec.defaults.items())
        )
        print(f"{spec.name:6s} {spec.title}")
        if defaults:
            print(f"       defaults: {defaults}")
    return 0


COMMANDS = {
    "constants": cmd_constants,
    "run": cmd_run,
    "run-async": cmd_run_async,
    "run-socket": cmd_run_socket,
    "chaos": cmd_chaos,
    "serve": cmd_serve,
    "stabilize": cmd_stabilize,
    "suite": cmd_suite,
    "list-experiments": cmd_list_experiments,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
