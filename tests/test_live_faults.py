"""Live fault injection: driver, drop matrix, scramble parity, chaos e2e.

Covers the wall-clock side of the fault-script story:

* :func:`~repro.faults.live.validate_live_script` rejects sim-only actions
  and unresolvable policy names *before* a run starts.
* The sender-side drop matrix on :class:`~repro.runtime.aio.
  AsyncioTransport` -- isolate/reconnect, partition/heal (stacked cuts
  included) -- attributes suppressed copies to ``dropped_fault_count``.
* The sim timeline's ``Restart(scramble=True)`` and the in-process
  helpers (:func:`crash_in_process` / :func:`restart_in_process`) are the
  *same* implementation: applied to identical clusters with identically-derived
  randomness they produce bit-identical post-restart protocol state.
* A scripted partition, heal, isolate, reconnect and policy swap reach an
  asyncio cluster through ``inject_fault_script`` under service load, and
  the replicated log comes out identical, every command applied once.
* The chaos runner end to end: SIGKILL a node mid-agreement with full
  state loss, the supervisor respawns it with scrambled state, and every
  node -- the revenant included -- converges on the agreed value with a
  clean teardown.
"""

from __future__ import annotations

import asyncio
import signal

import pytest

from repro.core.params import ProtocolParams
from repro.faults.byzantine import CrashStrategy
from repro.faults.live import run_chaos_agreement, validate_live_script
from repro.faults.timeline import (
    POLICY_BUILDERS,
    Crash,
    FaultScript,
    Havoc,
    Heal,
    Partition,
    Restart,
    SwapPolicy,
    SwapStrategy,
    build_named_policy,
)
from repro.faults.transient import (
    TransientFaultInjector,
    crash_in_process,
    restart_in_process,
    wipe_protocol_state,
)
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.net.delivery import FixedDelay
from repro.runtime.aio import AsyncioTransport
from repro.sim.rand import RandomSource

PARAMS = ProtocolParams(n=4, f=1, delta=1.0, rho=0.0)


# ---------------------------------------------------------------------------
# Pre-run validation
# ---------------------------------------------------------------------------
class TestValidateLiveScript:
    def test_accepts_the_live_supported_actions(self) -> None:
        script = FaultScript(
            (
                Crash(at_d=1.0, nodes=(2,), state_loss=True),
                Restart(at_d=2.0, nodes=(2,), scramble=True),
                Partition(at_d=3.0, island=frozenset({0, 1})),
                Heal(at_d=4.0),
                SwapPolicy(at_d=5.0, policy="fast"),
            )
        )
        validate_live_script(script)

    def test_rejects_swap_strategy(self) -> None:
        script = FaultScript(
            (SwapStrategy(at_d=1.0, node=3, strategy=CrashStrategy()),)
        )
        with pytest.raises(ValueError, match="sim only"):
            validate_live_script(script)

    def test_rejects_havoc(self) -> None:
        with pytest.raises(ValueError, match="sim only"):
            validate_live_script(FaultScript((Havoc(at_d=1.0),)))

    def test_rejects_policy_factories(self) -> None:
        script = FaultScript(
            (SwapPolicy(at_d=1.0, policy=lambda cluster: FixedDelay(0.0)),)
        )
        with pytest.raises(ValueError, match="must name a registered policy"):
            validate_live_script(script)

    def test_rejects_unknown_policy_names(self) -> None:
        script = FaultScript((SwapPolicy(at_d=1.0, policy="nope"),))
        with pytest.raises(ValueError, match="unknown live policy"):
            validate_live_script(script)

    def test_every_registered_policy_builds(self) -> None:
        for name in POLICY_BUILDERS:
            policy = build_named_policy(name, PARAMS, lambda: 0.0)
            decision = policy.decide(0, 1, "payload", RandomSource(7, "probe"))
            assert decision.delay >= 0.0

    def test_restart_spec_roundtrips_scramble_fields(self) -> None:
        """The JSON spec form carries the new scramble knobs unchanged."""
        script = FaultScript.from_spec(
            [
                {"do": "crash", "at_d": 1.0, "nodes": [2], "state_loss": True},
                {
                    "do": "restart",
                    "at_d": 2.0,
                    "nodes": [2],
                    "scramble": True,
                    "value_pool": ["A", "B"],
                    "generals": [0],
                },
            ]
        )
        restart = script.actions[1]
        assert restart.scramble is True
        assert restart.value_pool == ("A", "B")
        assert restart.generals == (0,)
        validate_live_script(script)


# ---------------------------------------------------------------------------
# Sender-side drop matrix (asyncio transport; the socket one shares the code)
# ---------------------------------------------------------------------------
async def _mini_fabric(n: int = 3):
    transport = AsyncioTransport(
        time_scale=0.001,
        policy=FixedDelay(0.0),
        rand=RandomSource(5, "net"),
    )
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        transport.register(i, inboxes[i].append)
    return transport, inboxes


def _payloads(inbox) -> list:
    return [(e.sender, e.payload) for e in inbox]


class TestDropMatrix:
    def test_isolate_suppresses_both_directions(self) -> None:
        async def body() -> None:
            transport, inboxes = await _mini_fabric()
            transport.isolate([2])
            transport.send(0, 2, "to-isolated")
            transport.send(2, 0, "from-isolated")
            transport.send(0, 1, "between-connected")
            await asyncio.sleep(0.02)
            assert _payloads(inboxes[2]) == []
            assert _payloads(inboxes[0]) == []
            assert _payloads(inboxes[1]) == [(0, "between-connected")]
            assert transport.dropped_fault_count == 2
            transport.reconnect([2])
            transport.send(0, 2, "after-reconnect")
            await asyncio.sleep(0.02)
            assert _payloads(inboxes[2]) == [(0, "after-reconnect")]
            assert transport.dropped_fault_count == 2

        asyncio.run(body())

    def test_partition_cuts_cross_island_only_and_heals(self) -> None:
        async def body() -> None:
            transport, inboxes = await _mini_fabric()
            transport.set_partition(frozenset({0}))
            transport.send(0, 1, "cross-cut")
            transport.send(1, 2, "same-side")
            await asyncio.sleep(0.02)
            assert _payloads(inboxes[1]) == []
            assert _payloads(inboxes[2]) == [(1, "same-side")]
            assert transport.dropped_fault_count == 1
            transport.heal_partitions()
            transport.send(0, 1, "after-heal")
            await asyncio.sleep(0.02)
            assert _payloads(inboxes[1]) == [(0, "after-heal")]

        asyncio.run(body())

    def test_heal_unwraps_stacked_partitions(self) -> None:
        async def body() -> None:
            transport, inboxes = await _mini_fabric()
            base = transport.policy
            transport.set_partition(frozenset({0}))
            transport.set_partition(frozenset({2}))
            transport.send(0, 1, "x")
            transport.send(1, 2, "y")
            await asyncio.sleep(0.02)
            assert _payloads(inboxes[1]) == []
            assert _payloads(inboxes[2]) == []
            transport.heal_partitions()
            assert transport.policy is base, "heal must unwrap the whole stack"
            transport.broadcast(1, "wave")
            await asyncio.sleep(0.02)
            for inbox in inboxes.values():
                assert (1, "wave") in _payloads(inbox)

        asyncio.run(body())


# ---------------------------------------------------------------------------
# The live link-fault chain end to end, under service load
# ---------------------------------------------------------------------------
class TestLinkFaultChain:
    TIME_SCALE = 0.05  # d = 50 ms
    COMMANDS = 1500
    RATE = 300.0

    def test_scripted_link_faults_leave_identical_logs(self) -> None:
        # inject_fault_script -> LiveFaultDriver -> AsyncioCluster.link_fault
        # -> apply_transport_fault, for every link-level action: cut one
        # replica off and heal, isolate another and reconnect, then swap the
        # policy (and with it the release floor) mid-run.
        from repro.runtime.aio import AsyncioCluster
        from repro.service import ReplicatedLogService

        script = [
            {"at_d": 10.0, "do": "partition", "island": [3]},
            {"at_d": 25.0, "do": "heal"},
            {"at_d": 40.0, "do": "isolate", "nodes": [2]},
            {"at_d": 55.0, "do": "reconnect", "nodes": [2]},
            {"at_d": 70.0, "do": "policy", "policy": "fast"},
        ]

        async def body():
            cluster = AsyncioCluster(PARAMS, seed=12, time_scale=self.TIME_SCALE)
            service = ReplicatedLogService(cluster, primary=0)
            try:
                reply = cluster.inject_fault_script(script)
                report = await service.run_workload(
                    rate=self.RATE, total=self.COMMANDS, seed=3,
                    drain_timeout_s=60.0,
                )
                return (
                    reply, report, list(cluster.faults.fired),
                    cluster.transport.dropped_fault_count,
                    type(cluster.transport.policy).__name__,
                    {n: list(a.applied) for n, a in service.appliers.items()},
                    {n: set(a.skipped) for n, a in service.appliers.items()},
                )
            finally:
                cluster.close()

        reply, report, fired, fault_drops, policy, logs, skipped = asyncio.run(
            body()
        )
        assert reply == {"accepted": 5, "backend": "asyncio"}
        assert fired == ["partition", "heal", "isolate", "reconnect", "swappolicy"]
        assert fault_drops > 0
        assert policy == "UniformDelay"
        expected = sorted(f"cmd{i}" for i in range(self.COMMANDS))
        if not report.identical_logs:
            # ROADMAP item 14: a slot in flight across a cut can abort at
            # some replicas and be decided at others.  The abort is a skip,
            # and the primary re-submits an aborted batch, so the logs stay
            # different (neither a longer drain nor repair() heals them) and
            # a batch may apply twice.  Only that divergence is held back:
            # at every slot, all replicas that applied a batch applied the
            # same one, and every other replica skipped the slot.
            batches: dict[int, set] = {}
            for log in logs.values():
                for slot, batch in log:
                    batches.setdefault(slot, set()).add(batch)
            assert all(len(applied) == 1 for applied in batches.values())
            for node_id, log in logs.items():
                missing = batches.keys() - {slot for slot, _ in log}
                assert missing <= skipped[node_id]
            pytest.xfail("ROADMAP item 14: a slot aborted at some replicas "
                         "and was decided at others")
        assert report.commands_applied == self.COMMANDS
        for log in logs.values():  # each command exactly once
            assert sorted(c for _slot, batch in log for c in batch) == expected


class TestSocketLinkFault:
    """The socket leg: SocketCluster.link_fault -> every child's sender.

    One bare agreement, not the service (ROADMAP item 14's divergence):
    node 3 is isolated before the General proposes and reconnected about
    one d into the agreement, while its later waves are still on the wire.
    """

    TIME_SCALE = 0.2  # d = 200 ms: the parent pumps faults every <= d/4

    @staticmethod
    def _scrape(cluster) -> dict[int, tuple[float, float]]:
        """(sent, dropped) per live child, read off its own /metrics."""
        import urllib.request

        from repro.obs.metrics import parse_prometheus_text

        out = {}
        for node_id, port in dict(cluster._metrics_ports).items():
            url = f"http://127.0.0.1:{port}/metrics"
            with urllib.request.urlopen(url, timeout=2.0) as reply:
                series = parse_prometheus_text(reply.read().decode())
            sent = sum(series["repro_messages_sent_total"].values())
            dropped = sum(series["repro_messages_dropped_total"].values())
            out[node_id] = (sent, dropped)
        return out

    def test_isolate_then_reconnect_reaches_every_child(self) -> None:
        import threading
        import time

        from repro.runtime.socket_host import SocketCluster

        cluster = SocketCluster(
            PARAMS, seed=3, time_scale=self.TIME_SCALE, value="v",
            metrics=True, timeout_units=6.0,
        )
        # at_d counts from the first pump, startup_grace_s before the epoch.
        lead = cluster._startup_grace_s / self.TIME_SCALE
        reply = cluster.inject_fault_script([
            {"at_d": 0.0, "do": "isolate", "nodes": [3]},
            {"at_d": lead + 1.0, "do": "reconnect", "nodes": [3]},
        ])
        samples: dict[str, dict] = {}
        errors: list[BaseException] = []

        def wait_for(ready) -> None:
            deadline = time.monotonic() + 30.0
            while not ready():
                if time.monotonic() > deadline:
                    raise TimeoutError("the run never reached this point")
                time.sleep(0.01)

        def watch() -> None:
            try:
                wait_for(lambda: cluster._epoch_mono is not None
                         and cluster.now() >= 0.9)
                samples["isolated"] = self._scrape(cluster)
                wait_for(lambda: "reconnect" in cluster.faults.fired)
                time.sleep(0.5 * self.TIME_SCALE)  # every child applied it
                samples["reconnected"] = self._scrape(cluster)
            except Exception as exc:  # surfaced on the test thread
                errors.append(exc)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        report = cluster.run_agreement()
        watcher.join(timeout=35.0)
        assert not watcher.is_alive()
        assert not errors, errors
        assert reply == {"accepted": 2, "backend": "socket"}
        assert cluster.faults.fired == ["isolate", "reconnect"]
        # While node 3 is cut off, every live sender drops its copies to 3.
        isolated = samples["isolated"]
        assert all(isolated[node][1] > 0 for node in (0, 1, 2)), isolated
        # After reconnect, traffic goes on and nothing more is dropped.
        reconnected = samples["reconnected"]
        assert report.sent_count > sum(sent for sent, _ in reconnected.values())
        assert report.dropped_count == sum(
            dropped for _, dropped in reconnected.values()
        )
        assert report.clean_exit


# ---------------------------------------------------------------------------
# One scramble implementation: sim timeline vs live helpers, differentially
# ---------------------------------------------------------------------------
def _node_state_snapshot(node) -> tuple:
    """The protocol variables both crash/restart paths are supposed to touch."""
    insts = []
    for general in sorted(node.instances):
        inst = node.instances[general]
        insts.append(
            (
                general,
                inst.tau_g,
                inst.accepted_value,
                inst.stopped,
                inst.returned_at,
                inst.ia.last_g,
                sorted(inst.ia.last_gm),
                inst.mb.anchor,
            )
        )
    return (
        tuple(insts),
        node._last_initiation,
        sorted(node._last_initiation_by_value.items()),
        node._failed_initiation_at,
    )


class TestScrambleParity:
    # Non-integer offsets keep the fault instants clear of the cleanup
    # ticks (armed at construction, firing on integer multiples of d), so
    # both clusters see the exact same event order.
    CRASH_AT = 1.25
    RESTART_AT = 2.25

    def test_timeline_restart_equals_live_helpers(self) -> None:
        """Crash+scrambled-Restart via the sim timeline == the live helpers.

        Two identical sim clusters; on one the script fires through
        ``FaultScript.install``, on the other :func:`crash_in_process` and
        :func:`restart_in_process` (what the asyncio driver calls) are
        applied by hand with the identically-derived injector stream.  The
        post-restart protocol state must match bit for bit -- there is one
        scramble implementation, not two drifting copies.
        """
        script = FaultScript(
            (
                Crash(at_d=self.CRASH_AT, nodes=(2,), state_loss=True),
                Restart(
                    at_d=self.RESTART_AT,
                    nodes=(2,),
                    scramble=True,
                    value_pool=("A", "B"),
                    generals=(0,),
                ),
            )
        )
        scripted = Cluster(ScenarioConfig(params=PARAMS, seed=7))
        script.install(scripted)
        scripted.run_for(self.RESTART_AT + 0.25)

        manual = Cluster(ScenarioConfig(params=PARAMS, seed=7))
        node = manual.nodes[2]
        manual.run_for(self.CRASH_AT)
        crash_in_process(node, state_loss=True)
        assert node.instances == {} and node._last_initiation is None
        manual.run_for(self.RESTART_AT - self.CRASH_AT)
        injector = TransientFaultInjector(
            PARAMS,
            manual.rng.split(f"timeline/restart/1@{self.RESTART_AT!r}"),
            value_pool=["A", "B"],
            generals=[0],
        )
        restart_in_process(node, injector)
        manual.run_for(0.25)

        assert _node_state_snapshot(scripted.nodes[2]) == _node_state_snapshot(
            manual.nodes[2]
        )

    def test_wipe_protocol_state_is_total(self) -> None:
        cluster = Cluster(ScenarioConfig(params=PARAMS, seed=1))
        node = cluster.nodes[1]
        cluster.run_for(2.0)
        node.instance(0)
        node._last_initiation = 1.5
        node._last_initiation_by_value["v"] = 1.5
        node._failed_initiation_at = 1.0
        wipe_protocol_state(node)
        assert node.instances == {}
        assert node._last_initiation is None
        assert node._last_initiation_by_value == {}
        assert node._failed_initiation_at is None

    def test_restart_without_crash_is_a_noop(self) -> None:
        cluster = Cluster(ScenarioConfig(params=PARAMS, seed=1))
        node = cluster.nodes[1]
        before = node.live_timer_count()
        restart_in_process(node)  # not crashed: must not double the cleanup tick
        assert node.live_timer_count() == before


class _DeadChild:
    """Stands in for a SIGKILLed child process: nothing to spawn or reap."""

    pid = None
    exitcode = -signal.SIGKILL

    def is_alive(self) -> bool:
        return False

    def join(self, timeout=None) -> None:
        pass


class TestSocketScrambledRestart:
    def test_revenant_is_spawned_with_the_actions_pool_and_generals(
        self, monkeypatch
    ) -> None:
        from repro.runtime.socket_host import SocketCluster

        spawned: list[dict] = []

        def record_spawn(cluster, node_id, incarnation=0, scramble=None):
            spawned.append(cluster._make_cfg(node_id, incarnation, scramble))
            cluster.procs[node_id] = _DeadChild()
            cluster._incarnations[node_id] = incarnation

        monkeypatch.setattr(SocketCluster, "_spawn", record_spawn)
        cluster = SocketCluster(
            PARAMS, general=1, scramble_on_restart=True, value_pool=("v",)
        )
        try:
            cluster.revive_node(
                2,
                Restart(
                    at_d=1.0, nodes=(2,), scramble=True,
                    value_pool=("A", "B"), generals=(0, 3),
                ),
                0,
            )
            cluster.revive_node(2, Restart(at_d=2.0, nodes=(2,)), 1)
        finally:
            cluster.close()
        scrambled, plain = spawned[-2:]
        assert (scrambled["node_id"], scrambled["incarnation"]) == (2, 1)
        assert scrambled["scramble"].value_pool == ("A", "B")
        assert scrambled["scramble"].generals == (0, 3)
        assert plain["incarnation"] == 2 and plain["scramble"] is None
        # A supervisor respawn scrambles from the cluster's own pool.
        respawn = cluster._respawn_scramble
        assert (respawn.value_pool, respawn.generals) == (("v",), (1,))


# ---------------------------------------------------------------------------
# Chaos end to end: kill, heal, re-converge, clean teardown
# ---------------------------------------------------------------------------
class TestChaosSmoke:
    HARD_TIMEOUT_S = 300  # a wedged run must fail loudly, not hang the suite

    def test_n4_f1_kill_and_reconverge(self) -> None:
        signal.alarm(self.HARD_TIMEOUT_S)
        try:
            chaos = run_chaos_agreement(
                n=4, f=1, seed=0, value="v", time_scale=0.02
            )
        finally:
            signal.alarm(0)
        report = chaos.report
        assert chaos.agreed, f"not all correct nodes agreed: {report.decisions}"
        assert chaos.converged, "the agreed value is not the proposed one"
        assert chaos.victims_recovered, (
            f"victims {chaos.victims} did not re-decide after their kill: "
            f"restarts={report.restart_counts} decisions={report.decisions}"
        )
        assert chaos.recovery_latency_d is not None
        assert chaos.recovery_latency_d <= chaos.recovery_bound_d
        for victim in chaos.victims:
            assert report.restart_counts.get(victim, 0) >= 1
        assert all(why == "ok" for why in report.exit_reasons.values()), (
            f"exit reasons: {report.exit_reasons}"
        )
        assert report.clean_exit, (
            f"exit_codes={report.exit_codes} live_timers={report.live_timers}"
        )
        assert chaos.ok

    def test_general_cannot_be_a_victim(self) -> None:
        with pytest.raises(ValueError, match="General"):
            run_chaos_agreement(n=4, f=1, general=0, victims=[0])
