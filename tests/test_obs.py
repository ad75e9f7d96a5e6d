"""Tests for the observability layer: metrics registry, HTTP endpoints,
fault-payload parsing, the control plane on both wall-clock backends, and
the live fault driver on the asyncio backend.

The socket backend's supervised recovery through ``POST /faults`` and
``/status`` runs in ``tests/test_service.py::TestSocketService`` and in
``scripts/live_cluster_gate.py``.
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request

import pytest

from repro.core.agreement import Decision
from repro.core.params import ProtocolParams
from repro.obs import (
    ControlPlane,
    MetricsRegistry,
    NodeMetrics,
    ObservabilityServer,
    REQUIRED_SERIES,
    parse_fault_payload,
    parse_prometheus_text,
)


def _get(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), (
            resp.read().decode()
        )


def _get_error_code(url: str) -> int:
    """The status of a GET that must fail; the error's socket is closed."""
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(url)
    # An HTTPError *is* the response: it owns the connection's socket.
    err.value.close()
    return err.value.code


def _post(url: str, payload: object) -> tuple[int, dict]:
    data = json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=5.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        with exc:  # the error owns the response socket; close it
            return exc.code, json.loads(exc.read())


class TestMetricsRegistry:
    def test_counter_gauge_render_and_parse_round_trip(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_test_total", "help", {"node": "1"})
        gauge = reg.gauge("repro_test_live", "help", {"node": "1"})
        counter.inc()
        counter.inc(2.0)
        gauge.set(7)
        gauge.set(3)
        text = reg.render()
        assert "# HELP repro_test_total help" in text
        assert "# TYPE repro_test_total counter" in text
        assert "# TYPE repro_test_live gauge" in text
        parsed = parse_prometheus_text(text)
        assert parsed["repro_test_total"] == {'{node="1"}': 3.0}
        assert parsed["repro_test_live"] == {'{node="1"}': 3.0}

    def test_counter_set_total_is_monotone(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_test_total", "help")
        counter.set_total(10)
        counter.set_total(4)  # stale snapshot must never move it backwards
        assert counter.value == 10
        counter.set_total(11)
        assert counter.value == 11

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram(
            "repro_lat_seconds", "help", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        parsed = parse_prometheus_text(reg.render())
        buckets = parsed["repro_lat_seconds_bucket"]
        assert buckets['{le="0.1"}'] == 1
        assert buckets['{le="1"}'] == 3
        assert buckets['{le="10"}'] == 4
        assert buckets['{le="+Inf"}'] == 5
        assert parsed["repro_lat_seconds_count"][""] == 5
        assert parsed["repro_lat_seconds_sum"][""] == pytest.approx(56.05)

    def test_duplicate_and_invalid_names_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_dup_total", "help", {"node": "0"})
        with pytest.raises(ValueError, match="duplicate"):
            reg.counter("repro_dup_total", "help", {"node": "0"})
        # Same name, different labels: fine (one series per label set).
        reg.counter("repro_dup_total", "help", {"node": "1"})
        with pytest.raises(ValueError, match="invalid"):
            reg.counter("bad name", "help")

    def test_help_and_type_emitted_once_per_name(self):
        reg = MetricsRegistry()
        reg.counter("repro_multi_total", "help", {"node": "0"})
        reg.counter("repro_multi_total", "help", {"node": "1"})
        text = reg.render()
        assert text.count("# HELP repro_multi_total") == 1
        assert text.count("# TYPE repro_multi_total") == 1


class TestNodeMetrics:
    def test_exposes_every_required_series(self):
        metrics = NodeMetrics(node_id=3, time_scale=0.05)
        parsed = parse_prometheus_text(metrics.render())
        exposed = set(parsed)
        for name in REQUIRED_SERIES:
            assert name in exposed or f"{name}_count" in exposed, name

    def test_observe_decision_scales_latency_to_wall_seconds(self):
        metrics = NodeMetrics(node_id=0, time_scale=0.1)
        decision = Decision(
            node=0, general=(0, 0), value=("a",),
            tau_g_local=0.0, tau_g_real=2.0,
            returned_local=8.0, returned_real=8.0,
        )
        metrics.observe_decision(decision)
        # 6 protocol units at scale 0.1 = 0.6 wall seconds.
        assert metrics.decision_latency.count == 1
        assert metrics.decision_latency.sum == pytest.approx(0.6)
        assert metrics.decisions.value == 1

    def test_observe_decision_tolerates_unanchored_abort(self):
        # An abort whose initiation never anchored carries tau_g_real=None:
        # it is counted, with no latency to observe, and must not raise
        # (a scrape reads every decision a node recorded, aborts included).
        from repro.core.params import BOTTOM

        metrics = NodeMetrics(node_id=0, time_scale=0.1)
        abort = Decision(
            node=0, general=(0, 7), value=BOTTOM,
            tau_g_local=None, tau_g_real=None,
            returned_local=9.0, returned_real=9.0,
        )
        metrics.observe_decision(abort)  # must not raise
        assert metrics.decisions.value == 1
        assert metrics.decision_latency.count == 0

    def test_sample_consumes_decide_latencies_exactly_once(self):
        from types import SimpleNamespace

        metrics = NodeMetrics(node_id=0, time_scale=1.0)
        latencies = [0.1, 0.2]
        service = SimpleNamespace(
            applier=None, coordinator=SimpleNamespace(latencies=latencies)
        )
        metrics.sample(service=service)
        assert metrics.decide_latency.count == 2
        latencies.append(0.3)
        metrics.sample(service=service)
        assert metrics.decide_latency.count == 3
        assert metrics.decide_latency.sum == pytest.approx(0.6)

    def test_sample_exposes_body_fetch_and_reject_counters(self):
        from types import SimpleNamespace

        metrics = NodeMetrics(node_id=2, time_scale=1.0)
        applier = SimpleNamespace(
            commands_applied=7, live_slot_instances=3,
            body_fetches=4, bodies_rejected=1,
        )
        metrics.sample(
            service=SimpleNamespace(applier=applier, coordinator=None)
        )
        parsed = parse_prometheus_text(metrics.render())
        label = '{node="2"}'
        assert parsed["repro_service_body_fetches_total"][label] == 4
        assert parsed["repro_service_bodies_rejected_total"][label] == 1


class TestParseFaultPayload:
    def test_accepts_bare_list_and_actions_wrapper(self):
        actions = [{"at_d": 0.0, "do": "crash", "nodes": [2]}]
        script = parse_fault_payload(actions)
        assert len(script.actions) == 1
        wrapped = parse_fault_payload({"actions": actions})
        assert len(wrapped.actions) == 1

    def test_rejects_empty_and_malformed(self):
        with pytest.raises(ValueError, match="non-empty"):
            parse_fault_payload([])
        with pytest.raises(ValueError, match="non-empty"):
            parse_fault_payload({"actions": []})
        with pytest.raises(ValueError, match="non-empty"):
            parse_fault_payload("crash")
        with pytest.raises((KeyError, ValueError, TypeError)):
            parse_fault_payload([{"do": "no-such-fault", "at_d": 0.0}])


class TestObservabilityServer:
    def test_routes_end_to_end(self):
        seen: list[object] = []

        def faults(spec):
            seen.append(spec)
            if spec == ["boom"]:
                raise ValueError("bad spec")
            return {"accepted": 1}

        server = ObservabilityServer(
            render=lambda: "repro_up 1\n",
            status=lambda: {"ok": True},
            faults=faults,
        ).start()
        try:
            code, ctype, body = _get(f"{server.url}/metrics")
            assert code == 200
            assert ctype.startswith("text/plain; version=0.0.4")
            assert parse_prometheus_text(body) == {"repro_up": {"": 1.0}}

            code, ctype, body = _get(f"{server.url}/status")
            assert code == 200
            assert ctype == "application/json"
            assert json.loads(body) == {"ok": True}

            code, _, body = _get(f"{server.url}/healthz")
            assert code == 200 and body == "ok\n"

            code, reply = _post(f"{server.url}/faults", [{"x": 1}])
            assert code == 200 and reply == {"accepted": 1}
            assert seen == [[{"x": 1}]]

            # Validation errors map to 400, not 500.
            code, reply = _post(f"{server.url}/faults", ["boom"])
            assert code == 400 and "bad spec" in reply["error"]

            assert _get_error_code(f"{server.url}/nope") == 404
        finally:
            server.close()

    def test_unwired_routes_404(self):
        server = ObservabilityServer(render=lambda: "").start()
        try:
            assert _get_error_code(f"{server.url}/status") == 404
            code, reply = _post(f"{server.url}/faults", [])
            assert code == 404
        finally:
            server.close()


#: The /status keys both backends report, cluster-wide and per node.
SHARED_STATUS_KEYS = {"backend", "n", "f", "started", "faults_injected", "nodes"}
SHARED_NODE_KEYS = {"alive", "restarts", "metrics_url"}


class TestControlPlane:
    @pytest.mark.parametrize("backend", ["asyncio", "socket"])
    def test_status_carries_the_shared_keys(self, backend):
        params = ProtocolParams(n=4, f=1, delta=1.0, rho=0.0)

        def read(target) -> dict:
            plane = ControlPlane(target).start()
            try:
                _, _, body = _get(f"{plane.url}/status")
            finally:
                plane.close()
            return json.loads(body)

        if backend == "asyncio":
            from repro.runtime.aio import AsyncioCluster

            async def body():
                cluster = AsyncioCluster(params, seed=4, time_scale=0.05)
                try:
                    return await asyncio.to_thread(read, cluster)
                finally:
                    cluster.close()

            status = asyncio.run(body())
        else:
            from repro.runtime.socket_host import SocketCluster

            cluster = SocketCluster(params, seed=4)
            try:
                status = read(cluster)
            finally:
                cluster.close()
        assert SHARED_STATUS_KEYS <= set(status)
        assert status["backend"] == backend
        assert (status["n"], status["f"]) == (4, 1)
        assert status["faults_injected"] == 0
        assert set(status["nodes"]) == {"0", "1", "2", "3"}
        for node in status["nodes"].values():
            assert SHARED_NODE_KEYS <= set(node)
            assert node["alive"] and node["restarts"] == 0

    def test_serves_metrics_status_and_installs_faults(self):
        from repro.runtime.aio import AsyncioCluster
        from repro.service import ReplicatedLogService

        params = ProtocolParams(n=4, f=1, delta=1.0, rho=0.0)

        async def body():
            cluster = AsyncioCluster(params, seed=21, time_scale=0.05)
            service = ReplicatedLogService(
                cluster, primary=0, window=4, max_batch=32
            )
            plane = ControlPlane(service).start()
            try:
                report = await service.run_workload(
                    rate=500.0, total=60, seed=3, drain_timeout_s=30.0
                )
                url = plane.url
                _, _, text = await asyncio.to_thread(
                    _get, f"{url}/metrics"
                )
                _, _, status_body = await asyncio.to_thread(
                    _get, f"{url}/status"
                )
                code, reply = await asyncio.to_thread(
                    _post, f"{url}/faults",
                    [{"at_d": 60.0, "do": "crash", "nodes": [2]}],
                )
                bad_code, bad_reply = await asyncio.to_thread(
                    _post, f"{url}/faults", []
                )
                _, _, after_body = await asyncio.to_thread(
                    _get, f"{url}/status"
                )
                return (
                    report, text, json.loads(status_body),
                    (code, reply), (bad_code, bad_reply),
                    json.loads(after_body),
                )
            finally:
                plane.close()
                cluster.close()

        report, text, status, good, bad, after = asyncio.run(body())
        assert report.identical_logs and report.commands_applied == 60

        parsed = parse_prometheus_text(text)
        # Every node's label set is present for the required series.
        for node_id in range(params.n):
            label = f'{{node="{node_id}"}}'
            assert parsed["repro_arrivals_total"][label] >= 0
            assert parsed["repro_live_slot_instances"][label] >= 0
        # Every decision the nodes recorded reached the histograms.
        assert sum(parsed["repro_decisions_total"].values()) > 0
        assert sum(parsed["repro_decision_latency_seconds_count"].values()) > 0
        # The primary's decide latencies were streamed in.
        assert parsed["repro_decide_latency_seconds_count"]['{node="0"}'] == 60
        assert parsed["repro_commands_applied_total"]['{node="0"}'] == 60
        # A clean run lost no batch body and refused none.
        assert report.body_fetches == 0 and report.bodies_rejected == 0
        for node_id in range(params.n):
            label = f'{{node="{node_id}"}}'
            assert parsed["repro_service_body_fetches_total"][label] == 0
            assert parsed["repro_service_bodies_rejected_total"][label] == 0

        assert status["backend"] == "asyncio"
        assert status["n"] == 4 and status["f"] == 1
        assert status["service"]["commands_decided"] == 60
        assert status["service"]["progress"]["3"]["applied"] == 60
        assert all(node["alive"] for node in status["nodes"].values())

        code, reply = good
        assert code == 200
        assert reply == {"accepted": 1, "backend": "asyncio"}
        assert status["faults_injected"] == 0
        assert after["faults_injected"] == 1
        bad_code, _ = bad
        assert bad_code == 400


class TestLiveFaultDriver:
    def test_ties_fire_in_script_order_and_never_early(self):
        from repro.runtime.aio import AsyncioCluster

        params = ProtocolParams(n=4, f=1, delta=1.0, rho=0.0)

        async def body():
            cluster = AsyncioCluster(params, seed=8, time_scale=0.01)
            kills = []
            kill_node = cluster.kill_node

            def recording_kill(node_id, state_loss):
                kills.append((node_id, cluster.now()))
                kill_node(node_id, state_loss)

            cluster.kill_node = recording_kill
            try:
                with pytest.raises(ValueError, match="nodes 0..3"):
                    cluster.inject_fault_script(
                        [{"at_d": 0.0, "do": "crash", "nodes": [4]}]
                    )
                injected_at = cluster.now()
                # Injected from another thread, as POST /faults does.
                reply = await asyncio.to_thread(
                    cluster.inject_fault_script,
                    [
                        {"at_d": 2.0, "do": "crash", "nodes": [2]},
                        {"at_d": 2.0, "do": "restart", "nodes": [2]},
                        {"at_d": 1.0, "do": "crash", "nodes": [3]},
                    ],
                )
                await cluster.sleep_units(4.0 * params.d)
                return (
                    injected_at, reply, list(cluster.faults.fired), kills,
                    cluster.status_snapshot(),
                )
            finally:
                cluster.close()

        injected_at, reply, fired, kills, status = asyncio.run(body())
        assert reply == {"accepted": 3, "backend": "asyncio"}
        # Time order first; the two actions at 2d in script order, so the
        # restart finds node 2 crashed and revives it.
        assert fired == ["crash", "crash", "restart"]
        assert [node_id for node_id, _at in kills] == [3, 2]
        assert kills[0][1] >= injected_at + 1.0 * params.d
        assert kills[1][1] >= injected_at + 2.0 * params.d
        assert status["nodes"]["2"]["alive"]
        assert status["nodes"]["2"]["restarts"] == 1
        assert not status["nodes"]["3"]["alive"]
