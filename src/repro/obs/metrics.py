"""Prometheus-text-format metrics for the wall-clock backends.

A deliberately small registry -- counters, gauges, histograms -- rendered
in the Prometheus text exposition format (version 0.0.4), stdlib only.
The design constraint is the serving topology: samples are taken on the
event-loop thread (the child poll loop / a sampler task), while rendering
happens on an HTTP handler thread.  Every metric therefore stores plain
numbers that are *snapshotted* into it by :meth:`NodeMetrics.sample`;
the render path reads those numbers and never touches live protocol
structures, so a scrape can never race a timer-registry mutation.

:data:`REQUIRED_SERIES` is the contract the CI gate asserts against: the
series every node's ``/metrics`` endpoint must expose.  Keep it in sync
with what :class:`NodeMetrics` registers.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Sequence

#: Series every per-node /metrics endpoint must expose (CI contract).
REQUIRED_SERIES = (
    "repro_arrivals_total",
    "repro_messages_sent_total",
    "repro_frames_authenticated_total",
    "repro_frames_rejected_total",
    "repro_datagrams_sent_total",
    "repro_watch_fires_total",
    "repro_live_timers",
    "repro_live_slot_instances",
    "repro_service_body_fetches_total",
    "repro_decision_latency_seconds",
    "repro_decide_latency_seconds",
)

#: Decision/decide latency buckets, in seconds.  Service decide latencies
#: sit in the 0.1-1s range at the default time scales; agreement decision
#: latencies run a few Delta_agr, i.e. seconds at time_scale 0.05.
DEFAULT_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _fmt_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotone cumulative series.

    Besides ``inc``, the counter supports ``set_total`` because most of
    the runtime's counters already exist as monotone ints on the transport
    and host; the sampler snapshots them rather than double-counting.
    """

    kind = "counter"

    def __init__(self, name: str, help_text: str, labels: dict[str, str]):
        self.name = name
        self.help_text = help_text
        self.labels = dict(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set_total(self, total: float) -> None:
        """Snapshot an externally maintained monotone total."""
        if total > self.value:
            self.value = total

    def render(self) -> list[str]:
        return [f"{self.name}{_fmt_labels(self.labels)} {_fmt_value(self.value)}"]


class Gauge(Counter):
    """An instantaneous reading; may go up or down."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A cumulative-bucket histogram with ``_sum`` and ``_count`` series."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: dict[str, str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.labels = dict(labels)
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                self.bucket_counts[i] += 1

    def render(self) -> list[str]:
        lines = []
        cumulative = 0
        for upper, in_bucket in zip(self.buckets, self.bucket_counts):
            cumulative = in_bucket  # bucket_counts are already cumulative
            labels = dict(self.labels, le=_fmt_value(upper))
            lines.append(
                f"{self.name}_bucket{_fmt_labels(labels)} {cumulative}"
            )
        labels = dict(self.labels, le="+Inf")
        lines.append(f"{self.name}_bucket{_fmt_labels(labels)} {self.count}")
        lines.append(
            f"{self.name}_sum{_fmt_labels(self.labels)} {_fmt_value(self.sum)}"
        )
        lines.append(f"{self.name}_count{_fmt_labels(self.labels)} {self.count}")
        return lines


class MetricsRegistry:
    """Orders metrics and renders the full exposition document."""

    def __init__(self) -> None:
        self._metrics: list = []
        self._by_key: dict[tuple[str, tuple], object] = {}

    def _register(self, metric) -> None:
        if not _NAME_RE.match(metric.name):
            raise ValueError(f"invalid metric name {metric.name!r}")
        key = (metric.name, tuple(sorted(metric.labels.items())))
        if key in self._by_key:
            raise ValueError(f"duplicate metric {key!r}")
        self._by_key[key] = metric
        self._metrics.append(metric)

    def counter(
        self, name: str, help_text: str, labels: Optional[dict] = None
    ) -> Counter:
        metric = Counter(name, help_text, labels or {})
        self._register(metric)
        return metric

    def gauge(
        self, name: str, help_text: str, labels: Optional[dict] = None
    ) -> Gauge:
        metric = Gauge(name, help_text, labels or {})
        self._register(metric)
        return metric

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Optional[dict] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = Histogram(name, help_text, labels or {}, buckets)
        self._register(metric)
        return metric

    def render(self) -> str:
        """The Prometheus text exposition document (one scrape)."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for metric in self._metrics:
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                lines.append(f"# HELP {metric.name} {metric.help_text}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict[str, dict[str, float]]:
    """Parse an exposition document into ``{series: {labelset: value}}``.

    ``series`` is the sample name as emitted (histogram samples keep their
    ``_bucket``/``_sum``/``_count`` suffixes); ``labelset`` is the literal
    ``{...}`` label string (``""`` for unlabelled samples).  Used by tests
    and the CI gate to assert scrape contents without external deps.
    """
    out: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        body, _, raw_value = line.rpartition(" ")
        if not body:
            raise ValueError(f"malformed sample line: {line!r}")
        if "{" in body:
            name, _, rest = body.partition("{")
            labels = "{" + rest
        else:
            name, labels = body, ""
        if not _NAME_RE.match(name):
            raise ValueError(f"malformed series name in line: {line!r}")
        value = float(raw_value)  # accepts +Inf/NaN spellings too
        out.setdefault(name, {})[labels] = value
    return out


class NodeMetrics:
    """One node's standard metric set, sampled from live runtime objects.

    ``sample`` runs on the owning event-loop thread and snapshots every
    counter the transport/host/node already maintain; ``observe_decision``
    feeds the decision-latency histogram; service runs additionally stream
    the coordinator's decide latencies via ``sample`` (consumed
    incrementally, so each latency is observed exactly once).
    """

    def __init__(self, node_id: int, time_scale: float) -> None:
        self.node_id = node_id
        self.time_scale = time_scale
        self.registry = MetricsRegistry()
        labels = {"node": str(node_id)}
        reg = self.registry
        self.arrivals = reg.counter(
            "repro_arrivals_total",
            "Protocol messages delivered to this node", labels)
        self.sent = reg.counter(
            "repro_messages_sent_total",
            "Protocol message copies sent by this node", labels)
        self.authenticated = reg.counter(
            "repro_frames_authenticated_total",
            "Wire frames that passed authentication and were delivered",
            labels)
        self.rejected = reg.counter(
            "repro_frames_rejected_total",
            "Datagrams refused: malformed, oversized, or failing auth",
            labels)
        self.dropped = reg.counter(
            "repro_messages_dropped_total",
            "Copies dropped by delivery policy or injected link faults",
            labels)
        self.datagrams = reg.counter(
            "repro_datagrams_sent_total",
            "Datagrams actually put on the wire (after coalescing)", labels)
        self.watch_fires = reg.counter(
            "repro_watch_fires_total",
            "Message-log watch callbacks fired (threshold crossings)", labels)
        self.decisions = reg.counter(
            "repro_decisions_total",
            "Agreement decisions returned at this node", labels)
        self.live_timers = reg.gauge(
            "repro_live_timers", "Timers currently armed at this node", labels)
        self.live_instances = reg.gauge(
            "repro_live_slot_instances",
            "Live (unretired) agreement-instance states held", labels)
        self.live_watches = reg.gauge(
            "repro_live_watches",
            "Message-log watches currently registered", labels)
        self.incarnation = reg.gauge(
            "repro_incarnation",
            "Supervisor respawn incarnation of this process", labels)
        self.commands_applied = reg.counter(
            "repro_commands_applied_total",
            "Replicated-log commands applied at this replica", labels)
        self.body_fetches = reg.counter(
            "repro_service_body_fetches_total",
            "body_req rounds sent for a decided slot whose batch was missing",
            labels)
        self.bodies_rejected = reg.counter(
            "repro_service_bodies_rejected_total",
            "Batch bodies refused: hash differs from the decided digest",
            labels)
        self.decision_latency = reg.histogram(
            "repro_decision_latency_seconds",
            "Agreement latency: initiation (tau_g) to decision, wall seconds",
            labels)
        self.decide_latency = reg.histogram(
            "repro_decide_latency_seconds",
            "Service decide latency: command arrival to decided, seconds",
            labels)
        self._decide_seen = 0

    def observe_decision(self, decision) -> None:
        """Feed one agreement decision into the latency histogram.

        Aborts whose initiation never anchored carry ``tau_g_real=None``;
        they are counted but have no latency to observe.  This callback
        sits at the head of the node's decision-tap chain, so it must
        never raise -- an exception here would unwind the dispatch before
        the applier/coordinator taps see the outcome.
        """
        self.decisions.inc()
        if decision.tau_g_real is None:
            return
        latency_units = decision.returned_real - decision.tau_g_real
        if latency_units >= 0.0:
            self.decision_latency.observe(latency_units * self.time_scale)

    def sample(
        self, transport=None, host=None, node=None, service=None
    ) -> None:
        """Snapshot every externally maintained counter (loop thread only)."""
        if transport is not None:
            self.sent.set_total(transport.sent_count)
            self.arrivals.set_total(transport.delivered_count)
            self.authenticated.set_total(transport.delivered_count)
            self.rejected.set_total(transport.rejected_count)
            self.dropped.set_total(transport.dropped_count)
            self.datagrams.set_total(getattr(transport, "datagrams_sent", 0))
        if host is not None:
            self.live_timers.set(host.live_timer_count())
        if node is not None:
            self.live_instances.set(len(node.instances))
            self.watch_fires.set_total(node.watch_fires())
            self.live_watches.set(node.live_watches())
        if service is not None:
            applier = getattr(service, "applier", None)
            if applier is not None:
                self.commands_applied.set_total(applier.commands_applied)
                self.live_instances.set(applier.live_slot_instances)
                self.body_fetches.set_total(applier.body_fetches)
                self.bodies_rejected.set_total(applier.bodies_rejected)
            coordinator = getattr(service, "coordinator", None)
            if coordinator is not None:
                latencies = coordinator.latencies
                for latency in latencies[self._decide_seen:]:
                    self.decide_latency.observe(latency)
                self._decide_seen = len(latencies)

    def render(self) -> str:
        return self.registry.render()


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NodeMetrics",
    "REQUIRED_SERIES",
    "parse_prometheus_text",
]
