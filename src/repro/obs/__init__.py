"""Live-cluster observability: Prometheus /metrics, /status, /faults.

One :class:`ControlPlane` serves either wall-clock backend through the
cluster lifecycle surface (``render_metrics``, ``status_snapshot``,
``inject_fault_script``); :class:`NodeMetrics` is one node's series.
"""

from repro.faults.live import parse_fault_payload
from repro.obs.control import ControlPlane
from repro.obs.http import MAX_BODY_BYTES, ObservabilityServer
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NodeMetrics,
    REQUIRED_SERIES,
    parse_prometheus_text,
)

__all__ = [
    "ControlPlane",
    "DEFAULT_BUCKETS",
    "MAX_BODY_BYTES",
    "MetricsRegistry",
    "NodeMetrics",
    "ObservabilityServer",
    "REQUIRED_SERIES",
    "parse_fault_payload",
    "parse_prometheus_text",
]
