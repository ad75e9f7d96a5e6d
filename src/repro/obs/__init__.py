"""Live-cluster observability: Prometheus /metrics, /status, /faults.

One :class:`ControlPlane` serves either wall-clock backend through the
cluster lifecycle surface (``render_metrics``, ``status_snapshot``,
``inject_fault_script``); :class:`NodeMetrics` is one node's series.
"""

from repro import _lazy

__getattr__, __all__ = _lazy(__name__, {
    "repro.faults.live": ("parse_fault_payload",),
    "repro.obs.control": ("ControlPlane",),
    "repro.obs.http": ("MAX_BODY_BYTES", "ObservabilityServer"),
    "repro.obs.metrics": (
        "DEFAULT_BUCKETS",
        "MetricsRegistry",
        "NodeMetrics",
        "REQUIRED_SERIES",
        "parse_prometheus_text",
    ),
})
