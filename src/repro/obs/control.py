"""The cluster control plane: /metrics, /status, /faults over a live cluster.

:class:`ControlPlane` is one :class:`~repro.obs.http.ObservabilityServer`
wired to the lifecycle surface both wall-clock backends provide, on a
cluster or on the service running over it.  ``GET /metrics`` renders
``target.render_metrics()``: every node's series on asyncio, the
supervisor's on the socket parent (each child serves its own at its
``metrics_url``).  ``GET /status`` is ``target.status_snapshot()``; both
backends report ``backend``, ``n``, ``f``, ``started``,
``faults_injected`` and, per node, ``alive``, ``restarts`` and
``metrics_url``.  ``POST /faults`` calls ``target.inject_fault_script``
with the JSON actions :meth:`~repro.faults.timeline.FaultScript.from_spec`
parses, e.g.::

    [{"at_d": 0.0, "do": "crash", "nodes": [2], "state_loss": true},
     {"at_d": 6.0, "do": "restart", "nodes": [2]}]

``at_d`` offsets count from injection, so ``at_d: 0`` means "now".  The
handlers run off the loop thread: the asyncio cluster runs render and
status on its loop, with a bounded wait, and the socket parent reads plain
fields.  The plane never branches on the backend.
"""

from __future__ import annotations

from repro.obs.http import ObservabilityServer


class ControlPlane(ObservabilityServer):
    """Serve a cluster's (or service's) lifecycle surface over HTTP."""

    def __init__(self, target, port: int = 0) -> None:
        self.target = target
        super().__init__(
            render=target.render_metrics,
            status=target.status_snapshot,
            faults=target.inject_fault_script,
            port=port,
        )


__all__ = ["ControlPlane"]
