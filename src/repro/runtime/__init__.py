"""Runtime backends behind the sans-I/O protocol host API.

* :mod:`repro.runtime.api` -- the :class:`~repro.runtime.api.ProtocolHost`
  interface the protocol core compiles against (the only module ``repro.core``
  may import outside itself and ``repro.node.msglog``).
* :mod:`repro.runtime.sim_host` -- the discrete-event backend (bit-identical
  adapter over ``repro.sim``).
* :mod:`repro.runtime.wire` -- the one wall-clock transport (policy draws,
  drop matrix, coalescing, counters) both backends below carry.
* :mod:`repro.runtime.aio` -- the asyncio backend: real coroutines,
  wall-clock-scaled timers, the in-process carrier.
* :mod:`repro.runtime.socket_host` -- the real-socket backend: the UDP
  carrier on localhost, one OS process per node.
* :mod:`repro.runtime.framing` -- the authenticated wire format that
  transport speaks.

Every name is imported lazily, so pulling in the API (or the sim adapter)
never drags the asyncio machinery along, and vice versa, and a socket
child's spawn entry loads nothing of the package before its port report.
"""

from repro import _lazy

__getattr__, __all__ = _lazy(__name__, {
    "repro.runtime.api": (
        "ALWAYS_ENABLED", "Delivery", "ProtocolHost", "RandomStream",
        "TimerHandle", "TimerRegistry", "TraceSink", "Transport",
    ),
    "repro.runtime.sim_host": ("SimHost", "NodeContext"),
    "repro.runtime.aio": (
        "AsyncioHost", "AsyncioTransport", "AsyncioCluster", "run_agreement_async"
    ),
    "repro.runtime.socket_host": (
        "SocketHost", "SocketTransport", "SocketCluster", "run_agreement_socket"
    ),
})
