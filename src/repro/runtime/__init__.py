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

The backends are imported lazily so pulling in the API (or the sim adapter)
never drags the asyncio machinery along, and vice versa.
"""

from repro.runtime.api import (
    ALWAYS_ENABLED,
    Delivery,
    ProtocolHost,
    RandomStream,
    TimerHandle,
    TimerRegistry,
    TraceSink,
    Transport,
)

_LAZY = {
    "SimHost": "repro.runtime.sim_host",
    "NodeContext": "repro.runtime.sim_host",
    "AsyncioHost": "repro.runtime.aio",
    "AsyncioTransport": "repro.runtime.aio",
    "AsyncioCluster": "repro.runtime.aio",
    "run_agreement_async": "repro.runtime.aio",
    "SocketHost": "repro.runtime.socket_host",
    "SocketTransport": "repro.runtime.socket_host",
    "SocketCluster": "repro.runtime.socket_host",
    "run_agreement_socket": "repro.runtime.socket_host",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "ALWAYS_ENABLED",
    "AsyncioCluster",
    "AsyncioHost",
    "AsyncioTransport",
    "Delivery",
    "NodeContext",
    "ProtocolHost",
    "RandomStream",
    "SimHost",
    "SocketCluster",
    "SocketHost",
    "SocketTransport",
    "TimerHandle",
    "TimerRegistry",
    "TraceSink",
    "Transport",
    "run_agreement_async",
    "run_agreement_socket",
]
