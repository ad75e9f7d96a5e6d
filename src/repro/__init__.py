"""repro -- Self-stabilizing Byzantine Agreement (Daliot & Dolev, PODC 2006).

A from-scratch, simulation-backed reproduction of the ss-Byz-Agree protocol
and its two building blocks (Initiator-Accept and msgd-broadcast), together
with the discrete-event substrate, fault models, baselines and experiment
harness needed to reproduce every property the paper proves.

Quickstart
----------
>>> from repro import ProtocolParams, ScenarioConfig, Cluster
>>> params = ProtocolParams(n=4, f=1, delta=1.0)
>>> cluster = Cluster(ScenarioConfig(params=params, seed=7))
>>> cluster.propose(general=0, value="attack")
True
>>> cluster.run_for(params.delta_agr)
>>> {d.value for d in cluster.decisions(0)}
{'attack'}
"""

import importlib

__version__ = "1.0.0"


def _lazy(package: str, exports: dict[str, tuple[str, ...]]):
    """A package's module ``__getattr__`` and ``__all__``: ``{module: names}``.

    Each name imports its module on first use, so importing a package loads
    none of them: a socket-backend child, which runs only the protocol over
    the wire, never loads the simulator, the fault library or the harness.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(where[name]), name)

    return __getattr__, list(where)


__getattr__, __all__ = _lazy(__name__, {
    "repro.core.agreement": ("AgreementInstance", "Decision", "ProtocolNode"),
    "repro.core.initiator_accept": ("InitiatorAccept",),
    "repro.core.msgd_broadcast": ("MsgdBroadcast",),
    "repro.core.params": ("BOTTOM", "ProtocolParams", "max_faults"),
    "repro.harness.scenario": ("Cluster", "ScenarioConfig"),
})
__all__.append("__version__")
