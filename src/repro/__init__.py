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

from repro.core.agreement import AgreementInstance, Decision, ProtocolNode
from repro.core.initiator_accept import InitiatorAccept
from repro.core.msgd_broadcast import MsgdBroadcast
from repro.core.params import BOTTOM, ProtocolParams, max_faults

__version__ = "1.0.0"


def __getattr__(name: str):
    # The simulator harness loads on first use, so a process that runs only
    # the protocol over the wire (a socket-backend child) never imports it.
    if name in ("Cluster", "ScenarioConfig"):
        from repro.harness import scenario

        return getattr(scenario, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AgreementInstance",
    "BOTTOM",
    "Cluster",
    "Decision",
    "InitiatorAccept",
    "MsgdBroadcast",
    "ProtocolNode",
    "ProtocolParams",
    "ScenarioConfig",
    "max_faults",
    "__version__",
]
