"""Fault models: permanent Byzantine behaviour and transient corruption.

* :mod:`repro.faults.byzantine` -- Byzantine node strategies, from silent
  crashes to equivocating Generals and two-faced quorum-splitting
  participants.  A Byzantine node is *not* a modified protocol node: it is a
  raw :class:`~repro.node.base.Node` that can emit any protocol message to
  any subset at any time, which is exactly the adversary's power in the
  model (the network still authenticates its identity).
* :mod:`repro.faults.transient` -- the transient-fault injector: scrambles
  node protocol state, clock readings, and puts forged messages in flight,
  modelling the paper's "each node may be at an arbitrary state" starting
  condition.
* :mod:`repro.faults.timeline` -- declarative fault timelines: a
  :class:`~repro.faults.timeline.FaultScript` of timed, composable
  adversary actions (partition/heal, policy swaps, node churn, strategy
  hot-swaps, scheduled havoc), deterministic from the master seed and
  replayable at any worker count.
"""

from repro import _lazy

__getattr__, __all__ = _lazy(__name__, {
    "repro.faults.byzantine": (
        "ByzantineNode",
        "CrashStrategy",
        "EquivocatingGeneralStrategy",
        "MirrorParticipantStrategy",
        "ScriptedStrategy",
        "SelectiveGeneralStrategy",
        "SplitWorldStrategy",
        "StaggeredGeneralStrategy",
        "TwoFacedParticipantStrategy",
    ),
    "repro.faults.timeline": (
        "Coherent",
        "Crash",
        "FaultAction",
        "FaultScript",
        "Havoc",
        "Heal",
        "Isolate",
        "Partition",
        "Reconnect",
        "Restart",
        "SwapPolicy",
        "SwapStrategy",
        "build_timeline",
    ),
    "repro.faults.transient": ("TransientFaultInjector",),
})
