"""Node/process framework.

A :class:`~repro.node.base.Node` owns a drifting local clock, talks to the
world only through the network, and observes time only through local-time
intervals -- the exact discipline the paper's model imposes.  The
:class:`~repro.node.msglog.MessageLog` provides the sliding-window quorum
queries ("received X from >= k distinct nodes within [tau - a, tau]") that
every block of the paper's primitives is written in terms of.
"""

from repro.node.base import Node
from repro.node.msglog import MessageLog

__all__ = ["MessageLog", "Node"]
