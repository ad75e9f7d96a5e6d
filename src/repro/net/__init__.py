"""Authenticated bounded-delay message network (paper Definition 2).

When the network is *non-faulty* every message from a non-faulty node arrives
within ``delta`` real-time units with sender identity and content intact.
When it is *faulty* (the transient period before coherence) anything goes:
messages may be dropped, delayed arbitrarily, reordered, and spurious
messages with forged sender identities may be injected -- everything except
the one thing the model never allows, which is breaking sender
authentication *after* the network becomes correct.

The fabric keeps per-cause drop counters (``dropped_partition`` for copies
suppressed by a severed link or node cut, ``dropped_policy`` for ordinary
lossy-policy drops; ``dropped_count`` is their sum) so scenario reports can
attribute message loss to the adversary action that caused it.
"""

from repro import _lazy

__getattr__, __all__ = _lazy(__name__, {
    "repro.net.delivery": (
        "BurstyDelay",
        "DeliveryDecision",
        "DeliveryPolicy",
        "FixedDelay",
        "LinkPartitionPolicy",
        "UniformDelay",
    ),
    "repro.net.network": ("Envelope", "Network"),
})
