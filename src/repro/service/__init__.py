"""Replicated command-log service on the wall-clock backends.

The long-lived deployment shape the paper's introduction motivates: a
primary pipelines slot-indexed agreement instances (footnote 9's concurrent
invocations) under a bounded in-flight window, replicas apply decided slots
in index order and **retire** each slot's protocol state shortly after
apply, and an open-loop workload generator sustains client traffic against
the whole stack.

Pieces
------
* :class:`~repro.service.coordinator.LogCoordinator` -- primary-side slot
  pipeline: batches client commands into one slot, ships the batch body
  once per replica and proposes its digest as the agreement value,
  launches up to ``window`` concurrent slots, re-enqueues aborted batches,
  and stamps per-command decide latency.
* :class:`~repro.service.applier.ReplicaApplier` -- replica-side applier:
  in-index-order apply with gap buffering, a decided digest held until
  the body that hashes to it is present (fetched from any peer if lost),
  abort slots recorded as skips, and scheduled retirement of each applied
  slot's :class:`~repro.core.agreement.AgreementInstance` so live protocol
  state stays bounded by the window, not the log length.
* :class:`~repro.service.service.NodeService` -- one node's applier, the
  coordinator on the primary, and a sampler checking live state against
  an O(window) bound during the run, hosted alike on both backends.
* :func:`~repro.service.workload.arrival_offsets` -- the Poisson or
  fixed-interval schedule both backends play; latency stamps are these
  *theoretical* arrivals, so queueing delay is measured, not hidden.
* :class:`~repro.service.service.ReplicatedLogService` -- a ``NodeService``
  per correct node of one asyncio cluster;
  :class:`~repro.service.socket_service.SocketLogService` -- one in each
  node's own OS process on the UDP socket backend.
"""

from repro.service.applier import ReplicaApplier, batch_digest
from repro.service.coordinator import LogCoordinator
from repro.service.service import NodeService, ReplicatedLogService
from repro.service.service import ServiceReport
from repro.service.workload import OpenLoopWorkload, arrival_offsets

__all__ = [
    "LogCoordinator",
    "NodeService",
    "OpenLoopWorkload",
    "ReplicaApplier",
    "ReplicatedLogService",
    "ServiceReport",
    "arrival_offsets",
    "batch_digest",
]
