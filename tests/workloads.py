"""Soak-test drivers: multi-agreement traffic patterns over a sim cluster.

The single-agreement experiments (E1..E10) isolate one claim each; the
drivers here run long streams of agreements, several Generals
interleaving, nodes crashing and recovering mid-stream, with the property
checkers run continuously.  Used by the soak tests in
``tests/test_workloads.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.messages import Value
from repro.harness import properties
from repro.harness.scenario import Cluster


@dataclass
class AgreementRecord:
    """One completed agreement in a workload run."""

    general: int
    value: Value
    initiated_real: float
    since_real: float
    validity_ok: bool
    agreement_ok: bool


def _wait_until_may_propose(cluster: Cluster, general: int, value: Value) -> None:
    node = cluster.protocol_node(general)
    guard = 0
    while not node.may_propose(value):
        cluster.run_for(cluster.params.d)
        guard += 1
        if guard > 10_000:
            raise RuntimeError(f"general {general} never allowed to propose")


def run_sequential_stream(
    cluster: Cluster,
    general: int,
    values: Sequence[Value],
    settle_d: float = 10.0,
) -> list[AgreementRecord]:
    """One General agrees on a stream of values, respecting its pacing."""
    records = []
    for value in values:
        _wait_until_may_propose(cluster, general, value)
        since = cluster.sim.now
        t0 = cluster.sim.now
        assert cluster.propose(general=general, value=value)
        cluster.run_for(cluster.params.delta_agr + settle_d * cluster.params.d)
        records.append(
            AgreementRecord(
                general=general,
                value=value,
                initiated_real=t0,
                since_real=since,
                validity_ok=properties.validity(
                    cluster, general, value, since_real=since
                ).holds,
                agreement_ok=properties.agreement(
                    cluster, general, since_real=since
                ).holds,
            )
        )
    return records


def run_round_robin_generals(
    cluster: Cluster,
    generals: Sequence[int],
    rounds: int,
    settle_d: float = 10.0,
) -> list[AgreementRecord]:
    """Different Generals take turns initiating; instances are independent."""
    records = []
    for round_idx in range(rounds):
        for general in generals:
            value = f"g{general}-r{round_idx}"
            _wait_until_may_propose(cluster, general, value)
            since = cluster.sim.now
            t0 = cluster.sim.now
            assert cluster.propose(general=general, value=value)
            cluster.run_for(cluster.params.delta_agr + settle_d * cluster.params.d)
            records.append(
                AgreementRecord(
                    general=general,
                    value=value,
                    initiated_real=t0,
                    since_real=since,
                    validity_ok=properties.validity(
                        cluster, general, value, since_real=since
                    ).holds,
                    agreement_ok=properties.agreement(
                        cluster, general, since_real=since
                    ).holds,
                )
            )
    return records


def run_interleaved_generals(
    cluster: Cluster,
    generals: Sequence[int],
    values_per_general: int,
    settle_d: float = 10.0,
) -> list[AgreementRecord]:
    """All Generals initiate *concurrently* each round (distinct instances)."""
    records = []
    for round_idx in range(values_per_general):
        launched: list[tuple[int, Value, float, float]] = []
        for general in generals:
            value = f"g{general}-v{round_idx}"
            _wait_until_may_propose(cluster, general, value)
            since = cluster.sim.now
            t0 = cluster.sim.now
            assert cluster.propose(general=general, value=value)
            launched.append((general, value, t0, since))
        cluster.run_for(cluster.params.delta_agr + settle_d * cluster.params.d)
        for general, value, t0, since in launched:
            records.append(
                AgreementRecord(
                    general=general,
                    value=value,
                    initiated_real=t0,
                    since_real=since,
                    validity_ok=properties.validity(
                        cluster, general, value, since_real=since
                    ).holds,
                    agreement_ok=properties.agreement(
                        cluster, general, since_real=since
                    ).holds,
                )
            )
    return records


@dataclass
class ChurnEvent:
    """Crash or resume a node at a given workload step."""

    step: int
    node: int
    action: str  # "crash" | "resume"


def run_churn_stream(
    cluster: Cluster,
    general: int,
    values: Sequence[Value],
    churn: Sequence[ChurnEvent],
    settle_d: float = 10.0,
) -> list[AgreementRecord]:
    """A sequential stream with nodes crashing/resuming between agreements.

    Crashed nodes are counted against ``f``; the caller must keep the
    concurrent crash count within the fault bound.  Resumed nodes rejoin
    with whatever state they had (the paper's non-faulty-but-not-yet-correct
    phase) -- the stream's later agreements must still be clean at the
    *continuously-correct* nodes, which is what the record's flags check.
    """
    by_step: dict[int, list[ChurnEvent]] = {}
    for event in churn:
        by_step.setdefault(event.step, []).append(event)
    crashed: set[int] = set()
    records = []
    for step, value in enumerate(values):
        for event in by_step.get(step, ()):
            node = cluster.protocol_node(event.node)
            if event.action == "crash":
                node.crash()
                crashed.add(event.node)
            elif event.action == "resume":
                node.resume()
                node.every_local(cluster.params.d, node._cleanup_tick)
                crashed.discard(event.node)
            else:
                raise ValueError(f"unknown churn action {event.action!r}")
        if len(crashed) > cluster.params.f:
            raise ValueError("churn exceeds the fault bound f")
        _wait_until_may_propose(cluster, general, value)
        since = cluster.sim.now
        t0 = cluster.sim.now
        assert cluster.propose(general=general, value=value)
        cluster.run_for(cluster.params.delta_agr + settle_d * cluster.params.d)
        # Validity/agreement among the nodes that were up throughout (a
        # crashed node cannot return anything, and a freshly resumed node is
        # non-faulty but not yet *correct* per Definition 4).
        up_ids = [i for i in cluster.correct_ids if i not in crashed]
        latest = cluster.latest_decision_per_node(general, since_real=since)
        validity_ok = all(
            node_id in latest and latest[node_id].value == value
            for node_id in up_ids
        )
        up_values = {
            latest[node_id].value
            for node_id in up_ids
            if node_id in latest and latest[node_id].decided
        }
        agreement_ok = len(up_values) <= 1
        records.append(
            AgreementRecord(
                general=general,
                value=value,
                initiated_real=t0,
                since_real=since,
                validity_ok=validity_ok,
                agreement_ok=agreement_ok,
            )
        )
    return records


__all__ = [
    "AgreementRecord",
    "ChurnEvent",
    "run_churn_stream",
    "run_interleaved_generals",
    "run_round_robin_generals",
    "run_sequential_stream",
]
