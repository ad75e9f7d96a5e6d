"""Golden per-copy draw streams for every delivery policy, on both fabrics.

Golden rows and trace digests see the delay draws only through the
decisions they lead to; this file pins the draws themselves.  For each
policy in :mod:`repro.net.delivery` (and the two test-only ones in
``tests/adversaries.py``) a fixed send/broadcast script runs on
the sim :class:`~repro.net.network.Network` and on the wall-clock
:class:`~repro.runtime.wire.WireTransport` (through its in-process
carrier), and every ``decide`` call is recorded as ``(sender, receiver,
delay, drop cause)`` in call order.  The sequences, the sim's delivery
order with its transit times, the multiset the wire delivered, and the
per-cause drop counters must match ``tests/data/golden_draw_streams.json``
exactly.

Regenerate (only when a PR changes the draw stream on purpose, and say
so in the PR)::

    PYTHONPATH=src:. python tests/test_draw_stream.py --write
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

import pytest

from repro.net.delivery import (
    BurstyDelay,
    FixedDelay,
    LinkPartitionPolicy,
    UniformDelay,
)
from repro.net.network import Network
from repro.runtime.aio import AsyncioTransport
from repro.sim.engine import Simulator
from repro.sim.rand import RandomSource
from repro.sim.trace import Tracer

from tests.adversaries import AdversarialDelay, IncoherentDelivery

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_draw_streams.json"
NODES = range(5)
STEP = 0.4  # protocol units between script steps
CUT_FROM, CUT_UNTIL, CUT_NODE = 6, 9, 4  # a node cut at the fabric level


def _policies(now_fn) -> dict:
    return {
        "fixed": FixedDelay(0.5),
        "uniform": UniformDelay(0.2, 1.0),
        "adversarial": AdversarialDelay(0.1, 1.0, frozenset({1, 3})),
        "link_partition": LinkPartitionPolicy(
            UniformDelay(0.2, 1.0), frozenset({0, 1})
        ),
        "incoherent": IncoherentDelivery(0.3, 3.0),
        "bursty": BurstyDelay(
            now_fn, period=1.0, fast_max=0.1, slow_min=0.5, slow_max=1.0
        ),
    }


class _Recorder:
    """Records every decision its inner policy makes, in call order."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.rows: list[list] = []

    def decide(self, sender, receiver, payload, rng):
        decision = self.inner.decide(sender, receiver, payload, rng)
        if decision.drop:
            cause = "partition" if decision.partition else "policy"
            self.rows.append([sender, receiver, None, cause])
        else:
            self.rows.append([sender, receiver, decision.delay, ""])
        return decision

    def min_delay(self) -> float:
        return self.inner.min_delay()


def _script(fabric, clock: list, cut, heal, advance) -> None:
    """Twelve steps: broadcasts, every third a point-to-point send."""
    for step in range(12):
        clock[0] = step * STEP
        if step == CUT_FROM:
            cut(CUT_NODE)
        if step == CUT_UNTIL:
            heal(CUT_NODE)
        sender = step % len(NODES)
        if step % 3 == 2:
            fabric.send(sender, (sender + 2) % len(NODES), f"p{step}")
        else:
            fabric.broadcast(sender, f"b{step}")
        advance()


def _record_sim(name: str) -> dict:
    sim = Simulator()
    clock = [0.0]
    recorder = _Recorder(_policies(lambda: clock[0])[name])
    net = Network(sim, recorder, RandomSource(2024, "net"), Tracer(enabled=False))
    arrivals: list[list] = []
    for node in NODES:
        net.register(
            node,
            lambda env: arrivals.append(
                [env.sender, env.receiver, env.payload, env.delivered_at - env.sent_at]
            ),
        )
    _script(
        net,
        clock,
        net.partition,
        net.heal,
        lambda: sim.run_until(sim.now + STEP),
    )
    sim.run()
    return {
        "draws": recorder.rows,
        "deliveries": arrivals,
        "counters": {
            "sent": net.sent_count,
            "delivered": net.delivered_count,
            "dropped_partition": net.dropped_partition,
            "dropped_policy": net.dropped_policy,
        },
    }


def _record_wire(name: str) -> dict:
    async def run() -> dict:
        clock = [0.0]
        recorder = _Recorder(_policies(lambda: clock[0])[name])
        transport = AsyncioTransport(
            time_scale=0.0005, policy=recorder, rand=RandomSource(2024, "wire")
        )
        arrivals: list[list] = []
        for node in NODES:
            transport.register(
                node,
                lambda env: arrivals.append([env.sender, env.receiver, env.payload]),
            )
        _script(
            transport,
            clock,
            lambda node: transport.isolate({node}),
            lambda node: transport.reconnect({node}),
            lambda: None,
        )
        expected = transport.sent_count - transport.dropped_count
        deadline = time.monotonic() + 2.0
        while len(arrivals) < expected and time.monotonic() < deadline:
            await asyncio.sleep(0.001)
        transport.close()
        return {
            "draws": recorder.rows,
            "delivered": sorted(arrivals),
            "counters": {
                "sent": transport.sent_count,
                "delivered": transport.delivered_count,
                "dropped": transport.dropped_count,
                "dropped_fault": transport.dropped_fault_count,
            },
        }

    return asyncio.run(run())


POLICY_NAMES = tuple(_policies(lambda: 0.0))


def _record_all() -> dict:
    return {
        "sim": {name: _record_sim(name) for name in POLICY_NAMES},
        "wire": {name: _record_wire(name) for name in POLICY_NAMES},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _roundtrip(record: dict) -> dict:
    # The golden file went through JSON; float identity survives it.
    return json.loads(json.dumps(record))


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_sim_network_draw_stream(golden, name) -> None:
    assert _roundtrip(_record_sim(name)) == golden["sim"][name]


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_wire_transport_draw_stream(golden, name) -> None:
    assert _roundtrip(_record_wire(name)) == golden["wire"][name]


def test_golden_streams_exercise_every_outcome(golden) -> None:
    """The script reaches delays, policy drops and partition drops."""
    causes = {
        row[3]
        for backend in golden.values()
        for record in backend.values()
        for row in record["draws"]
    }
    assert causes == {"", "policy", "partition"}
    assert golden["sim"]["uniform"]["counters"]["dropped_partition"] > 0  # the cut


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN_PATH.write_text(json.dumps(_record_all(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
