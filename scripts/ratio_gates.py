#!/usr/bin/env python
"""CI gate: each fast path must beat the reference it replaced by a ratio.

Four gates, one workload each.  Every gate runs the same input through the
fast path and through its reference, checks that both give the same
answer (a speedup over a different answer is fiction), and times both,
best of ``REPEATS`` alternating passes per side.  An attempt fails when
the ratio is under its ``floor``, or more than ``ALLOWED_DROP`` under its
``baseline``, the ratio last recorded for it; a gate fails when all
``ATTEMPTS`` of its attempts fail:

====================  ===========================  ============================  =====  ========
gate                  fast path                    reference                     floor  baseline
====================  ===========================  ============================  =====  ========
msglog_window_query   ``node.msglog.MessageLog``   ``oracles.msglog_ref``        3.0    17.7
evaluator_push        ``core.msgd_broadcast``      ``oracles.eval_ref`` (eager)  3.0    4.5
wire_batch_pipeline   skeleton encode + BATCH      ``encode_frame`` per message  3.0    3.4
wire_compiled_decode  ``FrameDecoder`` plans       generic tree decode           2.5    4.2
====================  ===========================  ============================  =====  ========

The floor is the promise a fast path was built to keep; the baseline
catches a fast path that keeps it while losing most of its lead.  A ratio
of two timings on one box travels between machines far better than either
timing, so both are gated on every push.  Absolute throughput and
end-to-end cost are measured by ``bench/run.py`` against
``BENCHMARK.json``.

Run::

    python scripts/ratio_gates.py

Prints one line per attempt and exits 1 if any gate fails all of its
attempts.
"""

from __future__ import annotations

import heapq
import itertools
import os
import sys
import time
from typing import Callable, NamedTuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, REPO)  # the references live in tests/oracles/

from repro.core.messages import (  # noqa: E402
    ApproveMsg,
    MBEchoMsg,
    MBEchoPrimeMsg,
    MBInitMsg,
    MBInitPrimeMsg,
    ReadyMsg,
    SupportMsg,
)
from repro.core.msgd_broadcast import MsgdBroadcast  # noqa: E402
from repro.core.params import ProtocolParams  # noqa: E402
from repro.node.msglog import MessageLog  # noqa: E402
from repro.runtime import framing  # noqa: E402
from repro.runtime.framing import (  # noqa: E402
    FrameBatcher,
    FrameDecoder,
    FrameEncoder,
    decode_frames,
    derive_key,
    encode_frame,
)
from tests.oracles.eval_ref import ReferenceMsgdBroadcast  # noqa: E402
from tests.oracles.msglog_ref import ReferenceMessageLog  # noqa: E402


#: Timed passes per side; each gate keeps the best of them.  The wire
#: pipeline's ratio sits near its floor, and on a shared 2-core box best
#: of 7 read under 3.0x in one run in six; best of 21 did not in 20
#: standalone runs.
REPEATS = 21
#: A gate fails only when every attempt fails.  On a shared 2-core box the
#: wire pipeline reads 3.2-3.7x while the box runs fast and 2.7-3.4x in a
#: slow spell; a fast path that really fell under its floor or its
#: baseline's allowance fails every attempt.
ATTEMPTS = 3
#: How far a ratio may fall below its gate's baseline before it fails.
ALLOWED_DROP = 0.20


def race(fast: Callable[[], object], ref: Callable[[], object], repeats: int) -> tuple:
    """Best wall time of each side over ``repeats`` alternating passes.

    Alternating puts a noisy spell on a shared box into both columns
    instead of one.  Returns ``(fast_s, ref_s, fast_result, ref_result)``
    with the results of the last pass.
    """
    best = [float("inf"), float("inf")]
    results: list = [None, None]
    for _ in range(repeats):
        for side, fn in enumerate((fast, ref)):
            start = time.perf_counter()
            results[side] = fn()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1], results[0], results[1]


# ---------------------------------------------------------------------------
# msglog: sliding count_distinct_in window queries, incremental vs naive scan
# ---------------------------------------------------------------------------
LOG_KEY = ("support", 0, "m1")
LOG_SENDERS = 40
LOG_WAVES = 60
LOG_QUERIES = 1000
LOG_WINDOW = 3.0


def _filled(log):
    # Senders interleave along the time axis, the way rounds arrive, plus
    # a sprinkle of out-of-order corruption records.
    t = 0.0
    for _wave in range(LOG_WAVES):
        for sender in range(LOG_SENDERS):
            log.add(LOG_KEY, sender, t)
            t += 0.01
    for sender in range(0, LOG_SENDERS, 7):
        log.corrupt_insert(LOG_KEY, sender, 0.5 * t)
    return log


def _window_queries(log) -> int:
    step = LOG_WAVES * LOG_SENDERS * 0.01 / LOG_QUERIES
    checksum = 0
    t = LOG_WINDOW
    for _ in range(LOG_QUERIES):
        checksum += log.count_distinct_in(LOG_KEY, t - LOG_WINDOW, t)
        t += step
    return checksum


def msglog_window_query(repeats: int = REPEATS) -> tuple[float, float]:
    fast, naive = _filled(MessageLog()), _filled(ReferenceMessageLog())
    fast_s, ref_s, fast_sum, ref_sum = race(
        lambda: _window_queries(fast), lambda: _window_queries(naive), repeats
    )
    assert fast_sum == ref_sum, "MessageLog and the reference disagree"
    return fast_s, ref_s


# ---------------------------------------------------------------------------
# msgd-broadcast evaluator: push subscriptions vs the eager pull evaluator
# ---------------------------------------------------------------------------
EVAL_N = 64
EVAL_F = 21
EVAL_ORIGINS = 6
EVAL_ROUNDS = 2


class _Timer:
    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _ManualHost:
    """Deterministic host for one evaluator: manual clock, counted sends."""

    trace_enabled = True

    def __init__(self, params: ProtocolParams) -> None:
        self.params = params
        self.node_id = 0
        self.local = 0.0
        self.sent = 0
        self._timers: list = []
        self._seq = itertools.count()

    def now(self) -> float:
        return self.local

    def broadcast(self, payload: object) -> None:
        self.sent += 1

    def trace(self, kind: str, **detail: object) -> None:
        pass

    def schedule_after(self, delay_local: float, action, tag: str = "") -> _Timer:
        handle = _Timer()
        heapq.heappush(self._timers, (self.local + delay_local, next(self._seq), action, handle))
        return handle

    def advance(self, delta: float) -> None:
        target = self.local + delta
        while self._timers and self._timers[0][0] <= target:
            at, _seq, action, handle = heapq.heappop(self._timers)
            if handle.cancelled:
                continue
            self.local = max(self.local, at)
            action()
        self.local = target


def _evaluator_stream(params: ProtocolParams) -> list:
    # Every triplet reaches quorum on the first sweep; the duplicate second
    # sweep is the protocol's re-send tail, where the pull evaluator still
    # pays full window scans and the push evaluator's saturated skip is O(1).
    stream = []
    for k in range(1, EVAL_ROUNDS + 1):
        for origin in range(1, EVAL_ORIGINS + 1):
            stream.append((MBInitMsg(0, origin, "m", k), origin))
            for cls in (MBEchoMsg, MBInitPrimeMsg, MBEchoPrimeMsg):
                for sender in range(params.n):
                    stream.append((cls(0, origin, "m", k), sender))
    return stream * 2


def _evaluator_run(mb_cls) -> tuple[float, tuple]:
    params = ProtocolParams(n=EVAL_N, f=EVAL_F, delta=1.0, rho=0.0)
    host = _ManualHost(params)
    accepts: list = []
    mb = mb_cls(host, 0, lambda *args: accepts.append(args))
    mb.set_anchor(0.0)
    stream = _evaluator_stream(params)
    tick = params.d / 2048.0  # arrivals trickle in, all well before deadlines
    start = time.perf_counter()
    for msg, sender in stream:
        host.advance(tick)
        mb.on_message(msg, sender)
    wall = time.perf_counter() - start
    return wall, (host.sent, len(accepts), len(mb.accepted), len(mb.broadcasters))


def evaluator_push(repeats: int = REPEATS) -> tuple[float, float]:
    # Setup is excluded: each run times its own message loop, so this
    # alternates by hand instead of through race().
    push_s = pull_s = float("inf")
    for _ in range(repeats):
        wall, push_out = _evaluator_run(MsgdBroadcast)
        push_s = min(push_s, wall)
        wall, pull_out = _evaluator_run(ReferenceMsgdBroadcast)
        pull_s = min(pull_s, wall)
    assert push_out == pull_out, "push and pull evaluators disagree"
    return push_s, pull_s


# ---------------------------------------------------------------------------
# Wire: lean encode + BATCH coalescing vs one fresh frame per message
# ---------------------------------------------------------------------------
WIRE_KEY = derive_key("ratio-gates")
WIRE_MSGS = 2000
WIRE_RECEIVERS = 8  # a broadcast wave fans each message out to n-1 peers


def _protocol_stream(count: int) -> list:
    stream = []
    for i in range(count):
        k = 1 + i % 3
        origin = i % WIRE_RECEIVERS
        stream.append(
            (
                MBInitMsg(0, origin, "m", k),
                MBEchoMsg(0, origin, "m", k),
                SupportMsg(i % 4, "v"),
                ApproveMsg(i % 4, ("t", i % 7)),
            )[i % 4]
        )
    return stream


def _lean_pipeline(stream, encoder: FrameEncoder, batcher: FrameBatcher) -> None:
    for i, msg in enumerate(stream):
        batcher.add(i % WIRE_RECEIVERS, 0, encoder.encode_body(msg, 1.0))
    batcher.flush()


def _reference_pipeline(stream) -> int:
    return sum(len(encode_frame(0, msg, WIRE_KEY, sent_at=1.0)) for msg in stream)


def wire_batch_pipeline(repeats: int = REPEATS) -> tuple[float, float]:
    stream = _protocol_stream(WIRE_MSGS)
    encoder = FrameEncoder(WIRE_KEY)
    timed = FrameBatcher(encoder, lambda receiver, buf, count: None)
    lean_s, ref_s, _, _ = race(
        lambda: _lean_pipeline(stream, encoder, timed),
        lambda: _reference_pipeline(stream),
        repeats,
    )

    decoded: dict[int, list] = {}
    replay = FrameBatcher(
        encoder,
        lambda receiver, buf, count: decoded.setdefault(receiver, []).extend(
            frame.payload for frame in decode_frames(bytes(buf), WIRE_KEY)
        ),
    )
    _lean_pipeline(stream, encoder, replay)
    expected = {
        r: [m for i, m in enumerate(stream) if i % WIRE_RECEIVERS == r]
        for r in range(WIRE_RECEIVERS)
    }
    assert decoded == expected, "the lean pipeline does not decode back to its input"
    return lean_s, ref_s


# ---------------------------------------------------------------------------
# Wire: compiled decode plans vs the generic tree decode, per envelope
# ---------------------------------------------------------------------------
def _service_stream(count: int) -> list:
    # What the log service puts on the wire, all distinct: general =
    # (primary, slot) with the slot past uint8 and a 32-hex batch digest.
    digest = "0123456789abcdef" * 2
    stream = []
    for i in range(count):
        general = (0, 200 + i)
        stream.append(
            (
                MBInitMsg(general, i % 4, digest, 1),
                MBEchoMsg(general, i % 4, digest, 1),
                SupportMsg(general, digest),
                ReadyMsg(general, digest),
            )[i % 4]
        )
    return stream


def wire_compiled_decode(repeats: int = REPEATS) -> tuple[float, float]:
    # Envelope decode only: the tag check is the same on every path.  Each
    # compiled pass starts a fresh decoder over distinct payloads, so the
    # memo never answers (its upkeep is still paid).
    encoder = FrameEncoder(WIRE_KEY)
    stream = _service_stream(WIRE_MSGS)
    bodies = [encoder.encode_body(m, 1.0) for m in stream]

    def compiled(decoder: FrameDecoder) -> list:
        return [decoder._envelope(b, 0, len(b))[1] for b in bodies]

    cold = FrameDecoder(WIRE_KEY)
    assert compiled(cold) == stream, "compiled decode does not match the input"
    assert (cold.compiled, cold.generic) == (WIRE_MSGS, 0), "a decode plan fell back"
    fast_s, ref_s, _, _ = race(
        lambda: compiled(FrameDecoder(WIRE_KEY)),
        lambda: [framing._decode_envelope(b) for b in bodies],
        repeats,
    )
    return fast_s, ref_s


class Gate(NamedTuple):
    name: str
    run: Callable[..., tuple[float, float]]
    floor: float
    #: The ratio recorded for this workload on a 2-core Xeon @ 2.10GHz
    #: (the legacy suite's last committed figure).
    baseline: float

    def verdict(self, ratio: float) -> str:
        if ratio < self.floor:
            return "under floor"
        if ratio < (1.0 - ALLOWED_DROP) * self.baseline:
            return f"more than {ALLOWED_DROP:.0%} under baseline"
        return "ok"


GATES = (
    Gate("msglog_window_query", msglog_window_query, 3.0, 17.7),
    Gate("evaluator_push", evaluator_push, 3.0, 4.5),
    Gate("wire_batch_pipeline", wire_batch_pipeline, 3.0, 3.4),
    Gate("wire_compiled_decode", wire_compiled_decode, 2.5, 4.2),
)


def main() -> int:
    failed = []
    for gate in GATES:
        for attempt in range(1, ATTEMPTS + 1):
            fast_s, ref_s = gate.run()
            ratio = ref_s / fast_s
            verdict = gate.verdict(ratio)
            print(
                f"{gate.name:22s} {ratio:5.2f}x  (floor {gate.floor}x, baseline "
                f"{gate.baseline}x; fast {fast_s * 1e3:.1f} ms, reference "
                f"{ref_s * 1e3:.1f} ms)  {verdict}"
                + ("" if verdict == "ok" else f", attempt {attempt}/{ATTEMPTS}")
            )
            if verdict == "ok":
                break
        else:
            failed.append(gate.name)
    if failed:
        print(f"ratio gates failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
