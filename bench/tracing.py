"""Spans recorded from outside the program, around calls into each layer.

The traced run installs class-level wrappers on the layers' entry points
*before* any cluster is built (several are instance-bound at construction,
so a wrapper installed later would be bypassed).  Each call is a span: name,
start, end, the span that caused it, and a correlation id (agreement or
slot).  Per name the tracer accumulates calls, total time and **self time**
(the span's duration minus what its child spans cover); the first
``keep_spans`` spans are also kept whole and written out when the run ends.

Nothing under ``src/`` knows about this file.  A target that no longer
exists is skipped with a warning (its metrics read 0 until the layer map is
updated); a wrapper that exists but was never called, or whose count
disagrees with the program's own counter, fails the run -- see
``coverage_problems``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Optional

_CALLS, _TOTAL_NS, _SELF_NS, _UNITS, _ERRORS = range(5)


class SpanTracer:
    def __init__(
        self,
        keep_spans: int = 20_000,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.clock = clock
        #: name -> [calls, total_ns, self_ns, units, errors]
        self.agg: dict[str, list[int]] = {}
        #: retained spans: (id, parent id, name, start_ns, end_ns, corr)
        self.spans: list[tuple] = []
        self.keep_spans = keep_spans
        #: Ambient correlation id (the workload sets it per agreement).
        self.corr: object = None
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        units: Optional[Callable[[tuple, object], int]] = None,
        corr: Optional[Callable[[object], object]] = None,
    ) -> Callable:
        """Return ``fn`` recording one span per call under ``name``.

        ``units(args, result)`` adds to the name's unit count (copies per
        broadcast, events per run, bytes per frame); ``corr(self)`` gives the
        span its own correlation id instead of its parent's.
        """
        rec = self.agg.setdefault(name, [0, 0, 0, 0, 0])
        stack = self._stack
        spans = self.spans
        keep = self.keep_spans
        clock = self.clock
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            # frame: [ns covered by child spans, span id, correlation id]
            frame = [0, None, None]
            retain = len(spans) < keep
            if retain:
                tracer._next_id += 1
                frame[1] = tracer._next_id
                if corr is not None:
                    frame[2] = corr(args[0])
                elif parent is not None:
                    frame[2] = parent[2]
                else:
                    frame[2] = tracer.corr
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    rec[_UNITS] += units(args, result)
                return result
            except BaseException:
                rec[_ERRORS] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spent = end - start
                rec[_CALLS] += 1
                rec[_TOTAL_NS] += spent
                rec[_SELF_NS] += spent - frame[0]
                if parent is not None:
                    parent[0] += spent
                if retain:
                    spans.append(
                        (
                            frame[1],
                            parent[1] if parent is not None else None,
                            name,
                            start,
                            end,
                            frame[2],
                        )
                    )

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def patch(
        self,
        name: str,
        module: str,
        owner: Optional[str],
        attr: str,
        units: Optional[Callable[[tuple, object], int]] = None,
        corr: Optional[Callable[[object], object]] = None,
        replace: Optional[Callable[[Callable], Callable]] = None,
    ) -> bool:
        """Wrap ``module.owner.attr`` (or ``module.attr``) in place."""
        try:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = getattr(target, attr)
        except (ImportError, AttributeError):
            where = f"{module}.{owner + '.' if owner else ''}{attr}"
            print(f"trace: {where} not found; {name} skipped", file=sys.stderr)
            self.skipped.append(name)
            return False
        wrapped = (
            replace(original)
            if replace is not None
            else self.wrap(name, original, units=units, corr=corr)
        )
        setattr(target, attr, wrapped)
        self._restore.append((target, attr, original))
        return True

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _sum(self, field: int, names: tuple[str, ...]) -> int:
        return sum(self.agg[n][field] for n in names if n in self.agg)

    def calls(self, *names: str) -> int:
        return self._sum(_CALLS, names)

    def units(self, *names: str) -> int:
        return self._sum(_UNITS, names)

    def errors(self, *names: str) -> int:
        return self._sum(_ERRORS, names)

    def total_ns(self, *names: str) -> int:
        return self._sum(_TOTAL_NS, names)

    def self_ns(self, *names: str) -> int:
        """Duration of the named spans minus what their child spans cover."""
        return self._sum(_SELF_NS, names)

    def self_s(self, *names: str) -> float:
        return self.self_ns(*names) / 1e9

    def attributed_s(self) -> float:
        """Self time summed over every span name: time inside any wrapper."""
        return sum(rec[_SELF_NS] for rec in self.agg.values()) / 1e9

    def write(self, path: Path, extra: Optional[dict] = None) -> None:
        """Write the aggregates and the retained spans as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "aggregate": {
                name: {
                    "calls": rec[_CALLS],
                    "total_s": rec[_TOTAL_NS] / 1e9,
                    "self_s": rec[_SELF_NS] / 1e9,
                    "units": rec[_UNITS],
                    "errors": rec[_ERRORS],
                }
                for name, rec in sorted(self.agg.items())
            },
            "skipped": self.skipped,
            "spans_kept": len(self.spans),
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "corr"],
            "spans": [
                [sid, parent, name, start, end, None if corr is None else str(corr)]
                for sid, parent, name, start, end, corr in self.spans
            ],
        }
        if extra:
            doc.update(extra)
        path.write_text(json.dumps(doc) + "\n")


# ----------------------------------------------------------------------
# The layer map: which entry points carry which span name
# ----------------------------------------------------------------------
def _one(_args: tuple, _result: object) -> int:
    return 1


def _result(_args: tuple, result: object) -> int:
    return int(result)  # type: ignore[call-overload]


def _len_result(_args: tuple, result: object) -> int:
    return len(result)  # type: ignore[arg-type]


def _fanout(args: tuple, _result: object) -> int:
    return len(args[0].node_ids)


def _general(inst: object) -> object:
    return getattr(inst, "general", None)


def install(tracer: SpanTracer) -> None:
    """Install every wrapper of the layer map.  Call before building nodes."""
    p = tracer.patch
    # sim kernel, network, delivery policy
    p("sim.engine.run_until", "repro.sim.engine", "Simulator", "run_until",
      units=_result)
    p("net.network.send", "repro.net.network", "Network", "send", units=_one)
    p("net.network.broadcast", "repro.net.network", "Network", "broadcast",
      units=_fanout)
    # Both the sim network and the wall-clock transports draw per-copy
    # delays from this policy class (every workload uses UniformDelay).
    p("net.delivery.decide", "repro.net.delivery", "UniformDelay", "decide")
    # message log
    p("node.msglog.add", "repro.node.msglog", "MessageLog", "add")
    p("node.msglog.prune_older_than", "repro.node.msglog", "MessageLog",
      "prune_older_than", units=_result)
    p("node.msglog.prune_future", "repro.node.msglog", "MessageLog",
      "prune_future", units=_result)

    def watch_replacement(original: Callable) -> Callable:
        # The watch callback is handed over at subscription time, so it is
        # wrapped there: one ``node.msglog.watch_fire`` span per fire, whose
        # count must equal ProtocolNode.watch_fires().
        def watch(self, *args, **kwargs):
            if kwargs.get("on_event") is not None:
                kwargs["on_event"] = tracer.wrap(
                    "node.msglog.watch_fire", kwargs["on_event"]
                )
            elif len(args) >= 5 and args[4] is not None:
                args = args[:4] + (
                    tracer.wrap("node.msglog.watch_fire", args[4]),
                ) + args[5:]
            return original(self, *args, **kwargs)

        return watch

    p("node.msglog.watch", "repro.node.msglog", "MessageLog", "watch",
      replace=watch_replacement)
    # the three evaluators
    for layer, module, cls, intake in (
        ("core.msgd_broadcast", "repro.core.msgd_broadcast", "MsgdBroadcast",
         "on_message"),
        ("core.initiator_accept", "repro.core.initiator_accept",
         "InitiatorAccept", "on_message"),
        ("core.agreement", "repro.core.agreement", "AgreementInstance",
         "handle"),
    ):
        p(f"{layer}.{intake}", module, cls, intake, corr=_general)
        p(f"{layer}.cleanup", module, cls, "cleanup", corr=_general)
    # transient faults
    p("faults.transient.havoc", "repro.faults.transient",
      "TransientFaultInjector", "havoc")
    # wire codec
    p("runtime.framing.encode_body", "repro.runtime.framing", "FrameEncoder",
      "encode_body")
    p("runtime.framing.frame", "repro.runtime.framing", "FrameEncoder",
      "frame", units=_len_result)
    p("runtime.framing.frame_batch", "repro.runtime.framing", "FrameEncoder",
      "frame_batch", units=_len_result)
    # aio.py binds the name at import, so the module global is the seam.
    p("runtime.framing.decode_frames", "repro.runtime.aio", None,
      "decode_frames", units=_len_result)
    # asyncio transport and host
    p("runtime.aio.send", "repro.runtime.aio", "AsyncioTransport", "send",
      units=_one)
    p("runtime.aio.broadcast", "repro.runtime.aio", "AsyncioTransport",
      "broadcast", units=_fanout)
    p("runtime.aio.enqueue", "repro.runtime.aio", "AsyncioTransport",
      "_enqueue")
    p("runtime.aio.flush", "repro.runtime.aio", "AsyncioTransport", "_flush")
    p("runtime.aio.deliver", "repro.runtime.aio", "AsyncioTransport",
      "_deliver_frames", units=lambda args, _r: len(args[2]))

    def schedule_replacement(original: Callable) -> Callable:
        # Timer bodies are closures built per call; wrapping the action that
        # is handed in attributes deadline and retirement timers too.
        def schedule_after(self, delay_local, action, *args, **kwargs):
            return original(
                self, delay_local, tracer.wrap("runtime.aio.timer", action),
                *args, **kwargs,
            )

        return schedule_after

    p("runtime.aio.schedule_after", "repro.runtime.aio", "AsyncioHost",
      "schedule_after", replace=schedule_replacement)
    # service
    for attr in ("submit_nowait", "_on_decision", "notify_retired"):
        p(f"service.coordinator.{attr.lstrip('_')}",
          "repro.service.coordinator", "LogCoordinator", attr)
    p("service.applier.on_decision", "repro.service.applier",
      "ReplicaApplier", "_on_decision")


#: Wrappers that must have fired for a workload's layer numbers to mean
#: anything; a zero here is a silently bypassed wrapper.
MUST_FIRE = {
    "sim": (
        "sim.engine.run_until",
        "net.network.broadcast",
        "net.delivery.decide",
        "node.msglog.add",
        "node.msglog.prune_older_than",
        "node.msglog.watch_fire",
        "core.msgd_broadcast.on_message",
        "core.initiator_accept.on_message",
        "core.agreement.handle",
        "core.agreement.cleanup",
    ),
    "aio": (
        "net.delivery.decide",
        "node.msglog.add",
        "node.msglog.watch_fire",
        "core.msgd_broadcast.on_message",
        "core.initiator_accept.on_message",
        "core.agreement.handle",
        "runtime.framing.encode_body",
        "runtime.framing.frame_batch",
        "runtime.framing.decode_frames",
        "runtime.aio.broadcast",
        "runtime.aio.flush",
        "runtime.aio.deliver",
        "runtime.aio.timer",
        "service.coordinator.submit_nowait",
        "service.coordinator.on_decision",
        "service.applier.on_decision",
    ),
}


def coverage_problems(
    tracer: SpanTracer,
    family: str,
    counters: dict[str, tuple[int, int]],
) -> list[str]:
    """Check the wrappers against the program's own counters.

    ``counters`` maps a description to ``(seen by the wrappers, counted by
    the program)``; any difference means some calls bypassed a wrapper.
    """
    problems = []
    for name in MUST_FIRE[family]:
        if name in tracer.skipped:
            continue  # reported at install time; the target is gone
        if tracer.calls(name) == 0:
            problems.append(f"{name}: wrapper installed but never called")
    for what, (seen, counted) in counters.items():
        if seen != counted:
            problems.append(
                f"{what}: wrappers saw {seen}, program counted {counted}"
            )
    return problems
