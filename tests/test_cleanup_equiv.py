"""Differential test: the skipping cleanup rules vs the rebuilding oracle.

The production cleanup rules (:mod:`repro.node.msglog`,
:mod:`repro.core.initiator_accept`, :mod:`repro.core.msgd_broadcast`,
:mod:`repro.core.agreement`) skip each rule whose state holds nothing due,
deciding that from the state itself in the same tick.  The oracle in
:mod:`tests.oracles.cleanup_ref` rebuilds everything on every tick.  Paired
agreement instances -- one on each -- are driven through identical seeded
schedules of arrivals, future-stamped ``corrupt_insert``s, ``corrupt()`` at
every level, raw transient-fault writes that no write path makes, clock
jumps across each decay horizon (forward, and backward as a corrupted clock
does), anchor sets, resets and cleanup ticks.  The observables must match
after every operation and the full protocol state after every tick.

Two representation changes are normalized away, each because it cannot be
observed: a cleared ``ready`` flag is dropped rather than kept (absent reads
as unset), and a ``last(G, m)`` history that can answer nothing but BOTTOM
is dropped rather than kept (so a later assignment starts a fresh history
where the oracle's carries leading BOTTOM entries).
"""

from __future__ import annotations

import heapq
import itertools
import random

import pytest

from repro.core.agreement import AgreementInstance, distinct_chain_exists
from repro.core.messages import (
    ApproveMsg,
    InitiatorMsg,
    MBEchoMsg,
    MBEchoPrimeMsg,
    MBInitMsg,
    MBInitPrimeMsg,
    ReadyMsg,
    SupportMsg,
)
from repro.core.msgd_broadcast import MsgdBroadcast
from repro.core.params import ProtocolParams
from repro.sim.rand import RandomSource
from tests.oracles.cleanup_ref import ReferenceCleanupInstance

G = 0
VALUES = ["A", "B"]
SCHEDULES = 16
OPS_PER_SCHEDULE = 1500
PARAMS = ProtocolParams(n=4, f=1, delta=1.0, rho=0.0)


class _Timer:
    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class ScriptNode:
    """Manual-clock node surface recording every observable."""

    trace_enabled = True

    def __init__(self, params: ProtocolParams) -> None:
        self.params = params
        self.node_id = 1
        self._local = 500.0
        self.sent: list[tuple[float, str]] = []
        self.traced: list[tuple[str, str]] = []
        self.decisions: list = []
        self._timers: list = []
        self._seq = itertools.count()

    def now(self) -> float:
        return self._local

    local_now = now
    real_now = now

    def real_at_local(self, local_time: float) -> float:
        return local_time

    def broadcast(self, payload: object) -> None:
        self.sent.append((self._local, repr(payload)))

    def trace(self, kind: str, **detail: object) -> None:
        self.traced.append((kind, repr(sorted(detail.items()))))

    def record_decision(self, decision) -> None:
        self.decisions.append(decision)

    def after_local(self, delay_local: float, action, tag: str = "") -> _Timer:
        handle = _Timer()
        heapq.heappush(
            self._timers, (self._local + delay_local, next(self._seq), action, handle)
        )
        return handle

    schedule_after = after_local

    def advance(self, delta: float) -> None:
        target = self._local + delta
        while self._timers and self._timers[0][0] <= target:
            at, _seq, action, handle = heapq.heappop(self._timers)
            if handle.cancelled:
                continue
            self._local = max(self._local, at)
            action()
        self._local = target

    def jump_back(self, delta: float) -> None:
        """A corrupted clock: the reading drops, pending timers stay put."""
        self._local -= delta


# ----------------------------------------------------------------------
# State snapshots
# ----------------------------------------------------------------------
def _log_state(log) -> list:
    return [
        (
            key,
            list(klog.times),
            list(klog.time_senders),
            [t if t == t else None for t in klog.latest],
            klog.nsenders,
        )
        for key, klog in log._keys.items()
    ]


def _history(history) -> tuple:
    """A history up to leading BOTTOM entries, which answer as no entry."""
    entries = history._history
    i = 0
    while i < len(entries) and entries[i][1] is None:
        i += 1
    return history.current, entries[i:]


def _ia_state(ia) -> tuple:
    histories = {}
    for value, history in ia.last_gm.items():
        canonical = _history(history)
        if canonical != (None, []):
            histories[value] = canonical
    return (
        {v: (e.recording, e.written_at) for v, e in ia.i_values.items()},
        ia.last_g,
        histories,
        {v: flag.set_at for v, flag in ia.ready.items() if flag.set_at is not None},
        list(ia.ignore_until.items()),
        list(ia._sent_at.items()),
        list(ia._own_support_sends),
        list(ia.line_exec.items()),
        _log_state(ia.log),
    )


def _mb_state(mb) -> tuple:
    return (
        mb.anchor,
        list(mb.broadcasters.items()),
        list(mb.accepted.items()),
        set(mb._sent),
        set(mb._known_triplets),
        set(mb._states),
        _log_state(mb.log),
    )


def _state(inst) -> tuple:
    return (
        inst.tau_g,
        inst.accepted_value,
        inst.stopped,
        inst.returned_at,
        [(value, levels) for value, levels in inst.accept_levels.items()],
        _ia_state(inst.ia),
        _mb_state(inst.mb),
    )


def _eager_prefix(per_level: dict, max_r: int) -> int:
    r = 0
    while r < max_r and distinct_chain_exists(per_level, r + 1):
        r += 1
    return r


def _assert_sdr_exact(inst) -> None:
    """The kept SDR cache answers as a fresh search would."""
    f = inst.params.f
    for value, per_level in inst.accept_levels.items():
        assert inst._sdr.prefix(value, per_level, f) == _eager_prefix(per_level, f)


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------
def _horizons(params: ProtocolParams, inst) -> list[float]:
    return [
        params.delta_rmv,
        (2 * params.f + 3) * params.phi,
        inst.ia._last_g_horizon,
        inst.ia._last_gm_horizon,
        inst.ia._last_gm_horizon + params.delta_rmv,
        inst._anchor_horizon,
        2.0 * params.d,
        3.0 * params.d,
        4.0 * params.d,
    ]


def _random_message(rng: random.Random, params: ProtocolParams):
    value = rng.choice(VALUES)
    roll = rng.random()
    if roll < 0.05:
        return InitiatorMsg(G, value), G
    sender = rng.randrange(params.n)
    if roll < 0.45:
        cls = rng.choice([SupportMsg, ApproveMsg, ReadyMsg])
        return cls(G, value), sender
    cls = rng.choice([MBInitMsg, MBEchoMsg, MBInitPrimeMsg, MBEchoPrimeMsg])
    origin = rng.randrange(params.n)
    k = rng.randint(1, params.f + 1)
    if cls is MBInitMsg and rng.random() < 0.7:
        sender = origin
    return cls(G, origin, value, k), sender


def _plant(rng: random.Random, params: ProtocolParams, now: float):
    """One raw transient-fault write that no write path makes.

    Returns a function applying it to an instance, drawn once so both
    instances receive the same garbage.
    """
    value = rng.choice(VALUES)
    origin = rng.randrange(params.n)
    k = rng.randint(1, params.f + 1)
    stamp = now + rng.uniform(-2.0, 2.0) * params.d
    far = now + rng.uniform(5.0, 500.0) * params.d
    anchor = now - rng.uniform(0.0, 3.0) * params.d
    kind = rng.randrange(11)

    def apply(inst: AgreementInstance) -> None:
        ia, mb = inst.ia, inst.mb
        if kind == 0:  # a known triplet with no record and no accept
            mb._known_triplets.add((origin, value, k))
        elif kind == 1:  # an accept for a triplet nobody knows
            mb.accepted[(origin, value, k)] = stamp
        elif kind == 2:  # an empty level dict
            inst.accept_levels.setdefault(value, {})
        elif kind == 3:  # a level origin no accept backs
            inst.accept_levels.setdefault(value, {}).setdefault(k, set()).add(origin)
        elif kind == 4:  # a flag that was never set
            ia._ready_flag(value)
        elif kind == 5:  # a history that only ever held BOTTOM
            ia._last_gm(value)
        elif kind == 6:  # an ignore deadline no write path makes
            ia.ignore_until[value] = far
        elif kind == 7:
            ia._sent_at[(ia.APPROVE, value)] = far
        elif kind == 8:
            ia.line_exec[("L2", value)] = stamp
        elif kind == 9:  # a live anchor (states get built)
            mb.set_anchor(anchor)
        else:
            mb.broadcasters[origin] = stamp

    return apply


def _pair() -> tuple:
    node_a, node_b = ScriptNode(PARAMS), ScriptNode(PARAMS)
    fast = AgreementInstance(node_a, G)
    ref = ReferenceCleanupInstance(node_b, G)
    return node_a, node_b, fast, ref


def _assert_observables(step, node_a, node_b) -> None:
    assert node_a.sent == node_b.sent, f"step {step}: sends diverged"
    assert node_a.traced == node_b.traced, f"step {step}: traces diverged"
    assert node_a.decisions == node_b.decisions, f"step {step}: decisions"


def run_schedule(seed: int, ops: int = OPS_PER_SCHEDULE) -> dict[str, int]:
    """Drive one paired schedule; return how often each operation ran."""
    rng = random.Random(seed)
    node_a, node_b, fast, ref = _pair()
    horizons = _horizons(PARAMS, fast)
    counts: dict[str, int] = {}
    for step in range(ops):
        roll = rng.random()
        if roll < 0.38:
            op = "arrival"
            msg, sender = _random_message(rng, PARAMS)
            fast.handle(msg, sender)
            ref.handle(msg, sender)
        elif roll < 0.48:
            op = "advance"
            delta = rng.choice([0.0, 0.1, 0.5, 1.0]) * PARAMS.d
            node_a.advance(delta)
            node_b.advance(delta)
        elif roll < 0.55:
            op = "jump"
            delta = rng.choice(horizons) + rng.choice([-0.5, 1e-3, 0.5]) * PARAMS.d
            node_a.advance(delta)
            node_b.advance(delta)
        elif roll < 0.57:
            op = "jump_back"
            delta = rng.uniform(0.0, 3.0) * PARAMS.d
            node_a.jump_back(delta)
            node_b.jump_back(delta)
        elif roll < 0.60:
            op = "corrupt_insert"
            target = rng.choice(["ia", "mb"])
            now = node_a.now()
            if target == "ia":
                key = (rng.choice(["support", "approve", "ready"]), G, rng.choice(VALUES))
            else:
                key = (
                    rng.choice(["mb_init", "mb_echo", "mb_init_prime", "mb_echo_prime"]),
                    rng.randrange(PARAMS.n),
                    rng.choice(VALUES),
                    rng.randint(1, PARAMS.f + 1),
                )
            sender = rng.randrange(PARAMS.n)
            stamp = now + rng.uniform(-1.0, 4.0) * PARAMS.d
            getattr(fast, target).log.corrupt_insert(key, sender, stamp)
            getattr(ref, target).log.corrupt_insert(key, sender, stamp)
        elif roll < 0.63:
            op = "corrupt"
            level = rng.choice(["instance", "ia", "mb"])
            draw = seed * 7919 + step
            for inst in (fast, ref):
                target = inst if level == "instance" else getattr(inst, level)
                target.corrupt(RandomSource(draw, "cleanup"), VALUES)
        elif roll < 0.68:
            op = "plant"
            apply = _plant(rng, PARAMS, node_a.now())
            apply(fast)
            apply(ref)
        elif roll < 0.69:
            op = "reset"
            fast.reset()
            ref.reset()
        else:
            op = "tick"
            fast.cleanup()
            ref.cleanup()
        counts[op] = counts.get(op, 0) + 1
        _assert_observables(step, node_a, node_b)
        if op == "tick":
            assert _state(fast) == _state(ref), f"step {step}: state diverged"
            _assert_sdr_exact(fast)
    return counts


@pytest.mark.parametrize("seed", range(SCHEDULES))
def test_cleanup_matches_reference(seed: int) -> None:
    counts = run_schedule(seed)
    assert counts.get("tick", 0) > 300
    assert counts.get("corrupt", 0) > 20


def test_schedules_reach_both_sides_of_the_triplet_skip(monkeypatch) -> None:
    calls = {"settled": 0, "settled_true": 0}
    settled = MsgdBroadcast._settled

    def counting(self) -> bool:
        result = settled(self)
        calls["settled"] += 1
        calls["settled_true"] += result
        return result

    monkeypatch.setattr(MsgdBroadcast, "_settled", counting)
    run_schedule(0)
    assert 0 < calls["settled_true"] < calls["settled"]
