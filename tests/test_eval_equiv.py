"""Randomized differential tests: push-based evaluators vs eager references.

The push-based protocol core (:mod:`repro.core.msgd_broadcast` with its
threshold subscriptions and deadline timers, :mod:`repro.core.
initiator_accept` on the log's latest-arrival fast path, and the
:class:`~repro.core.agreement.SdrPrefixCache` behind Block S) must be
*observationally indistinguishable* from the eager pull evaluators kept
verbatim in :mod:`tests.oracles.eval_ref`.  Both are driven through identical
randomized adversarial schedules -- mixed message arrivals, clock advances,
anchor sets/clears/resets, cleanup pruning, and full transient corruption
with identically-seeded randomness -- and after *every* operation the
observable behaviour must match exactly: broadcast sequences, accept
callbacks, trace-decision sequences, and derived state.

Per the acceptance bar: >= 20 schedules, >= 1000 randomized operations
each, zero divergence.
"""

from __future__ import annotations

import heapq
import itertools
import random

import pytest

from repro.core.agreement import SdrPrefixCache, distinct_chain_exists
from repro.core.initiator_accept import InitiatorAccept
from repro.core.messages import (
    ApproveMsg,
    MBEchoMsg,
    MBEchoPrimeMsg,
    MBInitMsg,
    MBInitPrimeMsg,
    ReadyMsg,
    SupportMsg,
)
from repro.core.msgd_broadcast import MsgdBroadcast
from repro.core.params import ProtocolParams
from repro.node.msglog import MessageLog
from repro.sim.rand import RandomSource
from tests.oracles.eval_ref import (
    ReferenceInitiatorAccept,
    ReferenceMsgdBroadcast,
    eager_fresh_senders,
)

G = 0
VALUES = ["A", "B"]
MB_SCHEDULES = 12
IA_SCHEDULES = 10
OPS_PER_SCHEDULE = 1200
WATCH_SCHEDULES = 50
WATCH_OPS = 350


class _ManualTimer:
    """Cancelable handle for ScriptHost's heap-based manual timers."""

    __slots__ = ("cancelled", "fired")

    def __init__(self) -> None:
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def alive(self) -> bool:
        return not self.cancelled and not self.fired


class ScriptHost:
    """Deterministic manual-clock host recording every observable."""

    trace_enabled = True

    def __init__(self, params: ProtocolParams, timers: bool = True) -> None:
        self.params = params
        self.node_id = 0
        self._local = 0.0
        self.sent: list[tuple[float, str]] = []
        self.traced: list[tuple[str, str]] = []
        self._timers: list[tuple[float, int, object, _ManualTimer]] = []
        self._seq = itertools.count()
        self._use_timers = timers

    def now(self) -> float:
        return self._local

    local_now = now

    def broadcast(self, payload: object) -> None:
        self.sent.append((self._local, repr(payload)))

    def trace(self, kind: str, **detail: object) -> None:
        self.traced.append((kind, repr(sorted(detail.items()))))

    def schedule_after(self, delay_local: float, action, tag: str = "") -> _ManualTimer:
        handle = _ManualTimer()
        if self._use_timers:
            heapq.heappush(
                self._timers,
                (self._local + delay_local, next(self._seq), action, handle),
            )
        return handle

    def live_timer_count(self) -> int:
        return sum(1 for *_rest, handle in self._timers if handle.alive)

    def advance(self, delta: float) -> None:
        target = self._local + delta
        while self._timers and self._timers[0][0] <= target:
            at, _seq, action, handle = heapq.heappop(self._timers)
            if handle.cancelled:
                continue
            handle.fired = True
            self._local = max(self._local, at)
            action()
        self._local = target


def _mb_pair(params):
    """(push instance, reference instance) with parallel observables."""
    host_a = ScriptHost(params, timers=True)
    host_b = ScriptHost(params, timers=False)  # reference has no timer path
    accepts_a: list[tuple] = []
    accepts_b: list[tuple] = []
    push = MsgdBroadcast(
        host_a,
        G,
        lambda *args: accepts_a.append(args),
        lambda origin: accepts_a.append(("broadcaster", origin)),
    )
    ref = ReferenceMsgdBroadcast(
        host_b,
        G,
        lambda *args: accepts_b.append(args),
        lambda origin: accepts_b.append(("broadcaster", origin)),
    )
    return host_a, host_b, push, ref, accepts_a, accepts_b


def _assert_mb_equal(step, host_a, host_b, push, ref, accepts_a, accepts_b):
    assert host_a.sent == host_b.sent, f"step {step}: sends diverged"
    assert accepts_a == accepts_b, f"step {step}: accepts diverged"
    assert host_a.traced == host_b.traced, f"step {step}: traces diverged"
    assert push.accepted == ref.accepted, f"step {step}: accepted diverged"
    assert push.broadcasters == ref.broadcasters, f"step {step}: broadcasters"
    assert push._sent == ref._sent, f"step {step}: sent-once sets diverged"
    assert push.anchor == ref.anchor, f"step {step}: anchors diverged"


@pytest.mark.parametrize("seed", range(MB_SCHEDULES))
def test_msgd_broadcast_differential(seed: int) -> None:
    """Push evaluator == reference over mixed adversarial mb schedules."""
    params = ProtocolParams(n=7, f=2, delta=1.0, rho=0.0)
    rng = random.Random(seed)
    host_a, host_b, push, ref, acc_a, acc_b = _mb_pair(params)
    classes = [MBInitMsg, MBEchoMsg, MBInitPrimeMsg, MBEchoPrimeMsg]

    for step in range(OPS_PER_SCHEDULE):
        roll = rng.random()
        if roll < 0.60:
            cls = rng.choice(classes)
            origin = rng.randint(0, params.n - 1)
            msg = cls(G, origin, rng.choice(VALUES), rng.randint(1, params.f + 1))
            # Mostly authentic inits; sometimes forged (must be discarded).
            sender = (
                origin
                if cls is MBInitMsg and rng.random() < 0.7
                else rng.randint(0, params.n - 1)
            )
            push.on_message(msg, sender)
            ref.on_message(msg, sender)
        elif roll < 0.72:
            delta = rng.choice([0.0, 0.1, 1.0, 5.0, 20.0])
            host_a.advance(delta)
            host_b.advance(delta)
        elif roll < 0.82:
            anchor = host_a.local_now() - rng.uniform(0.0, 5.0)
            push.set_anchor(anchor)
            ref.set_anchor(anchor)
        elif roll < 0.86:
            push.clear_anchor()
            ref.clear_anchor()
        elif roll < 0.93:
            push.cleanup()
            ref.cleanup()
        elif roll < 0.96:
            # Identically-seeded corruption draws the same garbage twice.
            push.corrupt(RandomSource(seed * 31 + step, "hvc"), VALUES)
            ref.corrupt(RandomSource(seed * 31 + step, "hvc"), VALUES)
        else:
            push.reset()
            ref.reset()
        _assert_mb_equal(step, host_a, host_b, push, ref, acc_a, acc_b)


def _ia_pair(params):
    host_a = ScriptHost(params, timers=True)
    host_b = ScriptHost(params, timers=False)
    accepts_a: list[tuple] = []
    accepts_b: list[tuple] = []
    push = InitiatorAccept(host_a, G, lambda v, t: accepts_a.append((v, t)))
    ref = ReferenceInitiatorAccept(host_b, G, lambda v, t: accepts_b.append((v, t)))
    return host_a, host_b, push, ref, accepts_a, accepts_b


@pytest.mark.parametrize("seed", range(IA_SCHEDULES))
def test_initiator_accept_differential(seed: int) -> None:
    """Fast-path IA == reference over mixed adversarial IA schedules."""
    params = ProtocolParams(n=7, f=2, delta=1.0, rho=0.0)
    rng = random.Random(1000 + seed)
    host_a, host_b, push, ref, acc_a, acc_b = _ia_pair(params)
    classes = [SupportMsg, ApproveMsg, ReadyMsg]

    for step in range(OPS_PER_SCHEDULE):
        roll = rng.random()
        if roll < 0.55:
            cls = rng.choice(classes)
            msg = cls(G, rng.choice(VALUES))
            sender = rng.randint(0, params.n - 1)
            push.on_message(msg, sender)
            ref.on_message(msg, sender)
        elif roll < 0.67:
            delta = rng.choice([0.0, 0.05, 0.5, 2.0, 10.0])
            host_a.advance(delta)
            host_b.advance(delta)
        elif roll < 0.77:
            value = rng.choice(VALUES)
            assert push.invoke(value) == ref.invoke(value), f"step {step}"
        elif roll < 0.83:
            value = rng.choice(VALUES)
            push.evaluate(value)
            ref.evaluate(value)
        elif roll < 0.91:
            push.cleanup()
            ref.cleanup()
        elif roll < 0.95:
            push.corrupt(RandomSource(seed * 17 + step, "iac"), VALUES)
            ref.corrupt(RandomSource(seed * 17 + step, "iac"), VALUES)
        else:
            push.reset()
            ref.reset()
        assert host_a.sent == host_b.sent, f"step {step}: sends diverged"
        assert acc_a == acc_b, f"step {step}: accepts diverged"
        assert host_a.traced == host_b.traced, f"step {step}: traces diverged"
        assert push.line_exec == ref.line_exec, f"step {step}: line_exec"
        assert push.last_g == ref.last_g, f"step {step}: last(G)"


@pytest.mark.parametrize("seed", range(6))
def test_sdr_prefix_cache_differential(seed: int) -> None:
    """Incremental SDR prefix == eager backtracking under grow/shrink."""
    rng = random.Random(seed)
    f = 4
    cache = SdrPrefixCache()
    per_value: dict[str, dict[int, set[int]]] = {v: {} for v in VALUES}

    for _step in range(1500):
        roll = rng.random()
        value = rng.choice(VALUES)
        per_level = per_value[value]
        if roll < 0.70:
            k = rng.randint(1, f + 1)
            origin = rng.randint(1, 9)
            origins = per_level.setdefault(k, set())
            if origin not in origins:
                origins.add(origin)
                cache.grew(value)
        elif roll < 0.85:
            # Shrink: decay/corruption analogue; must invalidate.
            if per_level:
                k = rng.choice(list(per_level))
                if per_level[k] and rng.random() < 0.8:
                    per_level[k].discard(next(iter(per_level[k])))
                if not per_level[k]:
                    del per_level[k]
            cache.invalidate()
        else:
            per_value[value] = {}
            per_level = per_value[value]
            cache.invalidate()

        prefix = cache.prefix(value, per_value[value], f)
        for r in range(1, f + 1):
            assert (prefix >= r) == distinct_chain_exists(per_value[value], r), (
                f"value {value}, r {r}: prefix {prefix} vs eager"
            )


WATCH_KEYS = [
    ("mb_echo", G, "A", 1),
    ("mb_echo", G, "B", 1),
    ("support", G, "A"),
    ("ready", 1, "B"),
]


@pytest.mark.parametrize("seed", range(WATCH_SCHEDULES))
def test_watch_vs_eager_oracle_differential(seed: int) -> None:
    """``MessageLog.watch`` == the eager rescan oracle, op for op.

    Drives the subscription counters through long interleavings of in-order
    arrivals, arbitrarily-stamped corruption (past *and* future stamps),
    age/future prunes, resets (clears, key removals, predicate removals)
    and watch churn (spawn/cancel mid-schedule), checking ``count``/``has``
    against :func:`tests.oracles.eval_ref.eager_fresh_senders` after every
    single operation.  Nothing here knows how the watch is implemented --
    staleness, maturation heaps and rebuilds must all be invisible.
    """
    rng = random.Random(5000 + seed)
    log = MessageLog()
    now = 0.0
    fired: list[tuple] = []
    watches: list[tuple[object, float, object]] = []

    def on_event(watch) -> None:
        # A firing is only legal at a threshold crossing or a sentinel
        # maturation, and never for a cancelled watch (the dispatch
        # conditions the push evaluators lean on).
        assert not watch.cancelled, "event fired for a cancelled watch"
        count = watch._count
        assert count in watch.thresholds or (
            watch.sentinel is not None and watch._matured >> watch.sentinel & 1
        ), f"event fired at count {count} with no threshold/sentinel cause"
        fired.append((watch.key, watch.start, count))

    def spawn_watch() -> None:
        key = rng.choice(WATCH_KEYS)
        start = max(0.0, now - rng.uniform(0.0, 6.0))
        thresholds = rng.sample(range(1, 8), k=rng.randint(0, 2))
        sentinel = rng.randint(0, 9) if rng.random() < 0.5 else None
        watch = log.watch(
            key,
            start,
            thresholds=thresholds,
            sentinel=sentinel,
            on_event=on_event,
        )
        watches.append((key, start, watch))

    for _ in range(3):
        spawn_watch()

    for step in range(WATCH_OPS):
        roll = rng.random()
        if roll < 0.45:
            now += rng.choice([0.0, 0.0, 0.05, 0.4, 1.5])
            log.add(rng.choice(WATCH_KEYS), rng.randint(0, 9), now)
        elif roll < 0.60:
            # Transient corruption: stamps say nothing about the clock.
            log.corrupt_insert(
                rng.choice(WATCH_KEYS),
                rng.randint(0, 9),
                max(0.0, now + rng.uniform(-4.0, 6.0)),
            )
        elif roll < 0.70:
            if rng.random() < 0.5:
                log.prune_older_than(now - rng.uniform(0.0, 3.0))
            else:
                log.prune_future(now)
        elif roll < 0.78:
            flavor = rng.random()
            if flavor < 0.4:
                log.clear()
            elif flavor < 0.8:
                log.remove_keys([rng.choice(WATCH_KEYS)])
            else:
                doomed = rng.choice(WATCH_KEYS)
                log.remove_matching(lambda key: key == doomed)
        elif roll < 0.86:
            spawn_watch()
        elif roll < 0.92 and watches:
            index = rng.randrange(len(watches))
            watches[index][2].cancel()
            del watches[index]
        else:
            now += rng.uniform(0.0, 2.0)

        for key, start, watch in watches:
            expected = eager_fresh_senders(log, key, start, now)
            assert watch.count(now) == len(expected), (
                f"seed {seed} step {step}: count diverged for {key} @ {start}"
            )
            for sender in (0, 3, 7):
                assert watch.has(sender, now) == (sender in expected), (
                    f"seed {seed} step {step}: has({sender}) diverged"
                )

    for _key, _start, watch in watches:
        watch.cancel()
    assert not log._watches, "cancel must fully drain the registry"


def test_schedule_volume_meets_acceptance_bar() -> None:
    """>= 20 schedules x >= 1000 operations (the documented gate),
    plus >= 50 watch-fuzz schedules (this PR's differential bar)."""
    assert MB_SCHEDULES + IA_SCHEDULES >= 20
    assert OPS_PER_SCHEDULE >= 1000
    assert WATCH_SCHEDULES >= 50
