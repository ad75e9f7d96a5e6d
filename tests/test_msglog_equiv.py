"""Randomized differential test: incremental MessageLog vs naive reference.

The incremental log (:mod:`repro.node.msglog`) keeps flat sorted arrays and
cached per-sender latest arrivals; the reference
(:mod:`repro.node.msglog_ref`) is the original rescan-everything
implementation.  Equivalence is the correctness argument for the fast path:
drive both through thousands of identical mixed operations -- in-order adds,
out-of-order corrupt inserts, age/future prunes, key removals, clears --
and demand identical answers from every public query at every step.
"""

from __future__ import annotations

import random

import pytest

from repro.node.msglog import MessageLog
from repro.node.msglog_ref import ReferenceMessageLog

KEYS = [
    ("support", 0, "A"),
    ("support", 0, "B"),
    ("approve", 0, "A"),
    ("ready", 1, "B"),
    ("init", 2, "C"),
]
SENDERS = list(range(8))
KTHS = (1, 2, 3, 5, 8, 12)


def _assert_equivalent(fast: MessageLog, ref: ReferenceMessageLog, rng: random.Random) -> None:
    assert fast.keys == ref.keys
    assert fast.total_records() == ref.total_records()
    for key in KEYS + [("missing", 9, "Z")]:
        assert fast.senders(key) == ref.senders(key)
        assert fast.count_distinct(key) == ref.count_distinct(key)
        assert fast.latest_arrival_per_sender(key) == ref.latest_arrival_per_sender(key)
        assert fast.earliest_arrival(key) == ref.earliest_arrival(key)
        for sender in SENDERS:
            assert fast.has_from(key, sender) == ref.has_from(key, sender)
        for k in KTHS:
            assert fast.kth_latest_distinct(key, k) == ref.kth_latest_distinct(key, k)
        for _ in range(4):
            a = rng.uniform(-5.0, 120.0)
            b = a + rng.uniform(0.0, 40.0)
            assert fast.distinct_senders_in(key, a, b) == ref.distinct_senders_in(key, a, b)
            assert fast.count_distinct_in(key, a, b) == ref.count_distinct_in(key, a, b)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_differential_mixed_operations(seed: int) -> None:
    rng = random.Random(seed)
    fast = MessageLog()
    ref = ReferenceMessageLog()
    now = 0.0

    for step in range(2000):
        roll = rng.random()
        if roll < 0.55:
            # Normal arrival: nondecreasing local time, duplicates included.
            now += rng.choice([0.0, 0.01, 0.3, 1.0])
            key, sender = rng.choice(KEYS), rng.choice(SENDERS)
            fast.add(key, sender, now)
            ref.add(key, sender, now)
        elif roll < 0.70:
            # Corruption: arbitrary past or future stamps.
            t = rng.uniform(-10.0, now + 50.0)
            key, sender = rng.choice(KEYS), rng.choice(SENDERS)
            fast.corrupt_insert(key, sender, t)
            ref.corrupt_insert(key, sender, t)
        elif roll < 0.78:
            cutoff = rng.uniform(0.0, now + 5.0)
            assert fast.prune_older_than(cutoff) == ref.prune_older_than(cutoff)
        elif roll < 0.86:
            horizon = rng.uniform(0.0, now + 5.0)
            assert fast.prune_future(horizon) == ref.prune_future(horizon)
        elif roll < 0.92:
            doomed = rng.sample(KEYS, rng.randint(0, 2))
            fast.remove_keys(doomed)
            ref.remove_keys(doomed)
        elif roll < 0.96:
            kind = rng.choice(["support", "approve", "ready"])
            fast.remove_matching(lambda k, kind=kind: k[0] == kind)
            ref.remove_matching(lambda k, kind=kind: k[0] == kind)
        elif roll < 0.98:
            # Cheap point queries on every path between full checks.
            key = rng.choice(KEYS)
            a = rng.uniform(0.0, now + 1.0)
            assert fast.count_distinct_in(key, a - 3.0, a) == ref.count_distinct_in(key, a - 3.0, a)
        else:
            fast.clear()
            ref.clear()

        if step % 50 == 0:
            _assert_equivalent(fast, ref, rng)

    _assert_equivalent(fast, ref, rng)


def test_differential_in_order_heavy() -> None:
    """The protocol's actual pattern: monotone arrivals, periodic prunes."""
    rng = random.Random(99)
    fast = MessageLog()
    ref = ReferenceMessageLog()
    now = 0.0
    for step in range(3000):
        now += 0.05
        key, sender = rng.choice(KEYS), rng.choice(SENDERS)
        fast.add(key, sender, now)
        ref.add(key, sender, now)
        if step % 200 == 199:
            cutoff = now - 6.0
            assert fast.prune_older_than(cutoff) == ref.prune_older_than(cutoff)
            assert fast.prune_future(now) == ref.prune_future(now)
        if step % 100 == 0:
            _assert_equivalent(fast, ref, rng)
    _assert_equivalent(fast, ref, rng)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_watch_counts_match_window_queries(seed: int) -> None:
    """FreshWindowWatch == count_distinct_in over adversarial schedules.

    The watch is the push evaluators' counter; the reference answer is the
    naive log's window query at the same (start, now).  Covers in-order
    adds, future-stamped corruption maturing over time, prunes (stale ->
    rebuild), removals, and threshold/sentinel callback discipline.
    """
    rng = random.Random(seed)
    fast = MessageLog()
    ref = ReferenceMessageLog()
    key = KEYS[0]
    start = 5.0
    events: list[int] = []
    watch = fast.watch(
        key, start, thresholds=(3, 5), sentinel=2, on_event=lambda w: events.append(1)
    )
    other = fast.watch(key, 0.0)  # second watch on the same key
    now = 6.0

    for _step in range(3000):
        roll = rng.random()
        if roll < 0.55:
            now += rng.choice([0.0, 0.02, 0.4])
            sender = rng.choice(SENDERS)
            fast.add(key, sender, now)
            ref.add(key, sender, now)
        elif roll < 0.70:
            stamp = rng.uniform(-2.0, now + 30.0)
            sender = rng.choice(SENDERS)
            fast.corrupt_insert(key, sender, stamp)
            ref.corrupt_insert(key, sender, stamp)
        elif roll < 0.80:
            cutoff = rng.uniform(0.0, now)
            assert fast.prune_older_than(cutoff) == ref.prune_older_than(cutoff)
        elif roll < 0.90:
            assert fast.prune_future(now) == ref.prune_future(now)
        elif roll < 0.95:
            now += rng.uniform(0.0, 5.0)  # pure time passage matures pending
        else:
            fast.remove_keys([key])
            ref.remove_keys([key])
        expected = ref.count_distinct_in(key, start, now)
        assert watch.count(now) == expected
        assert other.count(now) == ref.count_distinct_in(key, 0.0, now)
        for sender in SENDERS[:4]:
            assert watch.has(sender, now) == (
                sender in ref.distinct_senders_in(key, start, now)
            )

    watch.cancel()
    other.cancel()
    assert not fast._watches  # registry fully drained
    assert events, "thresholds/sentinel never fired across 3000 ops"


def test_watch_threshold_callback_fires_on_crossings() -> None:
    """Callback fires exactly at threshold crossings and sentinel maturity."""
    log = MessageLog()
    fired: list[int] = []
    watch = log.watch(
        ("k",), 0.0, thresholds=(2,), sentinel=9, on_event=lambda w: fired.append(w.count(10.0))
    )
    watch.count(0.0)  # build
    log.add(("k",), 1, 1.0)
    assert fired == []
    log.add(("k",), 2, 2.0)  # crosses threshold 2
    assert len(fired) == 1
    log.add(("k",), 3, 3.0)  # above threshold: no new crossing
    assert len(fired) == 1
    log.add(("k",), 9, 4.0)  # sentinel matures
    assert len(fired) == 2
    # A future-stamped sentinel record from corruption fires only once the
    # observed time passes it.
    fired.clear()
    log2 = MessageLog()
    w2 = log2.watch(("k",), 0.0, sentinel=7, on_event=lambda w: fired.append(1))
    w2.count(0.0)
    log2.corrupt_insert(("k",), 7, 50.0)
    assert fired == []
    assert w2.count(10.0) == 0
    assert w2.count(60.0) == 1
    assert fired == [1]


def test_kth_latest_cache_survives_interleaved_prunes() -> None:
    """Target the latest-arrival cache: alternate kth queries and mutations."""
    rng = random.Random(7)
    fast = MessageLog()
    ref = ReferenceMessageLog()
    key = KEYS[0]
    now = 0.0
    for _ in range(1500):
        now += 0.1
        sender = rng.choice(SENDERS)
        fast.add(key, sender, now)
        ref.add(key, sender, now)
        # Query immediately so the cache is hot before the next mutation.
        for k in KTHS:
            assert fast.kth_latest_distinct(key, k) == ref.kth_latest_distinct(key, k)
        if rng.random() < 0.10:
            t = rng.uniform(0.0, now + 20.0)
            fast.corrupt_insert(key, sender, t)
            ref.corrupt_insert(key, sender, t)
        if rng.random() < 0.05:
            assert fast.prune_future(now) == ref.prune_future(now)
        if rng.random() < 0.05:
            cutoff = now - rng.uniform(1.0, 10.0)
            assert fast.prune_older_than(cutoff) == ref.prune_older_than(cutoff)


def _assert_latest_equivalent(
    fast: MessageLog, ref: ReferenceMessageLog, key, rng: random.Random, now: float
) -> None:
    assert fast.latest_arrival_per_sender(key) == ref.latest_arrival_per_sender(key)
    for k in KTHS:
        assert fast.kth_latest_distinct(key, k) == ref.kth_latest_distinct(key, k)
    starts = [rng.uniform(-5.0, now + 30.0) for _ in range(6)]
    windows = [(a, a + rng.uniform(0.0, 20.0)) for a in starts]
    # Windows ending past every record take the latest-arrival fast path.
    windows += [(now - 3.0, now + 1e9), (-1e9, now + 1e9)]
    for a, b in windows:
        assert fast.count_distinct_in(key, a, b) == ref.count_distinct_in(key, a, b)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_future_stamps_then_prune_future(seed: int) -> None:
    """A cut sender's latest falls back to its last record left on the axis."""
    rng = random.Random(seed)
    fast = MessageLog()
    ref = ReferenceMessageLog()
    key = KEYS[0]
    now = 0.0
    for _round in range(60):
        for _ in range(rng.randint(0, 6)):
            now += rng.choice([0.0, 0.1, 0.5])
            sender = rng.choice(SENDERS)
            fast.add(key, sender, now)
            ref.add(key, sender, now)
        for _ in range(rng.randint(1, 5)):
            # Future stamps, some from senders with no in-range record at all.
            sender = rng.choice(SENDERS + [20, 21])
            stamp = now + rng.choice([0.0, rng.uniform(0.0, 30.0)])
            fast.corrupt_insert(key, sender, stamp)
            ref.corrupt_insert(key, sender, stamp)
        fast.kth_latest_distinct(key, 1)  # warm the latest-arrival cache
        _assert_latest_equivalent(fast, ref, key, rng, now)
        horizon = now + rng.choice([0.0, rng.uniform(0.0, 15.0)])
        assert fast.prune_future(horizon) == ref.prune_future(horizon)
        _assert_latest_equivalent(fast, ref, key, rng, now)
        if rng.random() < 0.2:
            cutoff = now - rng.uniform(0.0, 10.0)
            assert fast.prune_older_than(cutoff) == ref.prune_older_than(cutoff)
            _assert_latest_equivalent(fast, ref, key, rng, now)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_out_of_order_inserts_then_prune_older_than(seed: int) -> None:
    """Out-of-order records never move a sender's latest; age prunes drop
    exactly the senders whose latest arrival is older than the cutoff."""
    rng = random.Random(seed)
    fast = MessageLog()
    ref = ReferenceMessageLog()
    key = KEYS[0]
    now = 10.0
    for _round in range(60):
        for _ in range(rng.randint(0, 5)):
            now += rng.choice([0.0, 0.2, 1.0])
            sender = rng.choice(SENDERS)
            fast.add(key, sender, now)
            ref.add(key, sender, now)
        for _ in range(rng.randint(1, 6)):
            # Past stamps, including exact ties with recorded arrivals.
            sender = rng.choice(SENDERS + [20])
            times = fast._keys[key].times if key in fast.keys else []
            if times and rng.random() < 0.3:
                stamp = rng.choice(times)
            else:
                stamp = now - rng.uniform(0.0, 12.0)
            fast.corrupt_insert(key, sender, stamp)
            ref.corrupt_insert(key, sender, stamp)
        fast.kth_latest_distinct(key, 1)  # warm the latest-arrival cache
        _assert_latest_equivalent(fast, ref, key, rng, now)
        cutoff = now - rng.choice([0.0, rng.uniform(0.0, 12.0)])
        assert fast.prune_older_than(cutoff) == ref.prune_older_than(cutoff)
        _assert_latest_equivalent(fast, ref, key, rng, now)
