"""Randomized differential test: incremental MessageLog vs naive reference.

The incremental log (:mod:`repro.node.msglog`) keeps flat sorted arrays and
cached per-sender latest arrivals; the reference
(:mod:`tests.oracles.msglog_ref`) is the original rescan-everything
implementation.  Equivalence is the correctness argument for the fast path:
drive both through thousands of identical mixed operations -- in-order adds,
out-of-order corrupt inserts, age/future prunes, key removals, clears --
and demand identical answers from every public query at every step.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.node.msglog import MessageLog
from tests.oracles.msglog_ref import ReferenceMessageLog

KEYS = [
    ("support", 0, "A"),
    ("support", 0, "B"),
    ("approve", 0, "A"),
    ("ready", 1, "B"),
    ("init", 2, "C"),
]
SENDERS = list(range(8))
KTHS = (1, 2, 3, 5, 8, 12)


def _assert_no_nan(fast: MessageLog, key) -> None:
    """The log marks "no record" with NaN inside; none may leak out."""
    latest = fast.latest_arrival_per_sender(key)
    assert not any(math.isnan(t) for t in latest.values())
    senders = fast.senders(key)
    assert all(type(sender) is int for sender in senders)
    assert senders == set(latest)
    for k in range(1, len(senders) + 2):
        kth = fast.kth_latest_distinct(key, k)
        assert (kth is None) == (k > len(senders))
        assert kth is None or not math.isnan(kth)
    earliest = fast.earliest_arrival(key)
    assert (earliest is None) == (not senders)
    assert earliest is None or not math.isnan(earliest)


def _assert_equivalent(
    fast: MessageLog, ref: ReferenceMessageLog, rng: random.Random, probes=SENDERS
) -> None:
    assert fast.keys == ref.keys
    assert fast.total_records() == ref.total_records()
    for key in KEYS + [("missing", 9, "Z")]:
        _assert_no_nan(fast, key)
        assert fast.senders(key) == ref.senders(key)
        assert fast.count_distinct(key) == ref.count_distinct(key)
        assert fast.latest_arrival_per_sender(key) == ref.latest_arrival_per_sender(key)
        assert fast.earliest_arrival(key) == ref.earliest_arrival(key)
        for sender in probes:
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
    _drive_mixed_operations(seed, SENDERS, SENDERS)


def _drive_mixed_operations(seed: int, senders: list[int], probes: list[int]) -> None:
    rng = random.Random(seed)
    fast = MessageLog()
    ref = ReferenceMessageLog()
    now = 0.0

    for step in range(2000):
        roll = rng.random()
        if roll < 0.55:
            # Normal arrival: nondecreasing local time, duplicates included.
            now += rng.choice([0.0, 0.01, 0.3, 1.0])
            key, sender = rng.choice(KEYS), rng.choice(senders)
            fast.add(key, sender, now)
            ref.add(key, sender, now)
        elif roll < 0.70:
            # Corruption: arbitrary past or future stamps.
            t = rng.uniform(-10.0, now + 50.0)
            key, sender = rng.choice(KEYS), rng.choice(senders)
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
            _assert_equivalent(fast, ref, rng, probes)

    _assert_equivalent(fast, ref, rng, probes)


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
    _assert_no_nan(fast, key)
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


# ---------------------------------------------------------------------------
# The typed-array storage: a per-sender row indexed by sender id (NaN for
# "no record") that each log widens as it meets wider ids.
# ---------------------------------------------------------------------------
SPARSE = [63, 31, 5, 0]  # the highest id first
#: Ids inside and outside every row, including ones no sender ever uses.
PROBES = SPARSE + [1, 4, 6, 30, 32, 62, 64, 200]


class _Pair:
    """A fast log and its reference, driven together and compared whole."""

    def __init__(self) -> None:
        self.fast = MessageLog()
        self.ref = ReferenceMessageLog()

    def add(self, key, sender: int, t: float) -> None:
        self.fast.add(key, sender, t)
        self.ref.add(key, sender, t)

    def corrupt(self, key, sender: int, t: float) -> None:
        self.fast.corrupt_insert(key, sender, t)
        self.ref.corrupt_insert(key, sender, t)

    def prune_older_than(self, cutoff: float) -> None:
        assert self.fast.prune_older_than(cutoff) == self.ref.prune_older_than(cutoff)

    def prune_future(self, now: float) -> None:
        assert self.fast.prune_future(now) == self.ref.prune_future(now)

    def check(self) -> None:
        _assert_equivalent(self.fast, self.ref, random.Random(0), PROBES)


def test_sparse_ids_highest_first_then_lower():
    """A key met first by id 63 is 64 wide at once; later keys and lower
    ids never widen it again, and the gaps between ids read as absent."""
    pair = _Pair()
    key, other = KEYS[0], KEYS[1]
    for step, sender in enumerate(SPARSE):
        pair.add(key, sender, 1.0 + step)
        pair.check()
    pair.add(other, 5, 10.0)  # a new key on a log already 64 wide
    pair.check()
    assert len(pair.fast._keys[other].latest) == 64


def test_sparse_ids_lowest_first_widens_old_keys():
    """The reverse: keys made narrow widen when a wider id reaches them."""
    pair = _Pair()
    for step, sender in enumerate(reversed(SPARSE)):
        for key in KEYS[:3]:
            pair.add(key, sender, 1.0 + step)
        pair.check()
    pair.corrupt(KEYS[3], 31, 2.5)
    pair.check()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_ids_differential(seed: int) -> None:
    _drive_mixed_operations(seed, SPARSE, PROBES)


def test_a_pruned_sender_comes_back():
    pair = _Pair()
    key = KEYS[0]
    pair.add(key, 31, 1.0)
    pair.add(key, 5, 2.0)
    pair.add(key, 63, 3.0)
    pair.fast.kth_latest_distinct(key, 1)  # warm the latest-arrival cache
    pair.prune_older_than(1.5)  # 31 goes, with its only record
    pair.check()
    assert not pair.fast.has_from(key, 31)
    pair.add(key, 31, 4.0)
    pair.check()
    assert pair.fast.latest_arrival_per_sender(key) == {5: 2.0, 63: 3.0, 31: 4.0}
    # Every sender pruned away: the key goes; the senders come back to a new one.
    pair.prune_older_than(10.0)
    pair.check()
    assert key not in pair.fast.keys
    pair.add(key, 63, 11.0)
    pair.add(key, 0, 11.0)
    pair.check()
    assert pair.fast.count_distinct(key) == 2


def test_prune_future_recomputes_a_cut_senders_latest():
    pair = _Pair()
    key = KEYS[0]
    pair.add(key, 63, 1.0)
    pair.add(key, 5, 2.0)
    pair.add(key, 63, 3.0)
    pair.corrupt(key, 63, 50.0)  # 63's latest is now a future stamp
    pair.corrupt(key, 31, 40.0)  # 31's only record is a future stamp
    pair.corrupt(key, 5, 1.5)  # out of order: 5's latest stays 2.0
    pair.fast.kth_latest_distinct(key, 2)  # warm the latest-arrival cache
    pair.check()
    pair.prune_future(10.0)
    pair.check()
    assert pair.fast.latest_arrival_per_sender(key) == {63: 3.0, 5: 2.0}
    assert pair.fast.kth_latest_distinct(key, 2) == 2.0
    assert not pair.fast.has_from(key, 31)


def test_out_of_order_corrupt_inserts():
    pair = _Pair()
    key = KEYS[0]
    pair.add(key, 63, 5.0)
    pair.add(key, 31, 6.0)
    pair.corrupt(key, 63, 1.0)  # behind 63's latest: latest unchanged
    pair.corrupt(key, 0, 0.5)  # a new sender's first record, out of order
    pair.corrupt(key, 5, 5.5)  # a new sender between two records
    pair.corrupt(key, 31, 6.0)  # a tie with a recorded arrival
    pair.check()
    assert pair.fast.latest_arrival_per_sender(key) == {63: 5.0, 31: 6.0, 0: 0.5, 5: 5.5}
    assert pair.fast.earliest_arrival(key) == 0.5
    assert list(pair.fast._keys[key].times) == [0.5, 1.0, 5.0, 5.5, 6.0, 6.0]
    pair.prune_older_than(0.75)
    pair.check()
