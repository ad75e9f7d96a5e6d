"""Per-node log of received protocol messages with arrival local-times.

The paper's primitives are condition-driven: every block is a predicate of
the form "received <kind> for (G, m) from at least k distinct nodes within
the local-time window [tau - a, tau]".  The log stores, per message *key*
(an arbitrary hashable, e.g. ``("support", G, m)``) and per authenticated
sender, the arrival local-times, and answers exactly those window queries.

Self-stabilization support: the log can be filled with arbitrary fabricated
records (:meth:`MessageLog.corrupt_insert`), modelling a node that wakes up
from a transient fault with spurious "received messages" in memory, and
pruned by age (the protocols' cleanup rules).

Fast path
---------
Window predicates are evaluated on *every* message arrival, so this module
is the single hottest query path in the simulator.  The log therefore keeps
incremental per-key state instead of rescanning records:

* a time-sorted arrival axis per key -- the one record store -- held as
  two typed arrays, ``times`` (``array('d')``) and ``time_senders``
  (``array('H')``), so a window query is two bisects plus a slice over
  only the in-window hits;
* an ``array('d')`` of each sender's latest arrival, indexed by sender id
  with NaN for "no record", and a count of the senders that have one, so
  per-sender queries and the age prune never touch the record store (a
  future prune, which only corruption makes necessary, recomputes a cut
  sender's latest by a backward scan of the kept axis);
* a lazily cached ascending list of per-sender latest arrivals, so
  ``kth_latest_distinct`` is a cache lookup instead of a sort per call.

A record is therefore ten bytes in the axis arrays and no object: no float
per arrival outlives the call that logged it.  Senders are node ids, ints
in ``range(65536)``.

Arrivals are observed in nondecreasing local time during normal operation,
so every maintenance step above is an O(1) append; bisect-insertion only
happens for out-of-order (corrupted) arrivals.  The naive original
implementation survives as the test oracle
``tests/oracles/msglog_ref.py`` (``ReferenceMessageLog``), and
``tests/test_msglog_equiv.py`` proves behavioural equivalence.

Push path
---------
On top of the incremental storage, the log offers a *subscription* API for
the protocol blocks whose guards are anchored-window quorum counts
("received <kind> from >= k distinct nodes within [anchor, now]"):

* :meth:`MessageLog.watch` registers a :class:`FreshWindowWatch` on one
  (key, window-start) pair.  The watch maintains the distinct-sender count
  for the half-open-ended window ``[start, now]`` incrementally: a normal
  in-order arrival sets one bit of an int (the matured senders) and bumps
  a count, not a window scan, and a watch holds no per-sender object.
* A watch may carry quorum ``thresholds`` and a ``sentinel`` sender; the
  registered callback fires exactly when the count *crosses* a threshold or
  the sentinel's first in-window record matures -- this is what lets the
  msgd-broadcast primitive skip block evaluation entirely for arrivals that
  cannot change any decision.
* Future-stamped records (transient corruption) are parked in a per-watch
  min-heap and *mature* -- get counted, possibly firing the callback -- as
  the observed local time passes them, matching the lazy semantics of the
  eager window query they replace.
* Any operation the watch cannot track in O(1) (age/future pruning, key
  removal, clears) marks it stale; the next query rebuilds it with one
  ordinary window query.  Consumers that prune are expected to re-evaluate
  their guards unconditionally right after, so no crossing is ever lost.

``count_distinct_in`` itself also gained a fast path for the *sliding*
windows of Initiator-Accept (``[now - c*d, now]``): when the window end is
at or beyond the newest record, a sender has an in-window arrival iff its
latest arrival is >= the window start, so the cached ascending
latest-arrival array answers the count with a single bisect.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Callable, Hashable, Iterable, Optional, Sequence

Key = Hashable

_NAN = float("nan")
_NAN_1 = array("d", (_NAN,))
# Empty templates: copying one is about three times quicker than
# ``array("d")``, which parses its typecode.
_NO_TIMES = array("d")
_NO_SENDERS = array("H")


@lru_cache(maxsize=64)
def _threshold_set(thresholds: tuple[int, ...]) -> frozenset[int]:
    """One shared (immutable) set per distinct threshold tuple."""
    return frozenset(thresholds)


class _KeyLog:
    """Incremental state for one message key, in typed arrays."""

    __slots__ = ("latest", "nsenders", "times", "time_senders", "latest_sorted")

    def __init__(self, latest: array) -> None:
        # latest[s]: sender s's latest arrival local-time; NaN: no record
        self.latest = latest
        # how many senders have a record (the non-NaN entries of latest)
        self.nsenders = 0
        # flat arrival axis: times is sorted, time_senders[i] sent times[i]
        self.times = _NO_TIMES.__copy__()
        self.time_senders = _NO_SENDERS.__copy__()
        # ascending per-sender latest arrivals; None when stale
        self.latest_sorted: Optional[list[float]] = None

    # -- recording ------------------------------------------------------
    def add(self, sender: int, arrival: float) -> None:
        # A sender wider than ``latest`` raises IndexError here, before
        # anything changes: the log widens the key and retries.
        latest = self.latest
        old_latest = latest[sender]
        times = self.times
        if times and arrival < times[-1]:
            idx = bisect_right(times, arrival)
            self.time_senders.insert(idx, sender)
            times.insert(idx, arrival)
        else:
            self.time_senders.append(sender)
            times.append(arrival)
        if old_latest == old_latest:  # not the sender's first record
            if arrival > old_latest:
                latest[sender] = arrival
                cache = self.latest_sorted
                if cache is not None:
                    del cache[bisect_left(cache, old_latest)]
                    insort(cache, arrival)
            # else out-of-order (corruption): the sender's latest is unchanged
        else:
            latest[sender] = arrival
            self.nsenders += 1
            cache = self.latest_sorted
            if cache is not None:
                insort(cache, arrival)

    # -- queries --------------------------------------------------------
    def window_senders(self, start: float, end: float) -> set[int]:
        times = self.times
        lo = bisect_left(times, start)
        hi = bisect_right(times, end)
        if lo >= hi:
            return set()
        if hi - lo == len(times):
            return set(self.time_senders)
        return set(self.time_senders[lo:hi])

    def latest_ascending(self) -> list[float]:
        cache = self.latest_sorted
        if cache is None:
            cache = sorted(t for t in self.latest if t == t)
            self.latest_sorted = cache
        return cache

    # -- pruning --------------------------------------------------------
    def prune_older_than(self, cutoff: float) -> int:
        times = self.times
        idx = bisect_left(times, cutoff)
        if idx == 0:
            return 0
        del times[:idx]
        del self.time_senders[:idx]
        latest = self.latest
        dead = 0
        for sender, t in enumerate(latest):
            if t < cutoff:  # never true of NaN
                latest[sender] = _NAN
                dead += 1
        if dead:
            self.nsenders -= dead
            self.latest_sorted = None  # lost whole senders
        return idx

    def prune_future(self, now: float) -> int:
        times = self.times
        keep = bisect_right(times, now)
        total = len(times)
        if keep == total:
            return 0
        del times[keep:]
        del self.time_senders[keep:]
        latest = self.latest
        cut = {sender for sender, t in enumerate(latest) if t > now}
        # A cut sender's new latest is its last record left on the axis.
        senders = self.time_senders
        i = keep
        while cut and i:
            i -= 1
            sender = senders[i]
            if sender in cut:
                cut.discard(sender)
                latest[sender] = times[i]
        for sender in cut:
            latest[sender] = _NAN
        self.nsenders -= len(cut)
        self.latest_sorted = None  # future stamps are always some latest
        return total - keep


def _each(held) -> Sequence:
    """A key's watches, from one stored bare or a list of two or more."""
    return held if held.__class__ is list else (held,)


class FreshWindowWatch:
    """Incremental distinct-sender counter for one ``[start, now]`` window.

    Created via :meth:`MessageLog.watch`.  ``count(now)`` / ``has(sender,
    now)`` answer exactly what ``count_distinct_in(key, start, now)`` /
    ``sender in distinct_senders_in(key, start, now)`` would, in O(1)
    amortized instead of a window scan.  ``now`` must be nondecreasing
    across queries (local clocks are monotone); records stamped beyond the
    highest ``now`` seen so far are parked in ``_pending`` (allocated when
    the first one parks) and mature as time passes them.

    ``on_event`` (if given) fires with the watch as its argument whenever
    the distinct count *reaches* one of ``thresholds``, or the ``sentinel``
    sender's first in-window record matures.  It never fires from a stale
    rebuild: staleness only results from operations (prunes, removals)
    whose caller must re-evaluate its guards unconditionally anyway.
    """

    __slots__ = (
        "log",
        "key",
        "start",
        "thresholds",
        "sentinel",
        "on_event",
        "_matured",
        "_count",
        "_pending",
        "_hwm",
        "_stale",
        "cancelled",
    )

    def __init__(
        self,
        log: "MessageLog",
        key: Key,
        start: float,
        thresholds: frozenset[int],
        sentinel: Optional[int],
        on_event: Optional[Callable[["FreshWindowWatch"], None]],
    ) -> None:
        self.log = log
        self.key = key
        self.start = start
        self.thresholds = thresholds
        self.sentinel = sentinel
        self.on_event = on_event
        # Matured senders: bit ``s`` set for sender ``s``, and how many.
        self._matured = 0
        self._count = 0
        self._pending: Optional[list[tuple[float, int]]] = None
        self._hwm = float("-inf")
        self._stale = True  # built lazily on first query
        self.cancelled = False

    # -- maintenance hooks (called by MessageLog) -----------------------
    def _on_add(self, sender: int, arrival: float, advances_time: bool) -> None:
        if self._stale:
            return  # rebuilt from the log on next query
        if advances_time and arrival > self._hwm:
            if self._pending:
                self._drain(arrival)
            self._hwm = arrival
        if arrival < self.start:
            return
        if arrival <= self._hwm:
            self._mature(sender)
        elif self._pending is None:
            self._pending = [(arrival, sender)]
        else:
            heappush(self._pending, (arrival, sender))

    def _mature(self, sender: int) -> None:
        bit = 1 << sender
        matured = self._matured
        if matured & bit:
            return
        self._matured = matured | bit
        self._count += 1
        if self.on_event is not None and (
            sender == self.sentinel or self._count in self.thresholds
        ):
            self.log.watch_fires += 1
            self.on_event(self)

    def _drain(self, now: float) -> None:
        pending = self._pending
        while pending and pending[0][0] <= now:
            self._mature(heappop(pending)[1])

    def _rebuild(self, now: float) -> None:
        senders = self.log.distinct_senders_in(self.key, self.start, now)
        matured = 0
        for sender in senders:
            matured |= 1 << sender
        self._matured = matured
        self._count = len(senders)
        pending = None
        klog = self.log._keys.get(self.key)
        if klog is not None and klog.times and klog.times[-1] > now:
            idx = bisect_right(klog.times, now)
            start = self.start
            pending = [
                (t, s)
                for t, s in zip(klog.times[idx:], klog.time_senders[idx:])
                if t >= start
            ]
            heapify(pending)
        self._pending = pending or None
        self._hwm = now
        self._stale = False

    def _sync(self, now: float) -> None:
        if self._stale:
            self._rebuild(now)
        elif now > self._hwm:
            if self._pending:
                self._drain(now)
            self._hwm = now

    # -- queries --------------------------------------------------------
    def count(self, now: float) -> int:
        """Distinct senders with an arrival in ``[start, now]``."""
        self._sync(now)
        return self._count

    def has(self, sender: int, now: float) -> bool:
        """True iff ``sender`` has an arrival in ``[start, now]``."""
        self._sync(now)
        return bool(self._matured >> sender & 1)

    @property
    def has_pending(self) -> bool:
        """True if future-stamped (or unverified stale) records may mature."""
        return self._stale or bool(self._pending)

    def cancel(self) -> None:
        """Detach from the log (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            self.log._unwatch(self)


class MessageLog:
    """Arrival-time log keyed by (message key, sender)."""

    def __init__(self) -> None:
        self._keys: dict[Key, _KeyLog] = {}
        # All NaN, one slot per sender id seen so far; new keys copy it.
        self._blank = array("d")
        #: Each watched key's watch, or a list of them once it has two.
        self._watches: dict[Key, FreshWindowWatch | list[FreshWindowWatch]] = {}
        #: Watch callbacks actually fired (threshold crossings / sentinel
        #: maturations).  Observability only -- never read by protocol code.
        self.watch_fires = 0

    def live_watch_count(self) -> int:
        """Currently registered (uncancelled) watches across all keys."""
        return sum(len(_each(held)) for held in self._watches.values())

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, key: Key, sender: int, arrival_local: float) -> None:
        """Record one arrival (stamped with the *current* local time)."""
        klog = self._keys.get(key)
        if klog is None:
            klog = self._keys[key] = _KeyLog(self._blank.__copy__())
        try:
            klog.add(sender, arrival_local)
        except IndexError:
            self._widen(klog, sender)
            klog.add(sender, arrival_local)
        if self._watches:
            held = self._watches.get(key)
            if held.__class__ is list:
                for watch in held:
                    watch._on_add(sender, arrival_local, True)
            elif held is not None:
                held._on_add(sender, arrival_local, True)

    def corrupt_insert(self, key: Key, sender: int, arrival_local: float) -> None:
        """Insert a fabricated record (transient-fault modelling).

        Unlike :meth:`add`, the stamp is arbitrary -- it says nothing about
        the current local time, so watches must not treat it as a clock
        advance (a future stamp stays pending until real queries pass it).
        """
        klog = self._keys.get(key)
        if klog is None:
            klog = self._keys[key] = _KeyLog(self._blank.__copy__())
        try:
            klog.add(sender, arrival_local)
        except IndexError:
            self._widen(klog, sender)
            klog.add(sender, arrival_local)
        if self._watches and key in self._watches:
            for watch in _each(self._watches[key]):
                watch._on_add(sender, arrival_local, False)

    def _widen(self, klog: _KeyLog, sender: int) -> None:
        """Make ``klog.latest`` (and every key made from now on) wide
        enough for ``sender``: a log learns its width in its first keys."""
        blank = self._blank
        if sender >= len(blank):
            blank = self._blank = _NAN_1 * (sender + 1)
        klog.latest.extend(blank[len(klog.latest):])

    # ------------------------------------------------------------------
    # Subscriptions (the push-based evaluators' fast path)
    # ------------------------------------------------------------------
    def watch(
        self,
        key: Key,
        start: float,
        thresholds: Iterable[int] = (),
        sentinel: Optional[int] = None,
        on_event: Optional[Callable[[FreshWindowWatch], None]] = None,
    ) -> FreshWindowWatch:
        """Subscribe an incremental ``[start, now]`` distinct-sender counter.

        ``on_event`` fires when the count reaches any of ``thresholds`` or
        when ``sentinel``'s first in-window record matures.  The caller owns
        the watch's lifetime: :meth:`FreshWindowWatch.cancel` detaches it.
        """
        shared = _threshold_set(tuple(thresholds))
        watch = FreshWindowWatch(self, key, start, shared, sentinel, on_event)
        held = self._watches.get(key)
        if held is None:
            self._watches[key] = watch
        elif held.__class__ is list:
            held.append(watch)
        else:
            self._watches[key] = [held, watch]
        return watch

    def _unwatch(self, watch: FreshWindowWatch) -> None:
        key = watch.key
        held = self._watches.get(key)
        if held is watch:
            del self._watches[key]
        elif held.__class__ is list and watch in held:
            held.remove(watch)
            if len(held) == 1:
                self._watches[key] = held[0]

    def _invalidate_watches(self, key: Optional[Key] = None) -> None:
        """Mark watches stale (all of them, or one key's)."""
        if not self._watches:
            return
        if key is None:
            for held in self._watches.values():
                for watch in _each(held):
                    watch._stale = True
        elif key in self._watches:
            for watch in _each(self._watches[key]):
                watch._stale = True

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------
    def senders(self, key: Key) -> set[int]:
        """All senders with at least one record for the key."""
        klog = self._keys.get(key)
        if klog is None:
            return set()
        return {sender for sender, t in enumerate(klog.latest) if t == t}

    def count_distinct(self, key: Key) -> int:
        """Number of distinct senders recorded for the key (any time)."""
        klog = self._keys.get(key)
        return klog.nsenders if klog is not None else 0

    def distinct_senders_in(self, key: Key, start: float, end: float) -> set[int]:
        """Senders with at least one arrival in the closed window [start, end]."""
        klog = self._keys.get(key)
        if klog is None:
            return set()
        return klog.window_senders(start, end)

    def count_distinct_in(self, key: Key, start: float, end: float) -> int:
        """Number of distinct senders with an arrival in [start, end].

        Fast path for the protocol's sliding windows ``[now - c*d, now]``:
        when ``end`` is at or beyond the newest record, every sender's
        latest arrival is <= ``end``, so a sender has an in-window arrival
        iff its latest arrival is >= ``start`` -- one bisect on the cached
        ascending latest-arrival array instead of a window scan.
        """
        klog = self._keys.get(key)
        if klog is None:
            return 0
        times = klog.times
        if not times:
            return 0
        if end >= times[-1]:
            if start <= times[0]:
                return klog.nsenders
            latest = klog.latest_ascending()
            return len(latest) - bisect_left(latest, start)
        return len(klog.window_senders(start, end))

    def latest_arrival_per_sender(self, key: Key) -> dict[int, float]:
        """Latest recorded arrival per sender."""
        klog = self._keys.get(key)
        if klog is None:
            return {}
        return {sender: t for sender, t in enumerate(klog.latest) if t == t}

    def kth_latest_distinct(self, key: Key, k: int) -> Optional[float]:
        """Start of the shortest window ending *now* with k distinct senders.

        Returns the k-th largest of the per-sender latest arrivals (i.e. the
        arrival time of the "slowest" member of the most recent k-quorum), or
        ``None`` if fewer than k distinct senders are recorded.  This
        implements the paper's "shortest interval [tau - a, tau]" phrasing in
        Block L.
        """
        klog = self._keys.get(key)
        if klog is None or klog.nsenders < k or k <= 0:
            return None
        return klog.latest_ascending()[-k]

    def earliest_arrival(self, key: Key) -> Optional[float]:
        """Earliest arrival recorded for the key across all senders."""
        klog = self._keys.get(key)
        if klog is None or not klog.times:
            return None
        return klog.times[0]

    def has_from(self, key: Key, sender: int) -> bool:
        """True iff the key has a record from the given sender."""
        klog = self._keys.get(key)
        if klog is None or not 0 <= sender < len(klog.latest):
            return False
        t = klog.latest[sender]
        return t == t

    # ------------------------------------------------------------------
    # Cleanup (the protocols' decay rules)
    # ------------------------------------------------------------------
    def prune_older_than(self, cutoff_local: float) -> int:
        """Drop records with arrival before ``cutoff_local``; return count.
        A key whose oldest stamp is not due costs one read."""
        if not self._keys:
            return 0
        dropped = 0
        empty_keys = []
        for key, klog in self._keys.items():
            times = klog.times
            if times and times[0] >= cutoff_local:
                continue
            dropped += klog.prune_older_than(cutoff_local)
            if not klog.nsenders:
                empty_keys.append(key)
        for key in empty_keys:
            del self._keys[key]
        if dropped:
            self._invalidate_watches()
        return dropped

    def prune_future(self, now_local: float) -> int:
        """Drop records with arrival times in the (local) future.

        The paper: "Each time-stamped entry that is clearly wrong, with
        respect to the current clock reading ... is removed; i.e., future
        time stamps or too old time stamps."  Future stamps only arise from
        transient corruption.  (Matching the original implementation, a key
        emptied here keeps its -- empty -- entry; only age-pruning retires
        keys.)  A key whose newest stamp is not due costs one read.
        """
        if not self._keys:
            return 0
        dropped = 0
        for klog in self._keys.values():
            times = klog.times
            if times and times[-1] > now_local:
                dropped += klog.prune_future(now_local)
        if dropped:
            self._invalidate_watches()
        return dropped

    def decay(self, cutoff_local: float, now_local: float) -> int:
        """The cleanup rules' pass: :meth:`prune_older_than`, :meth:`prune_future`."""
        if not self._keys:
            return 0
        return self.prune_older_than(cutoff_local) + self.prune_future(now_local)

    def remove_keys(self, keys: Iterable[Key]) -> None:
        """Remove all records for the given keys (N4's "remove all (G,m))."""
        for key in keys:
            if self._keys.pop(key, None) is not None:
                self._invalidate_watches(key)

    def remove_matching(self, predicate) -> None:
        """Remove all records whose key satisfies the predicate."""
        for key in [k for k in self._keys if predicate(k)]:
            del self._keys[key]
            self._invalidate_watches(key)

    def clear(self) -> None:
        """Drop everything."""
        self._keys.clear()
        self._invalidate_watches()

    @property
    def keys(self) -> list[Key]:
        """All keys with at least one record."""
        return list(self._keys)

    def total_records(self) -> int:
        """Total number of stored arrivals (for memory-boundedness tests)."""
        return sum(len(klog.times) for klog in self._keys.values())


__all__ = ["FreshWindowWatch", "MessageLog"]
