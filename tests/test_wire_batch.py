"""Wire-path plumbing beneath the framing layer.

The framing tests pin the *format*; this file pins the machinery the lean
wire path rides on: the vendored msgpack subset (:mod:`repro.runtime.mpack`)
at its encoding edges, the UDP carrier against a real loopback socket pair,
the transports' datagram accounting under coalescing and under a refusing
socket, the one release heap held-back copies wait in and the slack within
which they may leave early, what both carriers do with a frame under a
retired codec byte, and
what one raising emit or one retained buffer view may cost a tick (nothing
beyond itself).
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.net.delivery import FixedDelay, UniformDelay
from repro.runtime import mpack
from repro.runtime.framing import (
    FrameBatcher,
    FrameEncoder,
    decode_frames,
    derive_key,
    encode_frame,
)

# The authentic (right key, valid tag) JSON frames test_framing pins, as a
# node from before the format had one codec sealed them.
from tests.test_framing import KEY as RETIRED_KEY, RETIRED_JSON_FRAMES

KEY = derive_key("wire-batch")


# ---------------------------------------------------------------------------
# Vendored msgpack subset: edge-exact encodings and refusals
# ---------------------------------------------------------------------------
class TestMpack:
    @pytest.mark.parametrize(
        "value",
        [
            0, 1, 127, 128, 255, 256, 65535, 65536,
            -1, -32, -33, -128, -129, -32768, -32769,
            2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32,
            2 ** 63 - 1, 2 ** 64 - 1, -(2 ** 63),
            0.0, -2.5, 1e300, float("inf"),
            "", "x" * 31, "x" * 32, "x" * 255, "x" * 256, "é漢",
            None, True, False,
            [], [1, [2, [3]]], list(range(20)),
            {}, {"k": "v"}, {"a": {"b": {"c": None}}},
            b"", b"\x00\xff" * 300,
        ],
        ids=repr,
    )
    def test_scalar_and_container_round_trip(self, value) -> None:
        assert mpack.unpackb(mpack.packb(value)) == value

    def test_format_boundaries(self) -> None:
        # The subset must pick the canonical (smallest) format at each
        # boundary -- that is what keeps the wire byte-stable.
        assert mpack.packb(127) == b"\x7f"          # positive fixint edge
        assert mpack.packb(128) == b"\xcc\x80"      # -> uint8
        assert mpack.packb(-32) == b"\xe0"          # negative fixint edge
        assert mpack.packb(-33) == b"\xd0\xdf"      # -> int8
        assert mpack.packb("x" * 31)[0] == 0xBF     # fixstr edge
        assert mpack.packb("x" * 32)[0] == 0xD9     # -> str8
        assert mpack.packb([None] * 15)[0] == 0x9F  # fixarray edge
        assert mpack.packb([None] * 16)[:3] == b"\xdc\x00\x10"  # -> array16
        assert mpack.packb({}) == b"\x80"           # fixmap

    def test_int_beyond_64_bits_refused(self) -> None:
        for value in (2 ** 64, -(2 ** 63) - 1, 2 ** 100):
            with pytest.raises(mpack.MpackError):
                mpack.packb(value)

    def test_non_string_map_keys_refused(self) -> None:
        with pytest.raises(mpack.MpackError):
            mpack.packb({1: "x"})

    def test_unsupported_type_refused(self) -> None:
        with pytest.raises(mpack.MpackError):
            mpack.packb(object())

    def test_truncated_input_refused(self) -> None:
        blob = mpack.packb({"k": [1, "two", 3.0]})
        for cut in range(len(blob)):
            with pytest.raises(mpack.MpackError):
                mpack.unpackb(blob[:cut])

    def test_trailing_bytes_refused(self) -> None:
        with pytest.raises(mpack.MpackError):
            mpack.unpackb(mpack.packb(1) + b"\x00")

    def test_reserved_tag_refused(self) -> None:
        with pytest.raises(mpack.MpackError):
            mpack.unpackb(b"\xc1")  # 0xc1 is never used by msgpack


# ---------------------------------------------------------------------------
# Transport integration: coalescing shrinks the datagram count
# ---------------------------------------------------------------------------
class TestTransportCoalescing:
    def test_asyncio_burst_coalesces_into_fewer_datagrams(self) -> None:
        from repro.net.delivery import FixedDelay
        from repro.runtime.aio import AsyncioTransport
        from repro.sim.rand import RandomSource

        async def scenario():
            transport = AsyncioTransport(
                time_scale=0.001, policy=FixedDelay(0.25),
                rand=RandomSource(7, "net"),
            )
            inbox: list = []
            transport.register(0, lambda e: None)
            transport.register(1, inbox.append)
            for i in range(10):
                transport.send(0, 1, f"m{i}")
            await asyncio.sleep(0.05)
            return transport.datagrams_sent, [e.payload for e in inbox]

        datagrams, payloads = asyncio.run(scenario())
        assert payloads == [f"m{i}" for i in range(10)]
        assert datagrams < 10, "a same-tick burst must coalesce"

    def test_socket_burst_coalesces_on_the_wire(self) -> None:
        # Count *actual UDP datagrams* with a passive observer socket: ten
        # same-tick sends to one receiver must arrive in fewer datagrams.
        from repro.net.delivery import FixedDelay
        from repro.runtime.socket_host import SocketTransport
        from repro.sim.rand import RandomSource

        async def scenario():
            observer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            observer.bind(("127.0.0.1", 0))
            observer.setblocking(False)
            directory: dict[int, tuple[str, int]] = {1: observer.getsockname()}
            transport = SocketTransport(
                0, auth_key=KEY, time_scale=0.001, epoch_wall=time.time(),
                directory=directory, policy=FixedDelay(0.25),
                rand=RandomSource(7, "net"),
            )
            try:
                for i in range(10):
                    transport.send(0, 1, f"m{i}")
                await asyncio.sleep(0.05)
                datagrams, messages = 0, []
                while True:
                    try:
                        data, _ = observer.recvfrom(65536)
                    except BlockingIOError:
                        break
                    datagrams += 1
                    messages.extend(
                        f.payload for f in decode_frames(data, KEY)
                    )
                return datagrams, messages
            finally:
                transport.close()
                observer.close()

        datagrams, messages = asyncio.run(scenario())
        assert messages == [f"m{i}" for i in range(10)]
        assert datagrams < 10, "the burst must coalesce into BATCH datagrams"

    def test_socket_pair_round_trip_drains_every_datagram(self) -> None:
        # Ten sends in ten ticks are ten datagrams, each one sendto; the
        # receiving transport's recvfrom loop delivers them all, in order.
        from repro.runtime.socket_host import SocketTransport

        async def scenario():
            directory: dict[int, tuple[str, int]] = {}
            epoch = time.time()
            tx = SocketTransport(0, KEY, 0.001, epoch, directory)
            rx = SocketTransport(1, KEY, 0.001, epoch, directory)
            inbox: list = []
            rx.register(1, inbox.append)
            try:
                for i in range(10):
                    tx.send(0, 1, f"datagram-{i}")
                    await asyncio.sleep(0)  # the tick's flush runs
                    await asyncio.sleep(0)
                for _ in range(100):
                    if len(inbox) == 10:
                        break
                    await asyncio.sleep(0.005)
                return (
                    [e.payload for e in inbox],
                    (tx.sent_count, tx.datagrams_sent, tx.dropped_count),
                    (rx.delivered_count, rx.rejected_count),
                )
            finally:
                tx.close()
                rx.close()

        payloads, sent, received = asyncio.run(scenario())
        assert payloads == [f"datagram-{i}" for i in range(10)]
        assert sent == (10, 10, 0)
        assert received == (10, 0)

    def test_refused_batch_datagram_counts_its_copies_dropped_not_sent(self) -> None:
        # wire.py's invariant: datagrams_sent <= sent_count - dropped_count.
        # A BATCH the socket refuses (full buffer) loses all its copies and
        # never went out.
        from repro.runtime.socket_host import SocketTransport

        class RefusesOnce:
            def __init__(self, sock: socket.socket) -> None:
                self._sock = sock
                self.refusals = 1

            def __getattr__(self, name):
                return getattr(self._sock, name)

            def sendto(self, data, addr):
                if self.refusals:
                    self.refusals -= 1
                    raise BlockingIOError("send buffer full")
                return self._sock.sendto(data, addr)

        async def scenario():
            observer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            observer.bind(("127.0.0.1", 0))
            observer.setblocking(False)
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind(("127.0.0.1", 0))
            transport = SocketTransport(
                0, KEY, 0.001, time.time(), {1: observer.getsockname()},
                sock=RefusesOnce(sock),
            )
            try:
                counters = []
                for _round in range(2):  # refused, then accepted
                    for i in range(3):
                        transport.send(0, 1, f"m{i}")
                    await asyncio.sleep(0.01)
                    counters.append(
                        (transport.sent_count, transport.dropped_count,
                         transport.datagrams_sent)
                    )
                arrived = decode_frames(observer.recvfrom(65536)[0], KEY)
                with pytest.raises(BlockingIOError):
                    observer.recvfrom(65536)
                return counters, [f.payload for f in arrived]
            finally:
                transport.close()
                observer.close()

        counters, arrived = asyncio.run(scenario())
        assert counters == [(3, 3, 0), (6, 3, 1)]
        assert arrived == ["m0", "m1", "m2"]


# ---------------------------------------------------------------------------
# Held-back copies: one heap per transport, one loop timer
# ---------------------------------------------------------------------------
class _RecordingUniform(UniformDelay):
    """A :class:`UniformDelay` that keeps every delay it draws, in order."""

    def __init__(self, low: float, high: float) -> None:
        super().__init__(low, high)
        self.drawn: list[float] = []

    def decide(self, sender, receiver, payload, rng):
        decision = super().decide(sender, receiver, payload, rng)
        self.drawn.append(decision.delay)
        return decision


def _carriers(kind: str, policy, time_scale: float, receive) -> list:
    """Transports on the running loop, every node attached to ``receive``.

    ``asyncio``: one shared fabric, nodes 0-2.  ``socket``: a UDP pair,
    node 0 and node 1, sharing one address book.
    """
    from repro.runtime.aio import AsyncioTransport
    from repro.runtime.socket_host import SocketTransport
    from repro.sim.rand import RandomSource

    if kind == "asyncio":
        transport = AsyncioTransport(
            time_scale=time_scale, policy=policy,
            rand=RandomSource(7, "net"), auth_key=KEY,
        )
        for node_id in range(3):
            transport.register(node_id, receive)
        return [transport]
    directory: dict = {}
    epoch = time.time()
    transports = [
        SocketTransport(
            node_id, KEY, time_scale, epoch, directory, policy=policy,
            rand=RandomSource(7, f"net/{node_id}"),
        )
        for node_id in (0, 1)
    ]
    for node_id, transport in enumerate(transports):
        transport.register(node_id, receive)
    return transports


class TestReleaseHeap:
    @staticmethod
    def _transport(policy, time_scale=0.001):
        from repro.runtime.aio import AsyncioTransport
        from repro.sim.rand import RandomSource

        transport = AsyncioTransport(
            time_scale=time_scale, policy=policy, rand=RandomSource(7, "net")
        )
        inbox: list = []
        for node_id in range(3):
            transport.register(node_id, inbox.append)
        return transport, inbox

    @staticmethod
    def _spy_release_timers(transport) -> list:
        """Every loop timer the transport arms, recorded as it is armed."""
        loop = transport.loop
        armed: list[asyncio.TimerHandle] = []
        call_at = loop.call_at

        def spying_call_at(when, callback, *args, **kwargs):
            handle = call_at(when, callback, *args, **kwargs)
            if getattr(callback, "__self__", None) is transport:
                armed.append(handle)
            return handle

        loop.call_at = spying_call_at
        return armed

    def test_equal_release_instants_arrive_in_send_order(self) -> None:
        # With the loop clock frozen every copy's release instant is the same
        # float; the heap's sequence number alone must keep send order, for
        # copies from two senders to two receivers.
        from repro.net.delivery import FixedDelay

        async def scenario():
            transport, inbox = self._transport(FixedDelay(1.0))
            loop = transport.loop
            frozen = loop.time()
            loop.time = lambda: frozen
            try:
                for i in range(12):
                    transport.send(i % 2, 1 + i % 2, f"m{i}")
            finally:
                del loop.time
            heads = {entry[0] for entry in transport._held}
            await asyncio.sleep(0.02)
            transport.close()
            return heads, [(e.sender, e.receiver, e.payload) for e in inbox]

        heads, arrived = asyncio.run(scenario())
        assert len(heads) == 1  # genuinely equal instants
        # One BATCH per link; on each link, send order.
        for sender in (0, 1):
            link = [payload for s, _r, payload in arrived if s == sender]
            assert link == [f"m{i}" for i in range(sender, 12, 2)]
        assert sorted(arrived) == sorted(
            (i % 2, 1 + i % 2, f"m{i}") for i in range(12)
        )

    def test_many_held_copies_keep_one_loop_timer_armed(self) -> None:
        from repro.net.delivery import UniformDelay

        async def scenario():
            transport, inbox = self._transport(UniformDelay(0.5, 5.0))
            armed = self._spy_release_timers(transport)
            try:
                for i in range(50):
                    transport.broadcast(i % 3, f"w{i}")
                held = len(transport._held)
                live = [h for h in armed if not h.cancelled()]
                await asyncio.sleep(0.03)
                return held, live, len(inbox), transport._release_timer
            finally:
                del transport.loop.call_at
                transport.close()

        held, live, delivered, timer_after = asyncio.run(scenario())
        assert held == 150
        assert len(live) == 1  # re-armed for an earlier head, never added to
        assert delivered == 150
        assert timer_after is None  # the heap drained: nothing left armed

    def test_close_strands_held_copies_and_cancels_the_timer(self) -> None:
        from repro.net.delivery import FixedDelay

        async def scenario():
            transport, inbox = self._transport(FixedDelay(2.0))
            armed = self._spy_release_timers(transport)
            try:
                for i in range(20):
                    transport.send(0, 1, f"h{i}")
                assert len(transport._held) == 20 and len(armed) == 1
                transport.close()
                state = (len(transport._held), armed[0].cancelled())
                await asyncio.sleep(0.01)
                return state, inbox, transport.datagrams_sent
            finally:
                del transport.loop.call_at

        state, inbox, datagrams = asyncio.run(scenario())
        assert state == (0, True)
        assert inbox == [] and datagrams == 0

    # -- the release slack ---------------------------------------------
    # A held copy may leave with an earlier one, at most RELEASE_SLACK
    # early and never before its floor (send instant + the drawing policy's
    # min_delay()).  On a stepped clock the rule is checked exactly: the
    # test fires the one release timer by hand, on time, and records each
    # copy's release instant.  Both carriers inherit this code unchanged, so
    # the stepped tests run on the asyncio one only.

    def _stepped(self, policy, time_scale, script):
        """Run ``script(transport, send, step)`` on a stepped loop clock.

        ``send(sender, receiver, payload)`` sends one copy at the current
        instant; ``step(dt)`` advances the clock, firing the release timer
        at each instant it is armed for on the way.  Returns one row per
        copy -- ``(sent, sender, receiver, policy, release_at, seq, released)``
        -- and the number of timer fires.
        """
        async def scenario():
            transport, _inbox = self._transport(policy, time_scale)
            loop = transport.loop
            clock = [loop.time()]
            copies: dict[bytes, list] = {}
            released: list[bytes] = []
            fires = [0]

            def enqueue(receiver, sender, body):
                copies[body].append(clock[0])
                released.append(body)

            def send(sender, receiver, payload):
                transport.send(sender, receiver, payload)
                (entry,) = (e for e in transport._held if e[1] == transport._held_seq)
                copies[entry[5]] = [
                    clock[0], sender, receiver, transport.policy, *entry[:2]
                ]

            def step(dt):
                until = clock[0] + dt
                timer = transport._release_timer
                while timer is not None and timer.when() <= until:
                    timer.cancel()  # fired here, by hand, instead
                    clock[0] = timer.when()
                    fires[0] += 1
                    transport._release_held()
                    timer = transport._release_timer
                clock[0] = until

            transport._enqueue = enqueue
            loop.time = lambda: clock[0]
            try:
                script(transport, send, step)
                step(10.0)  # drain
                assert not transport._held and len(released) == len(copies)
            finally:
                del loop.time
                del transport._enqueue
                transport.close()
            return [tuple(copies[body]) for body in released], fires[0]

        return asyncio.run(scenario())

    def test_stepped_release_stays_between_floor_and_drawn_instant(self) -> None:
        from repro.runtime.wire import RELEASE_SLACK

        scale = 0.05
        slack = RELEASE_SLACK * scale
        policy = _RecordingUniform(0.2, 1.0)

        def script(_transport, send, step):
            for i in range(240):
                send(i % 2, (i // 2) % 2, f"c{i}")
                step(0.0002)

        rows, fires = self._stepped(policy, scale, script)
        assert len(rows) == len(policy.drawn) == 240
        early = 0
        eps = 1e-12
        for sent, _s, _r, used, release_at, _seq, released in rows:
            assert used is policy
            assert released >= sent + policy.low * scale - eps  # the floor
            assert released >= release_at - slack - eps  # <= S early
            assert released <= release_at + eps  # never late
            early += released < release_at - eps
        # Each (sender, receiver) pair leaves in drawn (release_at, seq) order.
        for pair in {(row[1], row[2]) for row in rows}:
            link = [row for row in rows if (row[1], row[2]) == pair]
            assert link == sorted(link, key=lambda row: (row[4], row[5]))
        # Drawn delays are each copy's own: the recorded draws, in send order.
        by_seq = sorted(rows, key=lambda row: row[5])
        for row, delay in zip(by_seq, policy.drawn):
            assert row[4] == pytest.approx(row[0] + delay * scale, abs=1e-12)
        assert early > 0 and fires < len(rows)  # the slack was used

    def test_stepped_fixed_delay_burst_is_never_early(self) -> None:
        scale = 0.05

        def script(_transport, send, step):
            for i in range(60):
                send(0, 1, f"f{i}")
                step(0.00001)  # far closer together than the slack

        rows, _fires = self._stepped(FixedDelay(0.5), scale, script)
        assert len(rows) == 60
        for sent, _s, _r, _policy, release_at, _seq, released in rows:
            assert released == release_at == sent + 0.5 * scale

    def test_stepped_floor_is_the_drawing_policys_across_a_swap(self) -> None:
        # Copies held across a set_policy (and a partition wrapped round the
        # new policy) keep the floor of the policy that drew them: a
        # lower-floored successor releasing close by cannot pull them out.
        from repro.runtime.wire import RELEASE_SLACK

        scale = 0.05
        slack = RELEASE_SLACK * scale
        before, after = FixedDelay(0.51), FixedDelay(0.5)

        def script(transport, send, step):
            for i in range(8):
                send(0, 1, f"a{i}")
                step(0.0001)
            step(0.00005)
            transport.set_policy(after)
            transport.set_partition(frozenset({2}))
            for i in range(8):
                send(1, 0, f"b{i}")
                step(0.0001)

        rows, _fires = self._stepped(before, scale, script)
        olds = [row for row in rows if row[3] is before]
        news = [row for row in rows if row[3] is not before]
        assert len(olds) == len(news) == 8
        assert all(row[3].inner is after for row in news)
        for row in rows:  # a FixedDelay floor is its drawn instant
            assert row[6] == row[4]
        # The case is exercised: an old copy was within the slack of a new
        # copy's release, past the floor the new policy would have given it.
        assert any(
            t < old[4] <= t + slack and t >= old[0] + after.delay * scale
            for t in {new[6] for new in news}
            for old in olds
        )

    @pytest.mark.parametrize("carrier", ["asyncio", "socket"])
    def test_spread_burst_arrives_in_bounds_in_fewer_datagrams(
        self, carrier
    ) -> None:
        # The same contract on the real loop clock, end to end.  Arrival can
        # only trail release, so the lower bounds hold exactly (up to the
        # clock's resolution); the upper one allows the loop's lateness.
        from repro.runtime.wire import RELEASE_SLACK

        scale = 0.05
        slack = RELEASE_SLACK * scale
        resolution = time.get_clock_info("monotonic").resolution
        late_s = 0.25
        policy = _RecordingUniform(0.1, 0.5)
        links = [(0, 1), (1, 0)] if carrier == "socket" else [(0, 1), (1, 2)]

        async def scenario():
            loop = asyncio.get_running_loop()
            arrivals: dict = {}

            def receive(envelope):
                arrivals[envelope.payload] = loop.time()

            transports = _carriers(carrier, policy, scale, receive)
            copies = {}
            try:
                for i in range(120):
                    sender, receiver = links[i % 2]
                    transport = transports[sender if carrier == "socket" else 0]
                    sent = loop.time()
                    transport.send(sender, receiver, f"s{i}")
                    (release_at, seq), = (
                        entry[:2] for entry in transport._held
                        if entry[1] == transport._held_seq
                    )
                    copies[f"s{i}"] = (
                        sent, sender, receiver, policy.drawn[-1], release_at, seq
                    )
                await asyncio.sleep(0.5 * scale + late_s)
                datagrams = sum(t.datagrams_sent for t in transports)
                return copies, arrivals, datagrams
            finally:
                for transport in transports:
                    transport.close()

        copies, arrivals, datagrams = asyncio.run(scenario())
        assert len(arrivals) == len(copies) == 120
        for payload, (sent, _s, _r, drawn, release_at, _seq) in copies.items():
            transit = arrivals[payload] - sent
            assert transit >= policy.low * scale - resolution
            assert arrivals[payload] >= release_at - slack - resolution
            assert transit <= drawn * scale + late_s
        # Each link arrives in its drawn (release_at, seq) order.
        for link in links:
            sent_on = [p for p, c in copies.items() if c[1:3] == link]
            by_arrival = sorted(sent_on, key=arrivals.__getitem__)
            by_draw = sorted(sent_on, key=lambda p: copies[p][4:])
            assert by_arrival == by_draw
        assert datagrams < len(copies)


# ---------------------------------------------------------------------------
# A retired codec byte is rejected, not delivered, on both carriers
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(RETIRED_JSON_FRAMES))
class TestRetiredCodecByteIsRejectedOnBothCarriers:
    def test_asyncio_carrier(self, name) -> None:
        from repro.runtime.aio import AsyncioTransport

        async def scenario():
            transport = AsyncioTransport(time_scale=0.001, auth_key=RETIRED_KEY)
            inbox: list = []
            transport.register(0, lambda e: None)  # the sender is a member
            transport.register(1, inbox.append)
            try:
                transport._transmit(1, bytes.fromhex(RETIRED_JSON_FRAMES[name]), 1)
                transport.send(0, 1, "current")  # the fabric is still up
                await asyncio.sleep(0.01)
            finally:
                transport.close()
            return [e.payload for e in inbox], transport

        payloads, transport = asyncio.run(scenario())
        assert payloads == ["current"]
        assert (transport.rejected_count, transport.delivered_count) == (1, 1)

    def test_socket_carrier(self, name) -> None:
        from repro.runtime.socket_host import SocketTransport

        async def scenario():
            transport = SocketTransport(1, RETIRED_KEY, 0.001, time.time())
            inbox: list = []
            transport.register(1, inbox.append)
            peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                peer.sendto(bytes.fromhex(RETIRED_JSON_FRAMES[name]), transport.address)
                for _ in range(100):
                    if transport.rejected_count:
                        break
                    await asyncio.sleep(0.005)
            finally:
                peer.close()
                transport.close()
            return inbox, transport

        inbox, transport = asyncio.run(scenario())
        assert inbox == []
        assert (transport.rejected_count, transport.delivered_count) == (1, 0)


# ---------------------------------------------------------------------------
# A sender outside the cluster is rejected, however well its frame seals
# ---------------------------------------------------------------------------
OUTSIDERS = [4, 2**32 - 1]  # n = 4: the first id past the cluster, the last id


@pytest.mark.parametrize("outsider", OUTSIDERS)
class TestSenderOutsideTheClusterIsRejectedOnBothCarriers:
    def test_asyncio_carrier(self, outsider) -> None:
        from repro.runtime.aio import AsyncioTransport

        async def scenario():
            transport = AsyncioTransport(time_scale=0.001, auth_key=KEY)
            inbox: list = []
            for node in (0, 2, 3):
                transport.register(node, lambda e: None)
            transport.register(1, inbox.append)
            try:
                forged = encode_frame(outsider, "forged", KEY, 1.0)
                transport._transmit(1, forged, 1)
                transport._transmit(1, encode_frame(3, "member", KEY, 1.0), 1)
                await asyncio.sleep(0.01)
            finally:
                transport.close()
            return [(e.sender, e.payload) for e in inbox], transport

        delivered, transport = asyncio.run(scenario())
        assert delivered == [(3, "member")]
        assert (transport.rejected_count, transport.delivered_count) == (1, 1)

    def test_socket_carrier(self, outsider) -> None:
        from repro.runtime.socket_host import SocketTransport

        async def scenario():
            peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            peer.bind(("127.0.0.1", 0))
            directory = {node: peer.getsockname() for node in (0, 2, 3)}
            transport = SocketTransport(1, KEY, 0.001, time.time(), directory)
            inbox: list = []
            transport.register(1, inbox.append)
            try:
                forged = encode_frame(outsider, "forged", KEY, 1.0)
                peer.sendto(forged, transport.address)
                peer.sendto(encode_frame(3, "member", KEY, 1.0), transport.address)
                for _ in range(100):
                    if transport.rejected_count and transport.delivered_count:
                        break
                    await asyncio.sleep(0.005)
            finally:
                peer.close()
                transport.close()
            return [(e.sender, e.payload) for e in inbox], transport

        delivered, transport = asyncio.run(scenario())
        assert delivered == [(3, "member")]
        assert (transport.rejected_count, transport.delivered_count) == (1, 1)


# ---------------------------------------------------------------------------
# One bad emit or one retained reference must not cost a tick its datagrams
# ---------------------------------------------------------------------------
class TestTickSurvivesOneBadDatagram:
    def test_raising_transmit_still_delivers_the_other_runs_in_order(self) -> None:
        encoder = FrameEncoder(KEY)
        sent: list[tuple[int, list]] = []

        def transmit(receiver, frame, count) -> None:
            if receiver in (2, 4):
                raise OSError(f"receiver {receiver} is unreachable")
            sent.append((receiver, [f.payload for f in decode_frames(frame, KEY)]))

        batcher = FrameBatcher(encoder, transmit)
        for receiver in (1, 2, 3, 4, 5):
            for i in range(3):
                batcher.add(receiver, 0, encoder.encode_body(f"r{receiver}m{i}"))
        with pytest.raises(OSError, match="receiver 2"):  # the first error
            batcher.flush()
        assert sent == [
            (r, [f"r{r}m{i}" for i in range(3)]) for r in (1, 3, 5)
        ]
        assert not batcher.pending
        batcher.flush()  # nothing left over to re-send or re-raise
        assert len(sent) == 3

    def test_held_view_of_a_decoded_datagram_cannot_fail_the_next_flush(
        self, monkeypatch
    ) -> None:
        # A sampling profiler or a retained traceback keeps a decode frame
        # alive -- and with it a view of whatever that frame was decoding.
        # If that were the encoder's reused bytearray, the next frame()'s
        # ``del buf[:]`` would be a BufferError and the tick's copies lost.
        from repro.runtime import aio

        held: list[memoryview] = []
        real_decode = aio.decode_frames

        def retaining_decode(data, key):
            held.append(memoryview(data))
            return real_decode(data, key)

        monkeypatch.setattr(aio, "decode_frames", retaining_decode)

        async def scenario():
            transport = aio.AsyncioTransport(time_scale=0.001)
            inbox: list = []
            transport.register(0, lambda e: None)
            transport.register(1, inbox.append)
            try:
                for tick in range(3):
                    transport.send(0, 1, f"tick{tick}")
                    await asyncio.sleep(0.01)
            finally:
                transport.close()
            return [e.payload for e in inbox], transport.rejected_count

        payloads, rejected = asyncio.run(scenario())
        assert payloads == ["tick0", "tick1", "tick2"]
        assert rejected == 0
        assert len(held) == 3 and all(type(v.obj) is bytes for v in held)

    def test_malformed_batch_counts_one_rejection_and_delivers_nothing(self) -> None:
        # An authentic BATCH whose first entry is a well-formed message (the
        # compiled path reads it) and whose second is cut short: one
        # rejected datagram, no delivery -- not a prefix.
        from repro.core.messages import SupportMsg
        from repro.runtime.aio import AsyncioTransport

        async def scenario():
            transport = AsyncioTransport(time_scale=0.001, auth_key=KEY)
            inbox: list = []
            transport.register(1, inbox.append)
            encoder = FrameEncoder(KEY)
            good = encoder.encode_body(SupportMsg((0, 200), "v"), 1.0)
            try:
                transport._transmit(1, encoder.frame_batch(0, [good, good[:-2]]), 2)
                await asyncio.sleep(0.01)
            finally:
                transport.close()
            return inbox, transport.rejected_count, transport.delivered_count

        inbox, rejected, delivered = asyncio.run(scenario())
        assert (inbox, rejected, delivered) == ([], 1, 0)
