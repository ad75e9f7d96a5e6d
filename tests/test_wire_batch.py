"""Wire-path plumbing beneath the framing layer.

The framing tests pin the *format*; this file pins the machinery the lean
wire path rides on: the vendored msgpack subset (:mod:`repro.runtime.mpack`)
at its encoding edges, the UDP carrier against a real loopback socket pair,
the transports' datagram accounting under coalescing and under a refusing
socket, the one release heap held-back copies wait in, what both carriers
do with a frame under a retired codec byte, and
what one raising emit or one retained buffer view may cost a tick (nothing
beyond itself).
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.runtime import mpack
from repro.runtime.framing import (
    FrameBatcher,
    FrameEncoder,
    decode_frames,
    derive_key,
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
class TestReleaseHeap:
    @staticmethod
    def _transport(policy):
        from repro.runtime.aio import AsyncioTransport
        from repro.sim.rand import RandomSource

        transport = AsyncioTransport(
            time_scale=0.001, policy=policy, rand=RandomSource(7, "net")
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
