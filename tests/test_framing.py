"""Byte-level hardening tests for the shared wire framing.

Both non-sim transports (:class:`~repro.runtime.aio.AsyncioTransport` and
:class:`~repro.runtime.socket_host.SocketTransport`) move every message
through :mod:`repro.runtime.framing`, so this file is the single place the
wire format is pinned down: payload round-trips for the whole protocol
vocabulary, the zero-alloc :class:`FrameEncoder` fast path checked byte for
byte against the tree-building reference and against golden frames from
before the format had one codec, BATCH-frame coalescing (pack/split
round-trips, every-prefix truncation, overflow refusal, atomic rejection),
and refusal -- with the
right exception -- of truncated, oversized, tampered, forged-sender and
garbage frames.

The receive path's compiled decode plans and payload memo
(:class:`FrameDecoder`) are pinned *differentially*: for valid, truncated,
bit-flipped and byte-inserted bodies, single and BATCH, the decoder must
reach the verdict -- and the value, type for type -- that the generic tree
decode (:func:`repro.runtime.mpack.unpackb`, the sole oracle) alone reaches.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import (
    ALL_MESSAGE_TYPES,
    ApproveMsg,
    InitiatorMsg,
    MBEchoMsg,
    MBEchoPrimeMsg,
    MBInitMsg,
    MBInitPrimeMsg,
    ReadyMsg,
    SupportMsg,
)
from repro.core.params import BOTTOM
from repro.runtime import framing, mpack
from repro.runtime.framing import (
    Frame,
    FrameAuthError,
    FrameBatcher,
    FrameCodecError,
    FrameDecoder,
    FrameEncoder,
    FrameError,
    HEADER_BYTES,
    MAX_BODY_BYTES,
    MIN_FRAME_BYTES,
    OversizedFrameError,
    TruncatedFrameError,
    decode_frame,
    decode_frames,
    derive_key,
    encode_batch_frame,
    encode_frame,
)

KEY = derive_key("test")
OTHER_KEY = derive_key("not-the-test-key")
#: Keeps the ``[...msgpack]`` node ids these tests had while a second codec
#: existed, so their history (and CI's floor list) carries on unbroken.
MSGPACK_ID = pytest.mark.parametrize((), [pytest.param(id="msgpack")])

ROUND_TRIP_PAYLOADS = [
    "a plain string value",
    0,
    -17,
    3.25,
    True,
    None,
    ("a", 1, ("nested", 2)),
    ["list", "of", ("mixed", 3)],
    {"str": "keys", "nested": {"ok": True}},
    BOTTOM,
    InitiatorMsg(general=0, value="v"),
    SupportMsg(general=1, value="w"),
    ApproveMsg(general=2, value=("tuple", "valued")),
    ReadyMsg(general=0, value=BOTTOM),
    MBInitMsg(general=0, origin=3, value="A", k=1),
    MBEchoMsg(general=0, origin=3, value="A", k=2),
    MBInitPrimeMsg(general=1, origin=0, value="B", k=1),
    MBEchoPrimeMsg(general=1, origin=2, value="B", k=3),
]


class TestRoundTrip:
    @MSGPACK_ID
    @pytest.mark.parametrize("payload", ROUND_TRIP_PAYLOADS, ids=repr)
    def test_payload_survives(self, payload) -> None:
        frame = encode_frame(7, payload, KEY, sent_at=1.5)
        decoded = decode_frame(frame, KEY)
        assert decoded == Frame(sender=7, payload=payload, sent_at=1.5)

    def test_bottom_round_trips_to_the_singleton(self) -> None:
        decoded = decode_frame(encode_frame(0, BOTTOM, KEY), KEY)
        assert decoded.payload is BOTTOM

    @MSGPACK_ID
    def test_message_dataclasses_reconstruct_their_types(self) -> None:
        for cls in ALL_MESSAGE_TYPES:
            original = (
                cls(general=0, value="v")
                if cls in (InitiatorMsg, SupportMsg, ApproveMsg, ReadyMsg)
                else cls(general=0, origin=1, value="v", k=2)
            )
            frame = encode_frame(1, original, KEY)
            decoded = decode_frame(frame, KEY).payload
            assert type(decoded) is cls
            assert decoded == original

    @MSGPACK_ID
    def test_unencodable_payload_refused_at_encode(self) -> None:
        for payload in (object(), {1: "non-string key"}):
            with pytest.raises(FrameCodecError):
                encode_frame(0, payload, KEY)
            with pytest.raises(FrameCodecError):
                FrameEncoder(KEY).encode(0, payload)

    def test_msgpack_codec_always_available(self) -> None:
        # The vendored subset is the codec: nothing to install, no import
        # to gate on, and the label the benchmark records says so.
        assert framing.MSGPACK_IMPL == "py"
        msg = MBInitMsg(general=0, origin=3, value="A", k=1)
        frame = encode_frame(3, msg, KEY, sent_at=2.0)
        assert frame[2:3] == b"M"
        assert decode_frame(frame, KEY) == Frame(3, msg, 2.0)


class TestFrameEncoder:
    @MSGPACK_ID
    @pytest.mark.parametrize("payload", ROUND_TRIP_PAYLOADS, ids=repr)
    def test_fast_path_matches_reference(self, payload) -> None:
        frame = bytes(FrameEncoder(KEY).encode(7, payload, sent_at=1.5))
        assert frame == encode_frame(7, payload, KEY, sent_at=1.5)
        assert decode_frame(frame, KEY) == Frame(7, payload, 1.5)

    def test_buffer_is_reused_across_encodes(self) -> None:
        # The zero-alloc contract: the encoder hands back the *same*
        # bytearray each call, so callers must consume before re-encoding.
        encoder = FrameEncoder(KEY)
        first = encoder.encode(1, "a")
        copy = bytes(first)
        second = encoder.encode(1, "b")
        assert second is first  # same underlying buffer object
        assert bytes(first) != copy  # and its contents moved on

    def test_body_then_frame_equals_direct_encode(self) -> None:
        encoder = FrameEncoder(KEY)
        body = encoder.encode_body("hello", 2.0)
        framed = bytes(encoder.frame(4, body))
        direct = bytes(encoder.encode(4, "hello", 2.0))
        assert framed == direct

    def test_skeleton_pack_matches_tree_pack(self) -> None:
        # The per-class skeleton fast path must emit byte-identical msgpack
        # to packing the tagged tree -- same wire, just without the tree.
        for payload in ROUND_TRIP_PAYLOADS:
            direct = bytearray()
            framing._pack_payload_into(direct, payload)
            assert bytes(direct) == mpack.packb(framing._to_wire(payload))

    @MSGPACK_ID
    def test_oversized_body_refused(self) -> None:
        encoder = FrameEncoder(KEY)
        with pytest.raises(OversizedFrameError):
            encoder.encode(0, "x" * (MAX_BODY_BYTES + 1))
        with pytest.raises(OversizedFrameError):
            encoder.encode_body("x" * (MAX_BODY_BYTES + 1))

    def test_int64_overflow_is_a_codec_error_on_msgpack(self) -> None:
        encoder = FrameEncoder(KEY)
        with pytest.raises(FrameCodecError):
            encoder.encode(0, 2 ** 70)


class TestBatchFrames:
    @MSGPACK_ID
    def test_pack_split_round_trip(self) -> None:
        batch = encode_batch_frame(9, ROUND_TRIP_PAYLOADS, KEY, sent_at=0.5)
        frames = decode_frames(batch, KEY)
        assert [f.payload for f in frames] == ROUND_TRIP_PAYLOADS
        assert all(f.sender == 9 and f.sent_at == 0.5 for f in frames)

    def test_single_frame_decodes_as_one_element_tuple(self) -> None:
        frame = encode_frame(3, "solo", KEY)
        assert decode_frames(frame, KEY) == (Frame(3, "solo", 0.0),)

    def test_property_random_corpora_round_trip(self) -> None:
        # Property test: random mixes of the protocol vocabulary, random
        # batch sizes -- every batch splits back to its inputs.
        rng = random.Random(0xB47C)
        for trial in range(25):
            size = rng.randint(1, 40)
            payloads = [
                rng.choice(ROUND_TRIP_PAYLOADS) for _ in range(size)
            ]
            batch = encode_batch_frame(trial, payloads, KEY)
            frames = decode_frames(batch, KEY)
            assert [f.payload for f in frames] == payloads
            assert all(f.sender == trial for f in frames)

    @MSGPACK_ID
    def test_every_prefix_of_a_batch_is_refused(self) -> None:
        batch = encode_batch_frame(2, ROUND_TRIP_PAYLOADS[:5], KEY)
        for cut in range(len(batch)):
            with pytest.raises(FrameError):
                decode_frames(batch[:cut], KEY)

    def test_overflowing_batch_refused_at_encode(self) -> None:
        # Three 8 KB bodies exceed the 16 KB datagram budget; the encoder
        # must refuse rather than emit a fragmenting datagram.
        big = "x" * 8000
        with pytest.raises(OversizedFrameError):
            encode_batch_frame(0, [big, big, big], KEY)

    def test_empty_batch_refused_at_encode(self) -> None:
        with pytest.raises(FrameCodecError):
            encode_batch_frame(0, [], KEY)

    def test_batch_refused_by_single_frame_decode(self) -> None:
        batch = encode_batch_frame(1, ["a", "b"], KEY)
        with pytest.raises(FrameCodecError):
            decode_frame(batch, KEY)

    def test_tampered_batch_is_refused(self) -> None:
        batch = bytearray(encode_batch_frame(1, ["a", "b"], KEY))
        batch[HEADER_BYTES + 3] ^= 0xFF
        with pytest.raises(FrameAuthError):
            decode_frames(bytes(batch), KEY)

    def test_forged_sender_on_batch_is_refused(self) -> None:
        batch = bytearray(encode_batch_frame(1, ["a", "b"], KEY))
        batch[3:7] = (2).to_bytes(4, "big")
        with pytest.raises(FrameAuthError):
            decode_frames(bytes(batch), KEY)

    def test_malformed_interior_rejects_the_whole_batch(self) -> None:
        # An authentic batch whose *interior* is garbage (a buggy peer)
        # must reject atomically -- no prefix of its messages delivered.
        encoder = FrameEncoder(KEY)
        good = encoder.encode_body("fine")
        interior = (
            len(good).to_bytes(2, "big") + good
            + (5).to_bytes(2, "big") + b"\xc1garb"  # 0xc1 is never valid
        )
        frame = _authentic_frame(interior, codec_byte=b"m")
        with pytest.raises(FrameCodecError):
            decode_frames(frame, KEY)

    def test_entry_overrunning_body_is_refused(self) -> None:
        encoder = FrameEncoder(KEY)
        good = encoder.encode_body("fine")
        interior = (len(good) + 9).to_bytes(2, "big") + good  # lies long
        with pytest.raises(FrameCodecError):
            decode_frames(_authentic_frame(interior, codec_byte=b"m"), KEY)

    def test_empty_batch_body_is_refused(self) -> None:
        with pytest.raises(FrameCodecError):
            decode_frames(_authentic_frame(b"", codec_byte=b"m"), KEY)


class TestFrameBatcher:
    def _make(self, budget=MAX_BODY_BYTES):
        sent: list[tuple[int, bytes, int]] = []
        encoder = FrameEncoder(KEY)
        batcher = FrameBatcher(
            encoder, lambda r, buf, n: sent.append((r, bytes(buf), n)),
            budget=budget,
        )
        return encoder, batcher, sent

    def test_flush_coalesces_per_receiver_in_fifo_order(self) -> None:
        encoder, batcher, sent = self._make()
        for i in range(6):
            batcher.add(2, 0, encoder.encode_body(i))
        batcher.add(3, 0, encoder.encode_body("solo"))
        assert batcher.pending
        batcher.flush()
        assert not batcher.pending
        assert len(sent) == 2
        receiver, frame, count = sent[0]
        assert (receiver, count) == (2, 6)
        assert [f.payload for f in decode_frames(frame, KEY)] == list(range(6))
        receiver, frame, count = sent[1]
        assert (receiver, count) == (3, 1)
        # A run of one goes out as a plain frame, not a 1-element batch.
        assert decode_frame(frame, KEY).payload == "solo"

    def test_budget_overflow_flushes_early_and_keeps_order(self) -> None:
        encoder, batcher, sent = self._make()
        bodies = [encoder.encode_body("y" * 6000) for _ in range(4)]
        for body in bodies:
            batcher.add(5, 1, body)
        batcher.flush()
        assert len(sent) >= 2  # the 24 KB run cannot fit one datagram
        replayed = [
            f.payload for (_, frame, _) in sent for f in decode_frames(frame, KEY)
        ]
        assert replayed == ["y" * 6000] * 4
        for _, frame, _ in sent:
            assert len(frame) <= HEADER_BYTES + MAX_BODY_BYTES + framing.TAG_BYTES

    def test_distinct_senders_never_share_a_datagram(self) -> None:
        encoder, batcher, sent = self._make()
        batcher.add(2, 0, encoder.encode_body("from-zero"))
        batcher.add(2, 1, encoder.encode_body("from-one"))
        batcher.flush()
        assert len(sent) == 2
        senders = {decode_frames(frame, KEY)[0].sender for (_, frame, _) in sent}
        assert senders == {0, 1}

    def test_clear_drops_pending(self) -> None:
        encoder, batcher, sent = self._make()
        batcher.add(2, 0, encoder.encode_body("x"))
        batcher.clear()
        batcher.flush()
        assert not sent


class TestTruncated:
    def test_every_strict_prefix_is_refused(self) -> None:
        frame = encode_frame(2, SupportMsg(general=0, value="v"), KEY)
        for cut in range(len(frame)):
            with pytest.raises(FrameError):
                decode_frame(frame[:cut], KEY)

    def test_below_structural_minimum_is_truncated(self) -> None:
        for cut in range(MIN_FRAME_BYTES):
            with pytest.raises(TruncatedFrameError):
                decode_frame(b"\x00" * cut, KEY)

    def test_body_shorter_than_declared_is_truncated(self) -> None:
        frame = encode_frame(2, "payload", KEY)
        with pytest.raises(TruncatedFrameError):
            decode_frame(frame[:-1], KEY)

    def test_trailing_garbage_is_refused(self) -> None:
        frame = encode_frame(2, "payload", KEY)
        with pytest.raises(FrameCodecError):
            decode_frame(frame + b"\x00", KEY)


class TestOversized:
    def test_encode_refuses_oversized_body(self) -> None:
        with pytest.raises(OversizedFrameError):
            encode_frame(0, "x" * (MAX_BODY_BYTES + 1), KEY)

    def test_decode_refuses_oversized_declared_length(self) -> None:
        # Forge a header declaring a body beyond the cap; the decoder must
        # refuse on the declared length alone, before trusting any byte.
        frame = bytearray(encode_frame(0, "x", KEY))
        huge = (MAX_BODY_BYTES + 1).to_bytes(4, "big")
        frame[HEADER_BYTES - 4 : HEADER_BYTES] = huge
        with pytest.raises(OversizedFrameError):
            decode_frame(bytes(frame) + b"\x00" * 64, KEY)

    def test_max_size_body_round_trips(self) -> None:
        # The envelope around the string costs ~20 bytes; stay under the cap.
        payload = "x" * (MAX_BODY_BYTES - 40)
        assert decode_frame(encode_frame(0, payload, KEY), KEY).payload == payload


class TestAuthentication:
    def test_wrong_key_is_refused(self) -> None:
        frame = encode_frame(1, "hello", KEY)
        with pytest.raises(FrameAuthError):
            decode_frame(frame, OTHER_KEY)

    def test_flipped_body_byte_is_refused(self) -> None:
        frame = bytearray(encode_frame(1, "hello", KEY))
        frame[HEADER_BYTES] ^= 0xFF
        with pytest.raises(FrameAuthError):
            decode_frame(bytes(frame), KEY)

    def test_flipped_tag_byte_is_refused(self) -> None:
        frame = bytearray(encode_frame(1, "hello", KEY))
        frame[-1] ^= 0x01
        with pytest.raises(FrameAuthError):
            decode_frame(bytes(frame), KEY)

    def test_forged_sender_is_refused(self) -> None:
        # The tag covers the header: rewriting the sender id in place breaks
        # authentication -- Definition 2 over a spoofable datagram fabric.
        frame = bytearray(encode_frame(1, "hello", KEY))
        frame[3:7] = (2).to_bytes(4, "big")
        with pytest.raises(FrameAuthError):
            decode_frame(bytes(frame), KEY)

    def test_bad_magic_is_refused(self) -> None:
        frame = bytearray(encode_frame(1, "hello", KEY))
        frame[0:2] = b"XX"
        with pytest.raises(FrameCodecError):
            decode_frame(bytes(frame), KEY)

    def test_authenticated_garbage_body_is_a_codec_error(self) -> None:
        # A frame can be *authentic* yet undecodable (a buggy peer): encode
        # raw bytes with a valid tag, then watch the codec layer refuse it.
        for body in (
            b"\xc1 not msgpack at all",
            mpack.packb({"no": "envelope"}),
            mpack.packb({"t": None, "p": 1}),  # non-numeric sent_at must not leak TypeError
            mpack.packb({"t": "x", "p": 1}),
            mpack.packb({"t": True, "p": 1}),
            mpack.packb({"t": 0.0, "p": {"__": "tup", "v": 5}}),  # malformed payload tag
        ):
            with pytest.raises(FrameCodecError):
                decode_frame(_authentic_frame(body), KEY)

    def test_unknown_codec_byte_is_refused(self) -> None:
        body = FrameEncoder(KEY).encode_body("fine")
        with pytest.raises(FrameCodecError):
            decode_frame(_authentic_frame(body, codec_byte=b"Z"), KEY)

    @pytest.mark.parametrize("name", ["J", "j"])
    def test_retired_json_frames_are_refused(self, name) -> None:
        # Authentic (right key, valid tag) frames exactly as a node from
        # before this format had one codec would emit them.
        frame = bytes.fromhex(RETIRED_JSON_FRAMES[name])
        assert frame[2:3] == name.encode()
        with pytest.raises(FrameCodecError, match="unknown codec byte"):
            decode_frames(frame, KEY)
        wrong_tag = frame[:-1] + bytes([frame[-1] ^ 1])
        with pytest.raises(FrameAuthError):  # still authenticated first
            decode_frames(wrong_tag, KEY)


#: ``encode_frame(1, SupportMsg(0, "v"), KEY, 1.0)`` and
#: ``encode_batch_frame(1, [SupportMsg(0, "v"), "x"], KEY, 1.0, codec="json")``
#: as the last commit that had a JSON codec sealed them.
RETIRED_JSON_FRAMES = {
    "J": "53424a00000001000000497b2274223a312e302c2270223a7b225f5f223a226d7367222c"
    "226b223a22537570706f72744d7367222c2266223a7b2267656e6572616c223a302c227661"
    "6c7565223a2276227d7d7db00a07e5b36765ce262322bf09f4e605",
    "j": "53426a000000010000005e00497b2274223a312e302c2270223a7b225f5f223a226d7367"
    "222c226b223a22537570706f72744d7367222c2266223a7b2267656e6572616c223a302c22"
    "76616c7565223a2276227d7d7d00117b2274223a312e302c2270223a2278227d1ac7306fa8"
    "22dbe1bd9ed084be65da7a",
}

#: Frames sealed by ``FrameEncoder(KEY)`` at that same commit: the wire did
#: not move.  (hex, the frames it must decode to.)
GOLDEN_FRAMES = [
    (
        "53424d000000070000006582a174cb4029000000000000a17083a25f5fa36d7367a16baa53"
        "7570706f72744d7367a16682a767656e6572616c82a25f5fa3747570a1769200cd012ca576"
        "616c7565d9203031323334353637383961626364656630313233343536373839616263646566"
        "e276be5ddc3f05dfe13b5b28561638a4",
        [Frame(7, SupportMsg(general=(0, 300), value="0123456789abcdef" * 2), 12.5)],
    ),
    (
        "53424d000000020000004b82a174cb0000000000000000a17083a25f5fa36d7367a16ba94d"
        "424563686f4d7367a16684a767656e6572616c01a66f726967696e03a576616c756581a25f"
        "5fa3626f74a16bce00011170af59232d155ce5956b66f7ba899c591c",
        [Frame(2, MBEchoMsg(general=1, origin=3, value=BOTTOM, k=70000), 0.0)],
    ),
    (
        "53424d000000000000003982a174cb3ff0000000000000a17082a25f5fa3747570a17693a4"
        "626f64790382a25f5fa3747570a17695a26331efcb4004000000000000c0c36b447e4e909c"
        "fb3e0f6c9ff5e8b60f74",
        [Frame(0, ("body", 3, ("c1", -17, 2.5, None, True)), 1.0)],
    ),
    (
        "53424d000000040000002c82a174cb400a000000000000a17082a25f5fa36d6170a17681a1"
        "6b92a17682a25f5fa3747570a17692a174013dd53a5895837ebea6db6d554a64498a",
        [Frame(4, {"k": ["v", ("t", 1)]}, 3.25)],
    ),
    (
        "53426d000000090000004c003582a174cb3fe0000000000000a17083a25f5fa36d7367a16b"
        "a852656164794d7367a16682a767656e6572616c00a576616c7565a176001382a174cb3fe0"
        "000000000000a170a4736f6c6f873cf1bdde79cd556a3062a852029724",
        [Frame(9, ReadyMsg(general=0, value="v"), 0.5), Frame(9, "solo", 0.5)],
    ),
]


class TestNoWireBreak:
    @pytest.mark.parametrize(
        "golden, frames", GOLDEN_FRAMES, ids=["support", "mb_echo", "body", "map", "batch"]
    )
    def test_golden_frame_decodes_and_re_encodes_byte_equal(self, golden, frames) -> None:
        data = bytes.fromhex(golden)
        assert list(decode_frames(data, KEY)) == frames
        encoder = FrameEncoder(KEY)
        sender = frames[0].sender
        if len(frames) == 1:
            again = encoder.encode(sender, frames[0].payload, frames[0].sent_at)
            assert encode_frame(sender, frames[0].payload, KEY, frames[0].sent_at) == data
        else:
            again = encoder.frame_batch(
                sender, [encoder.encode_body(f.payload, f.sent_at) for f in frames]
            )
        assert bytes(again) == data


def _authentic_frame(body: bytes, codec_byte: bytes = b"M") -> bytes:
    """A frame with a *valid* tag over an arbitrary body (a buggy peer)."""
    import hashlib
    import hmac
    import struct

    header = struct.pack(">2s c I I", b"SB", codec_byte, 1, len(body))
    tag = hmac.new(KEY, header + body, hashlib.sha256).digest()[:16]
    return header + body + tag


# ---------------------------------------------------------------------------
# Compiled decode plans + payload memo (FrameDecoder) against the generic path
# ---------------------------------------------------------------------------
class _GenericOnly(FrameDecoder):
    """The oracle: the same outer checks, every envelope decoded generically."""

    __slots__ = ()

    def _envelope(self, data, start, end):
        return framing._decode_envelope(data[start:end])


def _outcome(decoder, data):
    """What a decode did, types included (``repr`` tells 1 / True / 1.0 and
    tuple / list apart, and makes a NaN ``sent_at`` comparable)."""
    try:
        frames = decoder.decode_frames(data)
    except FrameError as exc:
        return ("rejected", type(exc))
    return [
        (f.sender, repr(f.sent_at), type(f.payload), repr(f.payload)) for f in frames
    ]


def _assert_paths_agree(bodies, decoder=None) -> list:
    """One single frame per body, then all of them as one BATCH frame.

    ``FrameEncoder`` seals whatever body bytes it is handed, so the frames
    are authentic however mangled their insides.  Each goes through the
    oracle and twice through ``decoder`` (a fresh one by default): cold,
    then with whatever it memoized.
    """
    framer = FrameEncoder(KEY)
    datagrams = [bytes(framer.frame(1, body)) for body in bodies]
    datagrams.append(bytes(framer.frame_batch(1, bodies)))
    outcomes = []
    for data in datagrams:
        expected = _outcome(_GenericOnly(KEY), data)
        under_test = decoder if decoder is not None else FrameDecoder(KEY)
        assert _outcome(under_test, data) == expected
        assert _outcome(under_test, data) == expected
        outcomes.append(expected)
    return outcomes


DIGEST = "0123456789abcdef" * 2
GENERALS = [0, 3, 127, 128] + [
    (0, index)
    for index in (0, 127, 128, 255, 256, 65535, 65536, 2 ** 32 - 1, 2 ** 32)
]
FIELD_VALUES = [
    DIGEST,
    "",
    "x" * 31,
    "x" * 32,
    "x" * 33,
    "x" * 255,
    "x" * 256,
    "é漢" * 9,
    ("a", 1, ("nested", (2, ("deeper", 3)))),
    ("five", ("levels", ("of", ("tuple", ("nesting", ("here",)))))),
    tuple(range(20)),
    (),
    BOTTOM,
    None,
    2.5,
    float("inf"),
    True,
    False,
    -1,
    -33,
    2 ** 63 - 1,
    ["a", "list"],
    {"a": "map"},
]


def _messages_over(generals, values) -> list:
    messages = []
    for i, (general, value) in enumerate(
        (g, v) for g in generals for v in values
    ):
        ia = ALL_MESSAGE_TYPES[i % 4]
        mb = ALL_MESSAGE_TYPES[4 + i % 4]
        messages.append(ia(general=general, value=value))
        messages.append(mb(general=general, origin=i % 7, value=value, k=1 + i % 300))
    return messages


def _mutations(body: bytes, rng: random.Random, count: int) -> list:
    mutated = []
    for _ in range(count):
        at = rng.randrange(len(body))
        kind = rng.randrange(3)
        if kind == 0:
            mutated.append(body[:at])
        elif kind == 1:
            flipped = bytearray(body)
            flipped[at] ^= 1 << rng.randrange(8)
            mutated.append(bytes(flipped))
        else:
            mutated.append(body[:at] + bytes([rng.randrange(256)]) + body[at:])
    return mutated


class TestCompiledDecodeMatchesGeneric:
    def test_every_class_and_field_shape(self) -> None:
        encoder = FrameEncoder(KEY)
        messages = _messages_over(GENERALS, FIELD_VALUES)
        assert {type(m) for m in messages} == set(ALL_MESSAGE_TYPES)
        for message in messages:
            body = encoder.encode_body(message, 12.5)
            single, again, batch = _assert_paths_agree([body, body])
            assert single == [(1, "12.5", type(message), repr(message))]
            assert again == single and batch == single * 2

    def test_hot_path_shapes_are_compiled_not_merely_equal(self) -> None:
        # The differential above passes vacuously if a plan quietly stops
        # matching: pin what must take the compiled path.  The service's
        # general is (primary, slot), whose slot leaves fixint at 128.
        encoder = FrameEncoder(KEY)
        for general in GENERALS:
            for value in (DIGEST, "x" * 256, "é漢", ("t", (1, 2)), 7, 70000):
                for message in _messages_over([general], [value]):
                    decoder = FrameDecoder(KEY)
                    frame = bytes(encoder.encode(2, message, 1.0))
                    assert decoder.decode_frame(frame) == Frame(2, message, 1.0)
                    took = (decoder.compiled, decoder.generic)
                    wide = general == (0, 2 ** 32)  # 64-bit ints stay generic
                    assert took == ((0, 1) if wide else (1, 0)), (message, took)

    def test_non_messages_take_the_generic_path(self) -> None:
        decoder = FrameDecoder(KEY)
        for payload in (("body", 3, ("c1", "c2")), ("body_req", 3), BOTTOM, "s", 5):
            decoder.decode_frame(encode_frame(1, payload, KEY))
        assert (decoder.compiled, decoder.memo_hits, decoder.generic) == (0, 0, 5)

    def test_msgpack_body_under_a_json_codec_byte_is_rejected_on_both(self) -> None:
        # A perfectly good envelope gets no hearing under a retired byte:
        # the verdict is the header's, on the decoder and the oracle alike.
        body = FrameEncoder(KEY).encode_body(SupportMsg(0, "v"), 1.0)
        entry = len(body).to_bytes(2, "big") + body
        for data in (_authentic_frame(body, b"J"), _authentic_frame(entry, b"j")):
            decoder = FrameDecoder(KEY)
            assert _outcome(decoder, data) == ("rejected", FrameCodecError)
            assert _outcome(_GenericOnly(KEY), data) == ("rejected", FrameCodecError)
            assert (decoder.compiled, decoder.memo_hits, decoder.generic) == (0, 0, 0)

    def test_seeded_mutation_fuzz(self) -> None:
        rng = random.Random(0xDEC0DE)
        encoder = FrameEncoder(KEY)
        messages = _messages_over(GENERALS, FIELD_VALUES[:12])
        # One decoder throughout: whatever earlier mutants left in the memo
        # must not change what a later one decodes to.
        decoder = FrameDecoder(KEY)
        rejected = accepted = 0
        for message in messages:
            body = encoder.encode_body(message, rng.random() * 1e4)
            for mutant in _mutations(body, rng, 12):
                for outcome in _assert_paths_agree([mutant], decoder=decoder):
                    if outcome[0] == "rejected":
                        rejected += 1
                    else:
                        accepted += 1
        # Both verdicts and all three paths occur: no side of the
        # comparison sat idle.
        assert rejected > 500 and accepted > 500
        assert min(decoder.compiled, decoder.memo_hits, decoder.generic) > 200

    def test_non_canonical_and_reordered_encodings(self) -> None:
        # What the skeleton encoder never emits but the generic decoder
        # accepts: the compiled path must agree or stand aside.
        good = FrameEncoder(KEY).encode_body(
            MBEchoMsg(general=5, origin=1, value="v", k=2), 1.0
        )
        tree = mpack.unpackb(good)
        fields = tree["p"]["f"]
        variants = [
            {"p": tree["p"], "t": tree["t"]},                      # keys swapped
            {"t": 1, "p": tree["p"]},                              # integer sent_at
            {"t": 1.0, "p": {**tree["p"], "f": dict(reversed(fields.items()))}},
            {"t": 1.0, "p": {**tree["p"], "f": {**fields, "extra": 1}}},
            {"t": 1.0, "p": {**tree["p"], "f": {"general": 5}}},   # missing fields
            {"t": 1.0, "p": {**tree["p"], "k": "NoSuchMsg"}},
            {"t": 1.0, "p": tree["p"], "x": 0},                    # third envelope key
        ]
        bodies = [mpack.packb(v) for v in variants]
        bodies.append(good.replace(b"\x05", b"\xcd\x00\x05", 1))   # uint16 for a fixint
        bodies.append(good + b"\x00")                              # trailing byte
        bodies.append(good[:-1] + b"\xa1")                         # string cut short
        bodies.append(good.replace(b"\xa1v", b"\xa1\xff", 1))      # invalid UTF-8
        outcomes = _assert_paths_agree(bodies)
        assert outcomes[-1] == ("rejected", FrameCodecError)

    def test_nesting_beyond_the_compiled_depth_still_agrees(self) -> None:
        value = "leaf"
        for _ in range(40):
            value = (value,)
        body = FrameEncoder(KEY).encode_body(ReadyMsg(1, value), 0.0)
        decoder = FrameDecoder(KEY)
        frame = bytes(FrameEncoder(KEY).frame(1, body))
        assert decoder.decode_frame(frame).payload == ReadyMsg(1, value)
        assert (decoder.compiled, decoder.generic) == (0, 1)

    def test_malformed_entry_rejects_the_batch_after_a_compiled_one(self) -> None:
        encoder = FrameEncoder(KEY)
        good = encoder.encode_body(SupportMsg((0, 200), DIGEST), 1.0)
        batch = bytes(encoder.frame_batch(1, [good, good[:-3]]))
        decoder = FrameDecoder(KEY)
        with pytest.raises(FrameCodecError):
            decoder.decode_frames(batch)
        assert decoder.compiled == 1  # the good entry was read, none delivered


_scalars = st.one_of(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 64 - 1),
    st.text(max_size=40),
    st.sampled_from([DIGEST, "x" * 255, "x" * 256, None, True, False, BOTTOM]),
    st.floats(allow_nan=False),
)
_values = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=8
)
_generals = st.one_of(
    st.integers(min_value=0, max_value=2 ** 33),
    st.tuples(st.integers(0, 7), st.integers(0, 2 ** 33)),
)


@st.composite
def _message_bodies(draw) -> bytes:
    cls = draw(st.sampled_from(ALL_MESSAGE_TYPES))
    fields = {"general": draw(_generals), "value": draw(_values)}
    if cls in (MBInitMsg, MBEchoMsg, MBInitPrimeMsg, MBEchoPrimeMsg):
        fields["origin"] = draw(st.integers(0, 300))
        fields["k"] = draw(st.integers(0, 70000))
    sent_at = draw(st.floats(allow_nan=False, allow_infinity=False))
    return FrameEncoder(KEY).encode_body(cls(**fields), sent_at)


class TestCompiledDecodeProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_message_bodies(), min_size=1, max_size=4))
    def test_valid_bodies_agree(self, bodies) -> None:
        for outcome in _assert_paths_agree(bodies):
            assert outcome[0] != "rejected"

    @settings(max_examples=300, deadline=None)
    @given(_message_bodies(), st.randoms(use_true_random=False))
    def test_mutated_bodies_agree(self, body, rng) -> None:
        _assert_paths_agree(_mutations(body, rng, 3))


class TestDecoderMemo:
    def test_same_payload_from_two_senders_is_decoded_once(self) -> None:
        encoder = FrameEncoder(KEY)
        decoder = FrameDecoder(KEY)
        message = MBEchoMsg(general=(0, 300), origin=2, value=DIGEST, k=1)
        first = decoder.decode_frame(bytes(encoder.encode(1, message, 10.0)))
        second = decoder.decode_frame(bytes(encoder.encode(3, message, 11.5)))
        assert first == Frame(1, message, 10.0)
        assert second == Frame(3, message, 11.5)
        assert second.payload is first.payload
        assert (decoder.compiled, decoder.memo_hits, decoder.generic) == (1, 1, 0)

    def test_memo_entries_re_encode_to_their_key(self) -> None:
        # Content-addressed: a hit can only return the message its own bytes
        # decode to.
        encoder = FrameEncoder(KEY)
        decoder = FrameDecoder(KEY)
        for message in _messages_over(GENERALS[:-1], [DIGEST, ("t", 1)]):
            decoder.decode_frame(bytes(encoder.encode(0, message, 1.0)))
        assert decoder._memo
        for key, message in decoder._memo.items():
            packed = bytearray(framing._ENVELOPE_P)
            framing._pack_payload_into(packed, message)
            assert bytes(packed) == key

    def test_distinct_payload_flood_never_exceeds_the_cap(self) -> None:
        encoder = FrameEncoder(KEY)
        decoder = FrameDecoder(KEY)
        cap = framing._MEMO_CAP
        assert cap <= 1024
        peak = 0
        for index in range(10 * cap):
            frame = bytes(encoder.encode(1, SupportMsg((0, index), DIGEST), 0.0))
            decoder.decode_frame(frame)
            peak = max(peak, len(decoder._memo))
        assert peak == cap
        assert (decoder.compiled, decoder.memo_hits) == (10 * cap, 0)

    def test_unauthenticated_datagrams_touch_nothing(self) -> None:
        encoder = FrameEncoder(KEY)
        decoder = FrameDecoder(KEY)
        message = SupportMsg((0, 1), DIGEST)
        frame = bytes(encoder.encode(1, message, 0.0))
        forged_tag = frame[:-1] + bytes([frame[-1] ^ 1])
        # A different (well-formed) message under the original's tag.
        other = bytes(encoder.encode(1, SupportMsg((0, 2), DIGEST), 0.0))
        forged_body = other[:-16] + frame[-16:]
        wrong_key = bytes(FrameEncoder(OTHER_KEY).encode(1, message, 0.0))
        for bad in (forged_tag, forged_body, wrong_key):
            with pytest.raises(FrameAuthError):
                decoder.decode_frames(bad)
        assert (decoder.compiled, decoder.memo_hits, decoder.generic) == (0, 0, 0)
        assert not decoder._memo
        # ... and a memo that does hold the payload is not consulted either.
        decoder.decode_frames(frame)
        with pytest.raises(FrameAuthError):
            decoder.decode_frames(forged_tag)
        assert (decoder.compiled, decoder.memo_hits, decoder.generic) == (1, 0, 0)

    def test_module_level_decode_accepts_a_key_or_a_decoder(self) -> None:
        decoder = FrameDecoder(KEY)
        frame = encode_frame(4, ReadyMsg(1, "v"), KEY)
        assert decode_frames(frame, decoder) == decode_frames(frame, KEY)
        assert decode_frame(frame, decoder) == decode_frame(frame, KEY)
        assert decoder.compiled + decoder.memo_hits == 2

    def test_views_and_bytearrays_decode_like_bytes(self) -> None:
        # Carriers hand in bytes; tools and tests may hold other buffers.
        decoder = FrameDecoder(KEY)
        frame = encode_frame(4, ReadyMsg(1, "v"), KEY)
        expected = (Frame(4, ReadyMsg(1, "v"), 0.0),)
        assert decoder.decode_frames(memoryview(bytearray(frame))) == expected
        assert decoder.decode_frames(bytearray(frame)) == expected
