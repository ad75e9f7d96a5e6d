"""Wire micro-benchmarks: the lean path against the reference path.

Four layers of the rebuilt wire pipeline get a number in BENCH_perf.json:

* ``wire_batch_pipeline`` -- the headline gate.  Encode-and-authenticate a
  protocol-shaped message stream through the lean path (msgpack skeletons
  into a reused buffer, coalesced into BATCH datagrams, primed-HMAC seal)
  against the reference path (``encode_frame``: fresh dict tree, fresh
  bytes, fresh HMAC per message, one datagram each).  Must win >= 3x;
  this is the acceptance gate for the rewrite and the regression tripwire
  for future PRs (``speedup_vs_reference`` is machine-independent).
* ``wire_codec_encode`` / ``wire_codec_decode`` -- frames/s on single-frame
  encode (lean vs reference side by side) and decode.
  The decode row also carries the second gate: on a service-shaped stream
  the compiled decode plans must beat the generic tree decode >= 2.5x per
  envelope (``speedup_vs_reference``, machine-independent like the 3x).
* ``wire_hmac_seal`` -- authentication throughput (MB/s) of the primed
  memoryview seal against per-frame ``hmac.new`` over concatenated bytes.
* ``wire_coalesce`` -- datagrams emitted for a broadcast-wave workload,
  coalesced vs naive, plus messages/s through the batcher.
* ``wire_socket_pingpong`` -- full-stack UDP loopback RTT: encode, sendto,
  recvfrom, decode, reply.  Wall-clock-bound, so recorded as
  ``end_to_end`` (informational, not regression-gated).
"""

from __future__ import annotations

import socket
import time

from repro.core.messages import (
    ApproveMsg,
    MBEchoMsg,
    MBInitMsg,
    ReadyMsg,
    SupportMsg,
)
from repro.runtime import framing
from repro.runtime.framing import (
    FrameBatcher,
    FrameDecoder,
    FrameEncoder,
    decode_frame,
    decode_frames,
    derive_key,
    encode_frame,
)

from benchmarks.conftest import print_rows, record_bench_result

KEY = derive_key("bench-wire")
N_MSGS = 2000
N_RECEIVERS = 8  # a broadcast wave fans each message out to n-1 peers


def _message_stream(count: int) -> list:
    """A protocol-shaped mix: the message classes the hot path carries."""
    stream = []
    for i in range(count):
        k = 1 + i % 3
        origin = i % N_RECEIVERS
        stream.append(
            (
                MBInitMsg(0, origin, "m", k),
                MBEchoMsg(0, origin, "m", k),
                SupportMsg(i % 4, "v"),
                ApproveMsg(i % 4, ("t", i % 7)),
            )[i % 4]
        )
    return stream


def _service_stream(count: int) -> list:
    """What the replicated-log service puts on the wire, all distinct:
    ``general = (primary, slot)`` with the slot index past uint8, a 32-hex
    batch digest as the value."""
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


def _best_of(fn, repeats: int = 3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ---------------------------------------------------------------------------
# Headline gate: lean batched pipeline vs the reference path
# ---------------------------------------------------------------------------
def _reference_pipeline(stream) -> int:
    """The reference path: dict tree, fresh bytes, fresh HMAC, one datagram each."""
    total = 0
    for msg in stream:
        frame = encode_frame(0, msg, KEY, sent_at=1.0)
        total += len(frame)
    return total


def _lean_pipeline(stream, encoder: FrameEncoder, batcher: FrameBatcher) -> int:
    """The lean path: skeleton msgpack into a reused buffer, coalesced."""
    for i, msg in enumerate(stream):
        batcher.add(i % N_RECEIVERS, 0, encoder.encode_body(msg, 1.0))
    batcher.flush()
    return 0


def bench_wire_batch_pipeline(benchmark):
    stream = _message_stream(N_MSGS)

    sink = {"bytes": 0, "datagrams": 0, "messages": 0}

    def transmit(receiver, frame_buf, count) -> None:
        sink["bytes"] += len(frame_buf)
        sink["datagrams"] += 1
        sink["messages"] += count

    encoder = FrameEncoder(KEY)
    batcher = FrameBatcher(encoder, transmit)

    lean_s, _ = _best_of(lambda: _lean_pipeline(stream, encoder, batcher))
    ref_s, _ = _best_of(lambda: _reference_pipeline(stream))

    # The lean datagrams must actually decode back to the stream (each
    # flush interleaves receivers, so compare the per-receiver payloads).
    frames_by_receiver: dict[int, list] = {}
    replay = FrameBatcher(
        encoder,
        lambda r, buf, n: frames_by_receiver.setdefault(r, []).extend(
            f.payload for f in decode_frames(bytes(buf), KEY)
        ),
    )
    _lean_pipeline(stream, encoder, replay)
    for receiver, payloads in frames_by_receiver.items():
        expected = [m for i, m in enumerate(stream) if i % N_RECEIVERS == receiver]
        assert payloads == expected, "lean pipeline corrupted the stream"

    speedup = ref_s / lean_s
    rows = [
        {
            "messages": N_MSGS,
            "lean_s": lean_s,
            "reference_s": ref_s,
            "speedup": speedup,
            "lean_msgs_per_s": N_MSGS / lean_s,
        }
    ]
    print_rows("W1: lean batched pipeline vs reference", rows)
    record_bench_result(
        "wire_batch_pipeline",
        kind="kernel",
        messages=N_MSGS,
        frames_per_s=N_MSGS / lean_s,
        reference_frames_per_s=N_MSGS / ref_s,
        speedup_vs_reference=speedup,
    )
    benchmark.pedantic(
        lambda: _lean_pipeline(stream, encoder, batcher), rounds=3, iterations=1
    )
    # Acceptance gate: the lean path must beat the reference path >= 3x.
    assert speedup >= 3.0, f"wire pipeline speedup {speedup:.2f}x < 3x"


# ---------------------------------------------------------------------------
# Single-frame encode/decode throughput
# ---------------------------------------------------------------------------
def _compiled_vs_generic_decode() -> tuple[float, float, float]:
    """Seconds per envelope: generic tree decode, compiled plans, memo hit.

    Envelope decode only -- the tag check is the same on every path.  The
    payloads are all distinct and each compiled repeat starts a fresh
    decoder, so there the memo never answers (its upkeep is still paid).
    """
    encoder = FrameEncoder(KEY)
    stream = _service_stream(N_MSGS)
    bodies = [encoder.encode_body(m, 1.0) for m in stream]

    def through(decoder: FrameDecoder, some) -> list:
        return [decoder._envelope(b, 0, len(b))[1] for b in some]

    generic_s, _ = _best_of(lambda: [framing._decode_envelope(b) for b in bodies])
    cold = FrameDecoder(KEY)
    assert through(cold, bodies) == stream, "compiled decode corrupted the stream"
    assert (cold.compiled, cold.generic) == (N_MSGS, 0), "a plan fell back"
    compiled_s, _ = _best_of(lambda: through(FrameDecoder(KEY), bodies))
    warm = FrameDecoder(KEY)
    hot = bodies[:500]  # under the memo cap: every later pass is all hits
    through(warm, hot)
    memo_s, _ = _best_of(lambda: through(warm, hot))
    assert warm.compiled == len(hot), "the memo did not answer"
    return generic_s / N_MSGS, compiled_s / N_MSGS, memo_s / len(hot)


def bench_wire_codec_encode_decode(benchmark):
    stream = _message_stream(N_MSGS)
    encoder = FrameEncoder(KEY)
    enc_s, _ = _best_of(lambda: sum(len(encoder.encode(0, m, 1.0)) for m in stream))
    ref_s, _ = _best_of(lambda: sum(len(encode_frame(0, m, KEY, 1.0)) for m in stream))
    frames = [bytes(encoder.encode(0, m, 1.0)) for m in stream]
    dec_s, _ = _best_of(lambda: sum(1 for f in frames if decode_frame(f, KEY)))
    bytes_per_frame = sum(len(f) for f in frames) / N_MSGS
    print_rows(
        "W2: single-frame encode/decode",
        [
            {
                "encode_frames_per_s": N_MSGS / enc_s,
                "reference_encode_frames_per_s": N_MSGS / ref_s,
                "decode_frames_per_s": N_MSGS / dec_s,
                "bytes_per_frame": bytes_per_frame,
            }
        ],
    )

    generic_s, compiled_s, memo_s = _compiled_vs_generic_decode()
    decode_speedup = generic_s / compiled_s
    print_rows(
        "W2b: compiled vs generic envelope decode (service-shaped stream)",
        [
            {
                "generic_us": generic_s * 1e6,
                "compiled_us": compiled_s * 1e6,
                "memo_hit_us": memo_s * 1e6,
                "speedup": decode_speedup,
            }
        ],
    )
    record_bench_result(
        "wire_codec_encode",
        kind="kernel",
        frames_per_s=N_MSGS / enc_s,
        reference_frames_per_s=N_MSGS / ref_s,
        bytes_per_frame=bytes_per_frame,
    )
    record_bench_result(
        "wire_codec_decode",
        kind="kernel",
        frames_per_s=N_MSGS / dec_s,
        compiled_envelopes_per_s=1.0 / compiled_s,
        generic_envelopes_per_s=1.0 / generic_s,
        memo_hit_envelopes_per_s=1.0 / memo_s,
        speedup_vs_reference=decode_speedup,
    )
    benchmark.pedantic(
        lambda: [encoder.encode(0, m, 1.0) for m in stream], rounds=3, iterations=1
    )
    # Acceptance gate: a silent fallback to the generic decoder fails here.
    assert decode_speedup >= 2.5, f"compiled decode {decode_speedup:.2f}x < 2.5x"


# ---------------------------------------------------------------------------
# HMAC seal throughput: authentication cost of the wire, small and large
# ---------------------------------------------------------------------------
HMAC_FRAMES = 4000
HMAC_BATCH_BODY = 14000  # a near-full BATCH datagram


def bench_wire_hmac_seal(benchmark):
    # Authentication throughput of the seal path at the two sizes that
    # matter: a single protocol message (~100 B, per-frame overhead bound)
    # and a near-full BATCH datagram (bandwidth bound).  Note the per-seal
    # HMAC is NOT where the lean path wins -- hmac.new is already C-fast --
    # the win is coalescing: one seal per BATCH datagram instead of one per
    # message (see W1/W4).  This row keeps the authentication cost itself
    # on the record so a future HMAC regression trips the gate.
    encoder = FrameEncoder(KEY)
    small = bytes(encoder.encode_body(MBEchoMsg(0, 1, "m", 1), 1.0))
    large = bytes(encoder.encode_body("x" * HMAC_BATCH_BODY, 1.0))

    def seal(body: bytes) -> int:
        total = 0
        for _ in range(HMAC_FRAMES):
            total += len(encoder.frame(0, body))
        return total

    small_s, small_bytes = _best_of(lambda: seal(small))
    large_s, large_bytes = _best_of(lambda: seal(large))
    rows = [
        {
            "body_bytes": len(small),
            "seals_per_s": HMAC_FRAMES / small_s,
            "mb_per_s": small_bytes / small_s / 1e6,
        },
        {
            "body_bytes": len(large),
            "seals_per_s": HMAC_FRAMES / large_s,
            "mb_per_s": large_bytes / large_s / 1e6,
        },
    ]
    print_rows("W3: HMAC seal throughput", rows)
    record_bench_result(
        "wire_hmac_seal",
        kind="kernel",
        frames=HMAC_FRAMES,
        small_body_bytes=len(small),
        seals_per_s=HMAC_FRAMES / small_s,
        batch_body_bytes=len(large),
        mb_per_s=large_bytes / large_s / 1e6,
    )
    benchmark.pedantic(lambda: seal(large), rounds=3, iterations=1)


# ---------------------------------------------------------------------------
# Coalescing: datagram count for a broadcast-wave workload
# ---------------------------------------------------------------------------
def bench_wire_coalesce(benchmark):
    stream = _message_stream(N_MSGS)
    encoder = FrameEncoder(KEY)

    counts = {"datagrams": 0}
    batcher = FrameBatcher(
        encoder, lambda r, buf, n: counts.__setitem__("datagrams", counts["datagrams"] + 1)
    )

    def coalesced() -> int:
        counts["datagrams"] = 0
        for i, msg in enumerate(stream):
            batcher.add(i % N_RECEIVERS, 0, encoder.encode_body(msg, 1.0))
            if i % 64 == 63:  # a loop-tick boundary every 64 sends
                batcher.flush()
        batcher.flush()
        return counts["datagrams"]

    def naive() -> int:
        datagrams = 0
        for msg in stream:
            encoder.encode(0, msg, 1.0)
            datagrams += 1
        return datagrams

    coal_s, coal_datagrams = _best_of(coalesced)
    naive_s, naive_datagrams = _best_of(naive)
    print_rows(
        "W4: coalesced vs naive datagrams",
        [
            {
                "messages": N_MSGS,
                "coalesced_datagrams": coal_datagrams,
                "naive_datagrams": naive_datagrams,
                "msgs_per_datagram": N_MSGS / coal_datagrams,
                "coalesced_s": coal_s,
                "naive_s": naive_s,
            }
        ],
    )
    record_bench_result(
        "wire_coalesce",
        kind="kernel",
        messages=N_MSGS,
        coalesced_datagrams=coal_datagrams,
        naive_datagrams=naive_datagrams,
        datagram_reduction=naive_datagrams / coal_datagrams,
        frames_per_s=N_MSGS / coal_s,
    )
    benchmark.pedantic(coalesced, rounds=3, iterations=1)
    assert coal_datagrams < naive_datagrams / 4, "coalescing barely coalesced"


# ---------------------------------------------------------------------------
# Full-stack UDP loopback ping-pong (informational: wall-clock bound)
# ---------------------------------------------------------------------------
PINGPONGS = 400


def bench_wire_socket_pingpong(benchmark):
    a = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    b = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    a.bind(("127.0.0.1", 0))
    b.bind(("127.0.0.1", 0))
    a.settimeout(5.0)
    b.settimeout(5.0)
    addr_a, addr_b = a.getsockname(), b.getsockname()
    enc_a, enc_b = FrameEncoder(KEY), FrameEncoder(KEY)
    msg = MBEchoMsg(0, 1, "m", 1)

    def pingpong_round() -> None:
        a.sendto(bytes(enc_a.encode(0, msg, 1.0)), addr_b)
        data, _ = b.recvfrom(65536)
        ping = decode_frame(data, KEY)
        b.sendto(bytes(enc_b.encode(1, ping.payload, 2.0)), addr_a)
        data, _ = a.recvfrom(65536)
        decode_frame(data, KEY)

    try:
        pingpong_round()  # warm the route
        wall, _ = _best_of(lambda: [pingpong_round() for _ in range(PINGPONGS)], 2)
        rtt_us = wall / PINGPONGS * 1e6
        print_rows(
            "W5: UDP loopback ping-pong",
            [{"round_trips": PINGPONGS, "rtt_us": rtt_us, "pingpongs_per_s": PINGPONGS / wall}],
        )
        record_bench_result(
            "wire_socket_pingpong",
            kind="end_to_end",
            round_trips=PINGPONGS,
            rtt_us=rtt_us,
            pingpongs_per_s=PINGPONGS / wall,
        )
        benchmark.pedantic(pingpong_round, rounds=3, iterations=1)
    finally:
        a.close()
        b.close()
