"""Shared wire framing for the byte-level runtime backends.

The sim backend hands Python objects straight to receivers, but the asyncio
and socket backends move *bytes*: every message is one self-delimiting,
authenticated frame.  Keeping the encode/decode pair here -- used verbatim
by :class:`repro.runtime.aio.AsyncioTransport` and
:class:`repro.runtime.socket_host.SocketTransport` -- means both non-sim
transports agree on the format byte for byte, and the hardening tests in
``tests/test_framing.py`` cover them both at once.

Frame layout (big-endian)::

    magic   2 bytes   b"SB"
    codec   1 byte    b"M" single frame, b"m" batch frame
    sender  4 bytes   claimed sender id
    length  4 bytes   body length in bytes (<= MAX_BODY_BYTES)
    body    N bytes   single: msgpack({"t": sent_at, "p": <tagged payload>})
                      batch:  1+ entries of [u16 sublen][single-frame body]
    tag     16 bytes  HMAC-SHA256(key, header || body), truncated

The tag covers the header, so a frame with a forged ``sender`` fails
authentication outright -- this is what implements the model's Definition 2
("the receiver always learns the true sender") over a fabric where anyone
can transmit a datagram.  The key is a per-cluster shared secret: it defends
sender identity against *network-level* spoofing, which is the model's
guarantee; it does not model key compromise (a Byzantine process holds the
cluster key but only ever frames its own id through this API).

A BATCH frame (lowercase codec byte) coalesces several messages from one
sender to one receiver into a single datagram: one header, one tag, and
``[u16 length][envelope]`` entries back to back.  The whole batch
authenticates or none of it does, and a datagram whose interior is
malformed is rejected wholesale -- partial delivery would break the
per-sender FIFO contract the transports promise.

Payloads are the protocol message dataclasses, scalars, tuples and the
``BOTTOM`` sentinel; anything else is refused at encode time rather than
silently mangled.

There is one codec: msgpack, as the vendored subset in
:mod:`repro.runtime.mpack` reads and writes it.  The header keeps its codec
byte and any other value is refused like bad magic.  The hot path never
builds the tagged tree at all -- per-message-class byte skeletons
(:data:`_MSG_SKELETONS`) let :class:`FrameEncoder` pack dataclass fields
straight into a preallocated ``bytearray``, and the HMAC is computed over
a ``memoryview`` of that same buffer, so a steady-state send does zero
intermediate ``bytes`` concatenations.

Decoding mirrors that: :class:`FrameDecoder` verifies the tag from a primed
HMAC context, then tries per-class *decode plans* compiled from the same
skeletons -- constant bytes compared in place, only the field values read --
and remembers each distinct payload it has decoded, because the protocol's
relay waves hand a receiver the byte-identical payload once per sender.
Whatever a plan does not match exactly takes the generic tree decode
(:func:`_decode_envelope`), which stays the one authority on what is
rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import struct
from typing import Any, Callable, NamedTuple

from repro.core.messages import ALL_MESSAGE_TYPES
from repro.core.params import BOTTOM
from repro.runtime import mpack
from repro.runtime.mpack import MpackError

#: Provenance label for benchmark records: the msgpack implementation is
#: always the vendored pure-Python :mod:`repro.runtime.mpack`.
MSGPACK_IMPL = "py"

MAGIC = b"SB"
CODEC_MSGPACK = b"M"
#: Batch (coalesced) frames reuse the codec letter in lowercase.
CODEC_MSGPACK_BATCH = b"m"
#: Bound on the encoded body.  Protocol messages are tens of bytes; the cap
#: keeps every frame inside a single localhost UDP datagram with room to
#: spare and turns a runaway payload into a loud error instead of silent
#: fragmentation.  Batch frames obey the same cap on their *total* body, so
#: coalescing never produces a datagram a single-frame peer could not.
MAX_BODY_BYTES = 16384
TAG_BYTES = 16
_HEADER = struct.Struct(">2s c I I")
HEADER_BYTES = _HEADER.size
_HEADER_PLACEHOLDER = bytes(HEADER_BYTES)
_BATCH_LEN = struct.Struct(">H")
#: Smallest well-formed frame (an empty body is still not an envelope, but
#: the *structural* minimum is header + tag).
MIN_FRAME_BYTES = HEADER_BYTES + TAG_BYTES

_MESSAGE_CLASSES = {cls.__name__: cls for cls in ALL_MESSAGE_TYPES}


class FrameError(Exception):
    """Base class for every framing failure."""


class TruncatedFrameError(FrameError):
    """The byte string is shorter than its header promises."""


class OversizedFrameError(FrameError):
    """The body exceeds :data:`MAX_BODY_BYTES` (encode- or decode-side)."""


class FrameAuthError(FrameError):
    """The authentication tag does not verify (includes forged senders)."""


class FrameCodecError(FrameError):
    """Bad magic, unknown codec, or an undecodable/unencodable payload."""


def derive_key(material: str) -> bytes:
    """Derive a 32-byte frame key from a seed string (per-cluster secret)."""
    return hashlib.sha256(f"repro-frame-key:{material}".encode()).digest()


# ---------------------------------------------------------------------------
# Payload tagging: protocol objects <-> plain trees
# ---------------------------------------------------------------------------
def _to_wire(obj: Any) -> Any:
    if obj is BOTTOM:
        return {"__": "bot"}
    if isinstance(obj, ALL_MESSAGE_TYPES):
        return {
            "__": "msg",
            "k": type(obj).__name__,
            "f": {
                field.name: _to_wire(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, tuple):
        return {"__": "tup", "v": [_to_wire(item) for item in obj]}
    if isinstance(obj, list):
        return [_to_wire(item) for item in obj]
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise FrameCodecError(f"non-string dict key {key!r}")
        return {"__": "map", "v": {key: _to_wire(val) for key, val in obj.items()}}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise FrameCodecError(f"payload type {type(obj).__name__!r} is not wire-safe")


def _from_wire(tree: Any) -> Any:
    if isinstance(tree, dict):
        tag = tree.get("__")
        if tag == "bot":
            return BOTTOM
        if tag == "msg":
            cls = _MESSAGE_CLASSES.get(tree.get("k"))
            if cls is None:
                raise FrameCodecError(f"unknown message class {tree.get('k')!r}")
            fields = tree.get("f")
            if not isinstance(fields, dict):
                raise FrameCodecError("malformed message fields")
            try:
                return cls(**{name: _from_wire(val) for name, val in fields.items()})
            except TypeError as exc:
                raise FrameCodecError(f"bad fields for {cls.__name__}: {exc}") from exc
        if tag == "tup":
            return tuple(_from_wire(item) for item in tree.get("v", ()))
        if tag == "map":
            value = tree.get("v")
            if not isinstance(value, dict):
                raise FrameCodecError("malformed map payload")
            return {key: _from_wire(val) for key, val in value.items()}
        raise FrameCodecError(f"unknown payload tag {tag!r}")
    if isinstance(tree, list):
        return [_from_wire(item) for item in tree]
    return tree


# ---------------------------------------------------------------------------
# Direct msgpack packing: dataclass fields -> wire bytes, no tree build
# ---------------------------------------------------------------------------
def _pack_prefix(*parts: Any) -> bytes:
    buf = bytearray()
    for part in parts:
        if isinstance(part, int):
            buf.append(part)
        else:
            mpack.pack_str_into(buf, part)
    return bytes(buf)


def _build_skeleton(cls: type) -> tuple[bytes, tuple[tuple[bytes, str], ...]]:
    """Precompile the constant msgpack bytes of one message class.

    ``{"__": "msg", "k": <name>, "f": {...}}`` is identical for every
    instance except the field *values*, so the map headers, tag strings,
    class name, and field-name keys collapse into constants built once at
    import.  Packing an instance is then prefix + per-field key + value.
    """
    fields = dataclasses.fields(cls)
    if len(fields) >= 16:  # pragma: no cover - message classes have <=4 fields
        raise AssertionError(f"{cls.__name__} has too many fields for a fixmap")
    prefix = _pack_prefix(0x83, "__", "msg", "k", cls.__name__, "f", 0x80 | len(fields))
    keys = tuple((_pack_prefix(field.name), field.name) for field in fields)
    return prefix, keys


_MSG_SKELETONS = {cls: _build_skeleton(cls) for cls in ALL_MESSAGE_TYPES}
_BOT_BODY = _pack_prefix(0x81, "__", "bot")
_TUP_PREFIX = _pack_prefix(0x82, "__", "tup", "v")
_MAP_PREFIX = _pack_prefix(0x82, "__", "map", "v")
#: fixmap(2) + fixstr "t"; the float64 sent_at and fixstr "p" follow.
_ENVELOPE_PREFIX = _pack_prefix(0x82, "t")
_ENVELOPE_T = struct.Struct(">Bd")
_ENVELOPE_P = _pack_prefix("p")


def _pack_count_header(buf: bytearray, count: int, fix: int, tag16: int, tag32: int) -> None:
    if count < 16:
        buf.append(fix | count)
    elif count < 65536:
        buf += struct.pack(">BH", tag16, count)
    else:
        buf += struct.pack(">BI", tag32, count)


def _pack_payload_into(buf: bytearray, obj: Any) -> None:
    if obj is BOTTOM:
        buf += _BOT_BODY
        return
    skeleton = _MSG_SKELETONS.get(obj.__class__)
    if skeleton is not None:
        prefix, fields = skeleton
        buf += prefix
        for key_bytes, name in fields:
            buf += key_bytes
            _pack_payload_into(buf, getattr(obj, name))
        return
    if isinstance(obj, tuple):
        buf += _TUP_PREFIX
        _pack_count_header(buf, len(obj), 0x90, 0xDC, 0xDD)
        for item in obj:
            _pack_payload_into(buf, item)
        return
    if isinstance(obj, list):
        _pack_count_header(buf, len(obj), 0x90, 0xDC, 0xDD)
        for item in obj:
            _pack_payload_into(buf, item)
        return
    if isinstance(obj, dict):
        buf += _MAP_PREFIX
        _pack_count_header(buf, len(obj), 0x80, 0xDE, 0xDF)
        for key, val in obj.items():
            if not isinstance(key, str):
                raise FrameCodecError(f"non-string dict key {key!r}")
            mpack.pack_str_into(buf, key)
            _pack_payload_into(buf, val)
        return
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        mpack.pack_into(buf, obj)
        return
    if isinstance(obj, ALL_MESSAGE_TYPES):  # subclass of a message dataclass
        mpack.pack_into(buf, _to_wire(obj))
        return
    raise FrameCodecError(f"payload type {type(obj).__name__!r} is not wire-safe")


def _encode_body_into(buf: bytearray, payload: Any, sent_at: float) -> None:
    """Append the envelope bytes for one message to a caller-owned buffer."""
    buf += _ENVELOPE_PREFIX
    buf += _ENVELOPE_T.pack(0xCB, sent_at)
    buf += _ENVELOPE_P
    try:
        _pack_payload_into(buf, payload)
    except MpackError as exc:
        raise FrameCodecError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Compiled msgpack decode: the same skeletons, read back without a tree
# ---------------------------------------------------------------------------
#: What every msgpack envelope opens with: fixmap(2), "t", the float64 tag.
_ENVELOPE_HEAD = _ENVELOPE_PREFIX + b"\xcb"
_BE_F64 = struct.Struct(">d")
#: Envelope offsets of ``sent_at`` and of the *tail* after it (the ``"p"``
#: key and the payload) -- the part n relays of one message share.
_SENT_AT_OFFSET = len(_ENVELOPE_HEAD)
_TAIL_OFFSET = _SENT_AT_OFFSET + _BE_F64.size
_BE_U16 = struct.Struct(">H")
_BE_U32 = struct.Struct(">I")
#: One plan per message class, from the skeleton the encoder packs it with:
#: (the constant bytes from the ``"p"`` key through the field-map header,
#: the class, its field keys in constructor order).
_DECODE_PLANS = tuple(
    (_ENVELOPE_P + prefix, cls, tuple(key for key, _name in fields))
    for cls, (prefix, fields) in _MSG_SKELETONS.items()
)
#: Tuple nesting the compiled path follows (the service's ``general`` is
#: ``(primary, index)``: depth 1).  Deeper values go to the generic decoder,
#: whose own recursion limit then decides alone what is too deep.
_MAX_TUP_DEPTH = 4


class _NoPlan(Exception):
    """The bytes are not something the compiled decoder reads."""


def _read_value(buf: bytes, pos: int, depth: int = 0) -> tuple[Any, int]:
    """Read one field value at ``pos``: ``(value, end)`` or :class:`_NoPlan`.

    Covers what message fields hold on the hot path -- non-negative ints up
    to 32 bits, strings under 64 KB, and tuples of those.  A read past the
    end raises ``IndexError``/``struct.error``; a *string* cut short slices
    short instead, which the caller's final length check catches.
    """
    tag = buf[pos]
    if tag < 0x80:  # positive fixint
        return tag, pos + 1
    if 0xA0 <= tag <= 0xBF:  # fixstr
        start = pos + 1
        end = start + (tag & 0x1F)
    elif tag == 0xD9:  # str8
        start = pos + 2
        end = start + buf[pos + 1]
    elif tag == 0xCC:  # uint8
        return buf[pos + 1], pos + 2
    elif tag == 0xCD:  # uint16
        return _BE_U16.unpack_from(buf, pos + 1)[0], pos + 3
    elif tag == 0xCE:  # uint32
        return _BE_U32.unpack_from(buf, pos + 1)[0], pos + 5
    elif tag == 0xDA:  # str16
        start = pos + 3
        end = start + _BE_U16.unpack_from(buf, pos + 1)[0]
    elif tag == 0x82 and depth < _MAX_TUP_DEPTH and buf.startswith(_TUP_PREFIX, pos):
        pos += len(_TUP_PREFIX)
        tag = buf[pos]
        if 0x90 <= tag <= 0x9F:  # fixarray
            count = tag & 0x0F
            pos += 1
        elif tag == 0xDC:  # array16
            count = _BE_U16.unpack_from(buf, pos + 1)[0]
            pos += 3
        else:
            raise _NoPlan
        items = []
        for _ in range(count):
            item, pos = _read_value(buf, pos, depth + 1)
            items.append(item)
        return tuple(items), pos
    else:
        raise _NoPlan
    return buf[start:end].decode(), end


def _decode_message(tail: bytes) -> Any:
    """Compiled decode of an envelope's bytes after ``sent_at``.

    Returns the message, or ``None`` unless ``tail`` is *exactly* the
    ``"p"`` key and one message as the skeleton encoder lays it out: same
    constant bytes, same field order, nothing trailing.
    """
    for head, cls, keys in _DECODE_PLANS:
        if tail.startswith(head):
            break
    else:
        return None
    pos = len(head)
    values = []
    try:
        for key in keys:
            if not tail.startswith(key, pos):
                return None
            value, pos = _read_value(tail, pos + len(key))
            values.append(value)
    except (_NoPlan, IndexError, struct.error, UnicodeDecodeError):
        return None
    if pos != len(tail):
        return None
    return cls(*values)


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------
class Frame(NamedTuple):
    """A decoded, authenticated frame."""

    sender: int
    payload: Any
    sent_at: float


class FrameEncoder:
    """Per-transport encoder: preallocated buffers and a primed HMAC.

    The frame-assembly methods (:meth:`encode`, :meth:`frame`,
    :meth:`frame_batch`) return the encoder's *reused* ``bytearray``: valid
    until the next call, so the caller must transmit or copy before
    encoding again.  That is the zero-alloc contract -- steady state does
    no per-frame buffer allocation, no ``header + body`` concatenation
    (the header is packed in place), and no ``bytes`` copy for the HMAC
    (the tag is computed over a ``memoryview`` of the same buffer from a
    pre-keyed HMAC context, skipping the per-frame key schedule).
    """

    __slots__ = ("_buf", "_body_buf", "_hmac")

    def __init__(self, key: bytes) -> None:
        self._hmac = hmac.new(key, digestmod=hashlib.sha256)
        self._buf = bytearray()
        self._body_buf = bytearray()

    def encode_body(self, payload: Any, sent_at: float = 0.0) -> bytes:
        """Encode one message envelope to stable bytes (queueable)."""
        buf = self._body_buf
        del buf[:]
        _encode_body_into(buf, payload, float(sent_at))
        if len(buf) > MAX_BODY_BYTES:
            raise OversizedFrameError(
                f"encoded body is {len(buf)} bytes (max {MAX_BODY_BYTES})"
            )
        return bytes(buf)

    def _seal(self, buf: bytearray) -> bytearray:
        digest = self._hmac.copy()
        # The context manager releases the view before the append below
        # resizes the buffer -- appending with an exported view is a
        # BufferError.
        with memoryview(buf) as view:
            digest.update(view)
        buf += digest.digest()[:TAG_BYTES]
        return buf

    def frame(self, sender: int, body: bytes) -> bytearray:
        """Assemble one single-message frame around an encoded body."""
        if len(body) > MAX_BODY_BYTES:
            raise OversizedFrameError(
                f"body is {len(body)} bytes (max {MAX_BODY_BYTES})"
            )
        buf = self._buf
        del buf[:]
        buf += _HEADER_PLACEHOLDER
        buf += body
        _HEADER.pack_into(buf, 0, MAGIC, CODEC_MSGPACK, sender & 0xFFFFFFFF, len(body))
        return self._seal(buf)

    def frame_batch(self, sender: int, bodies) -> bytearray:
        """Assemble one BATCH frame coalescing several encoded bodies."""
        if not bodies:
            raise FrameCodecError("a batch frame needs at least one body")
        buf = self._buf
        del buf[:]
        buf += _HEADER_PLACEHOLDER
        for body in bodies:
            buf += _BATCH_LEN.pack(len(body))
            buf += body
        body_len = len(buf) - HEADER_BYTES
        if body_len > MAX_BODY_BYTES:
            raise OversizedFrameError(
                f"batch body is {body_len} bytes (max {MAX_BODY_BYTES})"
            )
        _HEADER.pack_into(
            buf, 0, MAGIC, CODEC_MSGPACK_BATCH, sender & 0xFFFFFFFF, body_len
        )
        return self._seal(buf)

    def encode(self, sender: int, payload: Any, sent_at: float = 0.0) -> bytearray:
        """Encode one message straight into a sealed frame (fast path).

        The envelope is packed directly after the header placeholder in the
        frame buffer -- no intermediate body ``bytes`` object at all.
        """
        buf = self._buf
        del buf[:]
        buf += _HEADER_PLACEHOLDER
        _encode_body_into(buf, payload, float(sent_at))
        body_len = len(buf) - HEADER_BYTES
        if body_len > MAX_BODY_BYTES:
            raise OversizedFrameError(
                f"encoded body is {body_len} bytes (max {MAX_BODY_BYTES})"
            )
        _HEADER.pack_into(buf, 0, MAGIC, CODEC_MSGPACK, sender & 0xFFFFFFFF, body_len)
        return self._seal(buf)


class FrameBatcher:
    """Coalesce per-(receiver, sender) message bodies into BATCH frames.

    ``add`` queues an encoded body; when the queued bytes for that
    destination would exceed the datagram budget, the pending run is
    flushed first, so an emitted batch never overflows
    :data:`MAX_BODY_BYTES`.  ``flush`` (called by the transport at a
    loop-tick boundary) emits every pending run in enqueue order -- one
    plain frame for a run of one, a BATCH frame otherwise -- preserving
    per-sender FIFO: bodies for one destination always leave in ``add``
    order, inside one datagram or across consecutive ones.

    ``transmit(receiver, frame, count)`` receives the encoder's reused
    buffer and must consume it before returning.  ``flush`` snapshots the
    queue first, so a transmit callback that triggers new ``add`` calls
    (delivery handlers sending replies in-process) starts a fresh
    generation instead of mutating the one being drained.  A transmit that
    raises does not cost the other runs their turn: ``flush`` emits them
    all and re-raises the first error afterwards.
    """

    __slots__ = ("_budget", "_encoder", "_pending", "_transmit")

    def __init__(
        self,
        encoder: FrameEncoder,
        transmit: Callable[[int, bytearray, int], None],
        budget: int = MAX_BODY_BYTES,
    ) -> None:
        if budget > MAX_BODY_BYTES:
            raise ValueError(f"budget {budget} exceeds MAX_BODY_BYTES")
        self._encoder = encoder
        self._transmit = transmit
        self._budget = budget
        # (receiver, sender) -> [queued_bytes_total, body, body, ...]
        self._pending: dict[tuple[int, int], list] = {}

    @property
    def pending(self) -> bool:
        return bool(self._pending)

    def add(self, receiver: int, sender: int, body: bytes) -> None:
        cost = len(body) + _BATCH_LEN.size
        key = (receiver, sender)
        run = self._pending.get(key)
        if run is not None and run[0] + cost > self._budget:
            del self._pending[key]
            self._emit(key, run)
            run = None
        if run is None:
            self._pending[key] = [cost, body]
        else:
            run[0] += cost
            run.append(body)

    def flush(self) -> None:
        # The queue was swapped out, so a run not emitted here is lost: one
        # raising emit (a transmit error for one receiver) must not take
        # the rest of the tick's runs with it.  Emit them all, then raise
        # the first error.
        first_error = None
        while self._pending:
            snapshot = self._pending
            self._pending = {}
            for key, run in snapshot.items():
                try:
                    self._emit(key, run)
                except Exception as exc:
                    if first_error is None:
                        first_error = exc
        if first_error is not None:
            raise first_error

    def clear(self) -> None:
        """Drop everything queued (transport close path)."""
        self._pending.clear()

    def _emit(self, key: tuple[int, int], run: list) -> None:
        receiver, sender = key
        if len(run) == 2:  # [size, body]: no coalescing win, plain frame
            frame = self._encoder.frame(sender, run[1])
        else:
            frame = self._encoder.frame_batch(sender, run[1:])
        self._transmit(receiver, frame, len(run) - 1)


def encode_frame(sender: int, payload: Any, key: bytes, sent_at: float = 0.0) -> bytes:
    """Encode one authenticated frame (raises :class:`FrameError` variants).

    This is the simple reference path -- fresh buffers, fresh HMAC key
    schedule, tree-building encode -- kept as the module-level convenience
    API and as the reference the skeleton packer is tested and benchmarked
    against.  Transports use :class:`FrameEncoder`.
    """
    try:
        body = mpack.packb({"t": sent_at, "p": _to_wire(payload)})
    except MpackError as exc:
        raise FrameCodecError(str(exc)) from exc
    if len(body) > MAX_BODY_BYTES:
        raise OversizedFrameError(
            f"encoded body is {len(body)} bytes (max {MAX_BODY_BYTES})"
        )
    header = _HEADER.pack(MAGIC, CODEC_MSGPACK, sender & 0xFFFFFFFF, len(body))
    tag = hmac.new(key, header + body, hashlib.sha256).digest()[:TAG_BYTES]
    return header + body + tag


def encode_batch_frame(sender: int, payloads, key: bytes, sent_at: float = 0.0) -> bytes:
    """Encode several payloads into one BATCH frame (test/tool convenience)."""
    encoder = FrameEncoder(key)
    bodies = [encoder.encode_body(payload, sent_at) for payload in payloads]
    return bytes(encoder.frame_batch(sender, bodies))


def _decode_envelope(body: bytes) -> tuple[float, Any]:
    """Generic decode of one envelope: msgpack parse, then the tagged tree.

    The authority on what an authenticated body may hold -- and the oracle
    the compiled path is differentially tested against.
    """
    # One umbrella: *any* failure while interpreting an authenticated body
    # (msgpack parse, envelope shape, payload tags, a malformed "t") must
    # surface as FrameCodecError -- the transports catch FrameError only,
    # and a leaked ValueError would abort an event-loop reader mid-batch.
    try:
        tree = mpack.unpackb(body)
        if not isinstance(tree, dict) or "t" not in tree or "p" not in tree:
            raise FrameCodecError("body is not a framed envelope")
        sent_at = tree["t"]
        if isinstance(sent_at, bool) or not isinstance(sent_at, (int, float)):
            raise FrameCodecError(f"non-numeric sent_at {sent_at!r}")
        payload = _from_wire(tree["p"])
    except FrameError:
        raise
    except Exception as exc:
        raise FrameCodecError(f"undecodable body: {exc}") from exc
    return float(sent_at), payload


#: Distinct payloads a decoder remembers.  About 160 are live at once under
#: the service's ``window`` = 8; at the cap the memo is emptied and refills
#: from traffic, so a flood of distinct payloads costs compiled decodes,
#: never memory.
_MEMO_CAP = 1024


class FrameDecoder:
    """Per-transport decoder: primed HMAC, compiled plans, a payload memo.

    The receive-side twin of :class:`FrameEncoder`.  The tag is verified
    first, from a copy of a pre-keyed HMAC context; nothing below runs on an
    unauthenticated byte.  Each envelope then goes, in order, to

    * the **memo** -- the envelope bytes after ``sent_at`` -> the message
      they decode to.  Sender and ``sent_at`` sit outside those bytes, so
      the relays of one ``(p, m, k)`` triplet by n senders are one entry.
      The key is the exact bytes and the value a pure function of them, so
      an entry cannot be poisoned; only the (immutable) messages the
      compiled path produced are ever stored, and one object is handed to
      every receiver, as the sim network does;
    * the **compiled plans** (:func:`_decode_message`);
    * the **generic decoder** (:func:`_decode_envelope`) -- every
      non-message payload, and anything a plan does not match byte for byte.

    ``memo_hits`` / ``compiled`` / ``generic`` count envelopes per path.
    """

    __slots__ = ("_hmac", "_memo", "compiled", "generic", "memo_hits")

    def __init__(self, key: bytes) -> None:
        self._hmac = hmac.new(key, digestmod=hashlib.sha256)
        self._memo: dict[bytes, Any] = {}
        self.memo_hits = 0
        self.compiled = 0
        self.generic = 0

    def _open(self, data) -> tuple[bytes, bool, int, int]:
        """Validate structure + tag: (bytes, is_batch, sender, body end)."""
        if data.__class__ is not bytes:
            # Everything past this point slices, searches and keys a dict
            # by these bytes.
            data = bytes(data)
        size = len(data)
        if size < MIN_FRAME_BYTES:
            raise TruncatedFrameError(
                f"frame is {size} bytes, shorter than the {MIN_FRAME_BYTES}-byte minimum"
            )
        magic, codec_byte, sender, body_len = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise FrameCodecError(f"bad magic {magic!r}")
        if body_len > MAX_BODY_BYTES:
            raise OversizedFrameError(
                f"declared body of {body_len} bytes exceeds the {MAX_BODY_BYTES} cap"
            )
        end = HEADER_BYTES + body_len
        expected = end + TAG_BYTES
        if size < expected:
            raise TruncatedFrameError(f"frame is {size} bytes but declares {expected}")
        if size > expected:
            raise FrameCodecError(f"{size - expected} trailing bytes after the tag")
        good = self._hmac.copy()
        good.update(data[:end])
        if not hmac.compare_digest(data[end:], good.digest()[:TAG_BYTES]):
            raise FrameAuthError("authentication tag mismatch")
        if codec_byte == CODEC_MSGPACK:
            is_batch = False
        elif codec_byte == CODEC_MSGPACK_BATCH:
            is_batch = True
        else:
            raise FrameCodecError(f"unknown codec byte {codec_byte!r}")
        return data, is_batch, sender, end

    def _envelope(self, data: bytes, start: int, end: int) -> tuple[float, Any]:
        """Decode the (authenticated) envelope ``data[start:end]``."""
        if data.startswith(_ENVELOPE_HEAD, start, end):
            # An envelope cut inside sent_at has an empty tail, which no
            # plan matches: like every mismatch it gets the generic verdict.
            tail = data[start + _TAIL_OFFSET : end]
            memo = self._memo
            message = memo.get(tail)
            if message is not None:
                self.memo_hits += 1
                return _BE_F64.unpack_from(data, start + _SENT_AT_OFFSET)[0], message
            message = _decode_message(tail)
            if message is not None:
                self.compiled += 1
                if len(memo) >= _MEMO_CAP:
                    memo.clear()
                memo[tail] = message
                return _BE_F64.unpack_from(data, start + _SENT_AT_OFFSET)[0], message
        self.generic += 1
        return _decode_envelope(data[start:end])

    def decode_frame(self, data) -> Frame:
        """Decode and authenticate one single-message frame."""
        data, is_batch, sender, end = self._open(data)
        if is_batch:
            raise FrameCodecError("batch frame passed to single-frame decode")
        sent_at, payload = self._envelope(data, HEADER_BYTES, end)
        return Frame(sender, payload, sent_at)

    def decode_frames(self, data) -> tuple[Frame, ...]:
        """Decode one datagram into its frames (single -> 1, batch -> N)."""
        data, is_batch, sender, end = self._open(data)
        if not is_batch:
            sent_at, payload = self._envelope(data, HEADER_BYTES, end)
            return (Frame(sender, payload, sent_at),)
        pos = HEADER_BYTES
        if pos == end:
            raise FrameCodecError("empty batch frame")
        frames = []
        while pos < end:
            if pos + _BATCH_LEN.size > end:
                raise FrameCodecError("truncated batch entry header")
            (sub_len,) = _BATCH_LEN.unpack_from(data, pos)
            pos += _BATCH_LEN.size
            if pos + sub_len > end:
                raise FrameCodecError("batch entry overruns the frame body")
            sent_at, payload = self._envelope(data, pos, pos + sub_len)
            frames.append(Frame(sender, payload, sent_at))
            pos += sub_len
        return tuple(frames)


def _decoder(key) -> FrameDecoder:
    return key if key.__class__ is FrameDecoder else FrameDecoder(key)


def decode_frame(data, key) -> Frame:
    """Decode and authenticate one single-message frame.

    Raises :class:`FrameError` variants; a BATCH frame is refused here --
    transports use :func:`decode_frames`, which handles both shapes.
    ``key`` is as for :func:`decode_frames`.
    """
    return _decoder(key).decode_frame(data)


def decode_frames(data, key) -> tuple[Frame, ...]:
    """Decode one datagram into its frames (single -> 1, batch -> N).

    ``key`` is the frame key, or the :class:`FrameDecoder` a transport
    keeps for it (primed HMAC, payload memo, path counters); a bare key
    decodes through a fresh decoder -- the simple path, as
    :func:`encode_frame` is to :class:`FrameEncoder`.

    A batch decodes atomically: if any entry is malformed the whole
    datagram raises (and the transport counts one rejected datagram),
    never a prefix of its messages -- partial delivery would violate
    per-sender FIFO.
    """
    return _decoder(key).decode_frames(data)


__all__ = [
    "CODEC_MSGPACK",
    "CODEC_MSGPACK_BATCH",
    "Frame",
    "FrameAuthError",
    "FrameBatcher",
    "FrameCodecError",
    "FrameDecoder",
    "FrameEncoder",
    "FrameError",
    "HEADER_BYTES",
    "MAGIC",
    "MAX_BODY_BYTES",
    "MIN_FRAME_BYTES",
    "MSGPACK_IMPL",
    "OversizedFrameError",
    "TAG_BYTES",
    "TruncatedFrameError",
    "decode_frame",
    "decode_frames",
    "derive_key",
    "encode_batch_frame",
    "encode_frame",
]
