"""Vendored msgpack subset: the wire codec, with no dependency.

This module implements the subset of the msgpack spec the framing layer
actually emits -- nil, bool, int64-range integers, float64, str, bin,
array, map with string keys -- in canonical (smallest) form.  It is the
only msgpack implementation the runtime uses: what :func:`unpackb` refuses
is refused everywhere the code runs.

Encode is append-only into a caller-supplied ``bytearray`` so the framing
layer can assemble header + body + tag in one preallocated buffer without
intermediate ``bytes`` objects; decode walks a ``memoryview`` without
slicing copies until leaf values materialize.
"""

from __future__ import annotations

import struct
from typing import Any

_FLOAT64 = struct.Struct(">Bd")
_UINT8 = struct.Struct(">BB")
_UINT16 = struct.Struct(">BH")
_UINT32 = struct.Struct(">BI")
_INT8 = struct.Struct(">Bb")
_INT16 = struct.Struct(">Bh")
_INT32 = struct.Struct(">Bi")
_INT64 = struct.Struct(">Bq")
_UINT64 = struct.Struct(">BQ")

_BE_U16 = struct.Struct(">H")
_BE_U32 = struct.Struct(">I")
_BE_I8 = struct.Struct(">b")
_BE_I16 = struct.Struct(">h")
_BE_I32 = struct.Struct(">i")
_BE_I64 = struct.Struct(">q")
_BE_F32 = struct.Struct(">f")
_BE_F64 = struct.Struct(">d")

INT64_MIN = -(2 ** 63)
UINT64_MAX = 2 ** 64 - 1


class MpackError(ValueError):
    """Malformed or unsupported msgpack data (encode- or decode-side)."""


def pack_str_into(buf: bytearray, value: str) -> None:
    """Append one msgpack str (fixstr / str8 / str16 / str32)."""
    data = value.encode("utf-8")
    size = len(data)
    if size < 32:
        buf.append(0xA0 | size)
    elif size < 256:
        buf += _UINT8.pack(0xD9, size)
    elif size < 65536:
        buf += _UINT16.pack(0xDA, size)
    else:
        buf += _UINT32.pack(0xDB, size)
    buf += data


def pack_into(buf: bytearray, obj: Any) -> None:
    """Append one msgpack value for ``obj`` (the tagged-tree types).

    Accepts ``dict`` (string keys), ``list``/``tuple`` (encoded as arrays),
    ``str``, ``int`` (int64/uint64 range), ``float``, ``bool``, ``None``
    and ``bytes``, and raises :class:`MpackError` for anything else, so
    undecodable payloads fail at encode time.
    """
    kind = type(obj)
    if kind is str:
        pack_str_into(buf, obj)
    elif kind is bool:
        buf.append(0xC3 if obj else 0xC2)
    elif kind is int:
        # Canonical (smallest) format at every boundary.
        if 0 <= obj < 128:
            buf.append(obj)
        elif -32 <= obj < 0:
            buf.append(obj & 0xFF)
        elif obj >= 0:
            if obj < 256:
                buf += _UINT8.pack(0xCC, obj)
            elif obj < 65536:
                buf += _UINT16.pack(0xCD, obj)
            elif obj < 2 ** 32:
                buf += _UINT32.pack(0xCE, obj)
            elif obj <= UINT64_MAX:
                buf += _UINT64.pack(0xCF, obj)
            else:
                raise MpackError(f"integer {obj} outside the 64-bit msgpack range")
        else:
            if obj >= -128:
                buf += _INT8.pack(0xD0, obj)
            elif obj >= -32768:
                buf += _INT16.pack(0xD1, obj)
            elif obj >= -(2 ** 31):
                buf += _INT32.pack(0xD2, obj)
            elif obj >= INT64_MIN:
                buf += _INT64.pack(0xD3, obj)
            else:
                raise MpackError(f"integer {obj} outside the 64-bit msgpack range")
    elif kind is float:
        buf += _FLOAT64.pack(0xCB, obj)
    elif obj is None:
        buf.append(0xC0)
    elif kind is dict:
        size = len(obj)
        if size < 16:
            buf.append(0x80 | size)
        elif size < 65536:
            buf += _UINT16.pack(0xDE, size)
        else:
            buf += _UINT32.pack(0xDF, size)
        for key, value in obj.items():
            if type(key) is not str:
                raise MpackError(f"non-string map key {key!r}")
            pack_str_into(buf, key)
            pack_into(buf, value)
    elif kind is list or kind is tuple:
        size = len(obj)
        if size < 16:
            buf.append(0x90 | size)
        elif size < 65536:
            buf += _UINT16.pack(0xDC, size)
        else:
            buf += _UINT32.pack(0xDD, size)
        for item in obj:
            pack_into(buf, item)
    elif kind is bytes or kind is bytearray:
        size = len(obj)
        if size < 256:
            buf += _UINT8.pack(0xC4, size)
        elif size < 65536:
            buf += _UINT16.pack(0xC5, size)
        else:
            buf += _UINT32.pack(0xC6, size)
        buf += obj
    else:
        # Subclasses (bool is the poster child: it subclasses int) fall
        # through to here unless their exact type matched above; treat real
        # subclass instances of the supported scalars conservatively.
        if isinstance(obj, bool):
            buf.append(0xC3 if obj else 0xC2)
        elif isinstance(obj, int):
            pack_into(buf, int(obj))
        elif isinstance(obj, float):
            buf += _FLOAT64.pack(0xCB, float(obj))
        elif isinstance(obj, str):
            pack_str_into(buf, str(obj))
        else:
            raise MpackError(f"type {type(obj).__name__!r} is not msgpack-packable")


def packb(obj: Any) -> bytes:
    """One-shot convenience: pack ``obj`` into fresh bytes."""
    buf = bytearray()
    pack_into(buf, obj)
    return bytes(buf)


class _Reader:
    """Cursor over a memoryview; bounds-checked reads, no slicing copies."""

    __slots__ = ("data", "pos", "size")

    def __init__(self, data: memoryview) -> None:
        self.data = data
        self.pos = 0
        self.size = len(data)

    def need(self, count: int) -> int:
        start = self.pos
        if start + count > self.size:
            raise MpackError("truncated msgpack data")
        self.pos = start + count
        return start


def _unpack_value(r: _Reader) -> Any:
    data = r.data
    start = r.need(1)
    tag = data[start]
    if tag < 0x80:  # positive fixint
        return tag
    if tag >= 0xE0:  # negative fixint
        return tag - 256
    if 0xA0 <= tag <= 0xBF:  # fixstr
        size = tag & 0x1F
        at = r.need(size)
        return str(data[at : at + size], "utf-8")
    if 0x80 <= tag <= 0x8F:  # fixmap
        return _unpack_map(r, tag & 0x0F)
    if 0x90 <= tag <= 0x9F:  # fixarray
        return [_unpack_value(r) for _ in range(tag & 0x0F)]
    if tag == 0xC0:
        return None
    if tag == 0xC2:
        return False
    if tag == 0xC3:
        return True
    if tag == 0xCB:  # float64
        at = r.need(8)
        return _BE_F64.unpack_from(data, at)[0]
    if tag == 0xCA:  # float32 (never emitted; accepted for interop)
        at = r.need(4)
        return _BE_F32.unpack_from(data, at)[0]
    if tag == 0xD3:  # int64
        at = r.need(8)
        return _BE_I64.unpack_from(data, at)[0]
    if tag == 0xD9:  # str8
        at = r.need(1)
        size = data[at]
        at = r.need(size)
        return str(data[at : at + size], "utf-8")
    if tag == 0xDA:  # str16
        at = r.need(2)
        size = _BE_U16.unpack_from(data, at)[0]
        at = r.need(size)
        return str(data[at : at + size], "utf-8")
    if tag == 0xDB:  # str32
        at = r.need(4)
        size = _BE_U32.unpack_from(data, at)[0]
        at = r.need(size)
        return str(data[at : at + size], "utf-8")
    if tag == 0xCC:  # uint8
        at = r.need(1)
        return data[at]
    if tag == 0xCD:  # uint16
        at = r.need(2)
        return _BE_U16.unpack_from(data, at)[0]
    if tag == 0xCE:  # uint32
        at = r.need(4)
        return _BE_U32.unpack_from(data, at)[0]
    if tag == 0xCF:  # uint64
        at = r.need(8)
        return struct.unpack_from(">Q", data, at)[0]
    if tag == 0xD0:  # int8
        at = r.need(1)
        return _BE_I8.unpack_from(data, at)[0]
    if tag == 0xD1:  # int16
        at = r.need(2)
        return _BE_I16.unpack_from(data, at)[0]
    if tag == 0xD2:  # int32
        at = r.need(4)
        return _BE_I32.unpack_from(data, at)[0]
    if tag == 0xDC:  # array16
        at = r.need(2)
        size = _BE_U16.unpack_from(data, at)[0]
        return [_unpack_value(r) for _ in range(size)]
    if tag == 0xDD:  # array32
        at = r.need(4)
        size = _BE_U32.unpack_from(data, at)[0]
        return [_unpack_value(r) for _ in range(size)]
    if tag == 0xDE:  # map16
        at = r.need(2)
        return _unpack_map(r, _BE_U16.unpack_from(data, at)[0])
    if tag == 0xDF:  # map32
        at = r.need(4)
        return _unpack_map(r, _BE_U32.unpack_from(data, at)[0])
    if tag == 0xC4:  # bin8
        at = r.need(1)
        size = data[at]
        at = r.need(size)
        return bytes(data[at : at + size])
    if tag == 0xC5:  # bin16
        at = r.need(2)
        size = _BE_U16.unpack_from(data, at)[0]
        at = r.need(size)
        return bytes(data[at : at + size])
    if tag == 0xC6:  # bin32
        at = r.need(4)
        size = _BE_U32.unpack_from(data, at)[0]
        at = r.need(size)
        return bytes(data[at : at + size])
    raise MpackError(f"unsupported msgpack tag 0x{tag:02x}")


def _unpack_map(r: _Reader, size: int) -> dict:
    result = {}
    for _ in range(size):
        key = _unpack_value(r)
        if not isinstance(key, str):
            raise MpackError(f"non-string map key {key!r}")
        result[key] = _unpack_value(r)
    return result


def unpackb(data) -> Any:
    """Unpack exactly one msgpack value; trailing bytes are an error."""
    view = data if isinstance(data, memoryview) else memoryview(data)
    reader = _Reader(view)
    value = _unpack_value(reader)
    if reader.pos != reader.size:
        raise MpackError(f"{reader.size - reader.pos} trailing bytes after value")
    return value


__all__ = [
    "INT64_MIN",
    "MpackError",
    "UINT64_MAX",
    "pack_into",
    "pack_str_into",
    "packb",
    "unpackb",
]
