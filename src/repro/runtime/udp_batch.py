"""Batched UDP syscalls: ``sendmmsg``/``recvmmsg`` via ctypes.

Python's ``socket`` module exposes neither call, but on Linux they are the
difference between one syscall per datagram and one syscall per *wave* --
exactly the n-1 unicast copies a protocol broadcast produces.  This module
wraps both through ``libc`` with plain ``sendto``/``recvfrom`` as the
universal fallback:

* ``HAVE_MMSG`` is the import-time feature probe (Linux + libc symbols).
* The first *real* runtime failure of either call flips a module-wide kill
  switch (:func:`disable`), so a seccomp filter or exotic kernel degrades
  the transport to the fallback path once, loudly, and permanently -- never
  a crash loop in an event-loop reader.  Back-pressure from a non-blocking
  socket is not a failure and leaves the switch alone.

Only IPv4 is supported (the runtime binds ``127.0.0.1``); everything here
is loopback-local cluster traffic, same as the transports it serves.
"""

from __future__ import annotations

import ctypes
import errno
import socket
import struct
import sys

__all__ = [
    "HAVE_MMSG",
    "MmsgReceiver",
    "available",
    "disable",
    "send_many",
]

_MSG_DONTWAIT = 0x40  # Linux: non-blocking for this call only

#: "Not right now" answers from a non-blocking socket: a momentarily full
#: buffer or an interrupted call, not a reason to give up on the syscall.
_TRANSIENT = frozenset(
    {errno.EAGAIN, errno.EWOULDBLOCK, errno.EINTR, errno.ENOBUFS}
)


class _Iovec(ctypes.Structure):
    _fields_ = [("iov_base", ctypes.c_void_p), ("iov_len", ctypes.c_size_t)]


class _SockaddrIn(ctypes.Structure):
    _fields_ = [
        ("sin_family", ctypes.c_uint16),
        ("sin_port", ctypes.c_uint16),
        ("sin_addr", ctypes.c_uint32),
        ("sin_zero", ctypes.c_char * 8),
    ]


class _Msghdr(ctypes.Structure):
    _fields_ = [
        ("msg_name", ctypes.c_void_p),
        ("msg_namelen", ctypes.c_uint32),
        ("msg_iov", ctypes.POINTER(_Iovec)),
        ("msg_iovlen", ctypes.c_size_t),
        ("msg_control", ctypes.c_void_p),
        ("msg_controllen", ctypes.c_size_t),
        ("msg_flags", ctypes.c_int),
    ]


class _Mmsghdr(ctypes.Structure):
    _fields_ = [("msg_hdr", _Msghdr), ("msg_len", ctypes.c_uint32)]


_libc = None
if sys.platform.startswith("linux"):
    try:
        _candidate = ctypes.CDLL(None, use_errno=True)
        if hasattr(_candidate, "sendmmsg") and hasattr(_candidate, "recvmmsg"):
            _candidate.sendmmsg.restype = ctypes.c_int
            _candidate.recvmmsg.restype = ctypes.c_int
            _libc = _candidate
    except OSError:  # pragma: no cover - no loadable libc
        _libc = None

HAVE_MMSG = _libc is not None
_disabled = False


def available() -> bool:
    """True when batched syscalls can be used right now."""
    return HAVE_MMSG and not _disabled


def disable() -> None:
    """Permanently fall back to sendto/recvfrom (first-failure kill switch)."""
    global _disabled
    _disabled = True


def _pack_sockaddr(addr: tuple) -> _SockaddrIn:
    host, port = addr[0], addr[1]
    (packed_ip,) = struct.unpack("=I", socket.inet_aton(host))
    return _SockaddrIn(
        sin_family=socket.AF_INET,
        sin_port=socket.htons(port),
        sin_addr=packed_ip,
        sin_zero=b"\x00" * 8,
    )


def send_many(sock: socket.socket, datagrams) -> int:
    """Send ``[(payload_bytes, (host, port)), ...]`` in one ``sendmmsg``.

    Returns the number of datagrams the kernel accepted (callers resend the
    tail via ``sendto`` if short) -- zero under back-pressure (``EAGAIN``,
    ``EINTR``, ``ENOBUFS``), which is the socket being busy, not the
    syscall being unusable.  Raises ``OSError`` on outright failure;
    callers should :func:`disable` and fall back.  Payloads must be
    ``bytes`` (immutable: the kernel reads them during the call).
    """
    count = len(datagrams)
    if count == 0:
        return 0
    iovecs = (_Iovec * count)()
    headers = (_Mmsghdr * count)()
    addrs = (_SockaddrIn * count)()
    keepalive = []
    for i, (payload, addr) in enumerate(datagrams):
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        keepalive.append(payload)
        iovecs[i].iov_base = ctypes.cast(ctypes.c_char_p(payload), ctypes.c_void_p)
        iovecs[i].iov_len = len(payload)
        addrs[i] = _pack_sockaddr(addr)
        hdr = headers[i].msg_hdr
        hdr.msg_name = ctypes.cast(ctypes.byref(addrs[i]), ctypes.c_void_p)
        hdr.msg_namelen = ctypes.sizeof(_SockaddrIn)
        hdr.msg_iov = ctypes.pointer(iovecs[i])
        hdr.msg_iovlen = 1
    sent = _libc.sendmmsg(sock.fileno(), headers, count, 0)
    if sent < 0:
        err = ctypes.get_errno()
        if err in _TRANSIENT:
            return 0
        raise OSError(err, f"sendmmsg failed: errno {err}")
    return sent


class MmsgReceiver:
    """Reusable ``recvmmsg`` drain: preallocated buffers, zero per-call setup.

    :meth:`recv` returns ``memoryview`` slices into the receiver's own
    buffers -- valid only until the next ``recv`` call, which is exactly
    the lifetime a transport needs (decode + deliver, then drain again).
    An empty list means the socket is drained (EAGAIN).
    """

    __slots__ = ("_buffers", "_headers", "_iovecs", "_max_batch", "_views")

    def __init__(self, max_batch: int = 32, bufsize: int = 65536) -> None:
        self._max_batch = max_batch
        self._buffers = [bytearray(bufsize) for _ in range(max_batch)]
        self._views = [memoryview(buf) for buf in self._buffers]
        self._iovecs = (_Iovec * max_batch)()
        self._headers = (_Mmsghdr * max_batch)()
        for i, buf in enumerate(self._buffers):
            raw = (ctypes.c_char * len(buf)).from_buffer(buf)
            self._iovecs[i].iov_base = ctypes.cast(raw, ctypes.c_void_p)
            self._iovecs[i].iov_len = len(buf)
            hdr = self._headers[i].msg_hdr
            hdr.msg_name = None
            hdr.msg_namelen = 0
            hdr.msg_iov = ctypes.pointer(self._iovecs[i])
            hdr.msg_iovlen = 1

    def recv(self, sock: socket.socket):
        """Drain up to ``max_batch`` datagrams in one syscall."""
        got = _libc.recvmmsg(
            sock.fileno(), self._headers, self._max_batch, _MSG_DONTWAIT, None
        )
        if got < 0:
            err = ctypes.get_errno()
            if err in _TRANSIENT:
                return []
            raise OSError(err, f"recvmmsg failed: errno {err}")
        return [self._views[i][: self._headers[i].msg_len] for i in range(got)]
