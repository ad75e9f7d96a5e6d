"""Tiny stdlib HTTP server for the observability endpoints.

One :class:`ObservabilityServer` instance serves whichever of the three
endpoints its owner wires up:

* ``GET /metrics`` -- Prometheus text exposition (a render callable).
* ``GET /status``  -- JSON cluster/node status (a snapshot callable).
* ``POST /faults`` -- JSON ``FaultScript`` action specs (an inject
  callable; the body is parsed here, validation happens in the callable).
* ``GET /healthz`` -- liveness probe, always ``200 ok`` while serving.

The server is a ``ThreadingHTTPServer`` on a daemon thread: socket
children and the cluster parent both run event/poll loops on their main
thread, and a scrape must never block protocol progress.  Handler
callables therefore run OFF the loop thread -- owners must only hand in
callables that read plain fields, run their work on the loop with a
bounded wait, or enqueue it there, never ones that touch live protocol
structures directly.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

#: Cap on /faults request bodies; a fault spec is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20


class ObservabilityServer:
    """Serve /metrics, /status, /faults from a daemon thread."""

    def __init__(
        self,
        render: Optional[Callable[[], str]] = None,
        status: Optional[Callable[[], dict]] = None,
        faults: Optional[Callable[[object], dict]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._render = render
        self._status = status
        self._faults = faults
        outer = self

        class Handler(BaseHTTPRequestHandler):
            # Observability must stay silent on the child's stderr.
            def log_message(self, fmt, *args):  # noqa: D102
                pass

            def _reply(self, code: int, body: bytes, content_type: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _reply_json(self, code: int, payload: dict) -> None:
                self._reply(
                    code,
                    json.dumps(payload, default=str).encode(),
                    "application/json",
                )

            def do_GET(self):  # noqa: N802
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics" and outer._render is not None:
                        body = outer._render().encode()
                        self._reply(
                            200, body,
                            "text/plain; version=0.0.4; charset=utf-8",
                        )
                    elif path == "/status" and outer._status is not None:
                        self._reply_json(200, outer._status())
                    elif path == "/healthz":
                        self._reply(200, b"ok\n", "text/plain")
                    else:
                        self._reply_json(404, {"error": f"no route {path}"})
                except Exception as exc:  # never kill the handler thread
                    try:
                        self._reply_json(500, {"error": repr(exc)})
                    except OSError:
                        pass

            def do_POST(self):  # noqa: N802
                path = self.path.split("?", 1)[0]
                if path != "/faults" or outer._faults is None:
                    self._reply_json(404, {"error": f"no route {path}"})
                    return
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    if not 0 < length <= MAX_BODY_BYTES:
                        self._reply_json(400, {"error": "bad Content-Length"})
                        return
                    spec = json.loads(self.rfile.read(length))
                except (ValueError, OSError) as exc:
                    self._reply_json(400, {"error": f"bad JSON body: {exc}"})
                    return
                try:
                    self._reply_json(200, outer._faults(spec))
                except (KeyError, TypeError, ValueError) as exc:
                    self._reply_json(400, {"error": str(exc)})
                except Exception as exc:
                    try:
                        self._reply_json(500, {"error": repr(exc)})
                    except OSError:
                        pass

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self.address: tuple[str, int] = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.address[1]}"

    def start(self) -> "ObservabilityServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": 0.1},
                daemon=True,
                name=f"repro-obs-{self.port}",
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=2.0)
            self._thread = None
        self._server.server_close()


__all__ = ["MAX_BODY_BYTES", "ObservabilityServer"]
