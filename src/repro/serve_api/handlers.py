"""HTTP layer of the planning service (stdlib only, no new dependencies).

A thin :mod:`http.server` front-end over :class:`~repro.serve_api.app.PlannerApp`:
``ThreadingHTTPServer`` gives every request its own thread, and the app
multiplexes those threads onto one warm cache, one in-flight dedup table
and one shared worker pool.  The handler knows nothing about the engine —
it reads a JSON body, picks an app method by route, and writes the body
(or the app's NDJSON event stream) back.

Routes
------
========  =================  ==================================================
method    path               app method
========  =================  ==================================================
GET       ``/v1/health``     liveness probe (no engine state touched)
GET       ``/v1/status``     counters: requests, engine solves, dedup, cache
GET       ``/v1/workloads``  the workload registry (request vocabulary)
POST      ``/v1/search``     training search (``"stream": true`` -> NDJSON)
POST      ``/v1/pareto``     multi-objective search; streams ``frontier`` events
POST      ``/v1/serve``      inference-serving search (streamable)
POST      ``/v1/sweep``      batch of searches over a GPU-count list (streamable)
POST      ``/v1/evaluate``   price one explicit configuration
==========================================================================

Streaming responses are ``application/x-ndjson``: one JSON object per
line — ``accepted``, then ``progress`` events from the executor's report
hook, then exactly one ``result`` or ``error`` — on a ``Connection:
close`` response (no Content-Length, so clients read until EOF).
"""

from __future__ import annotations

import json
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.core.workloads import available_workloads, get_workload
from repro.serve_api.app import PlannerApp
from repro.serve_api.schema import ApiError, get_stream_flag

#: Default bind address of ``repro-perf api``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8421

#: Request bodies above this size are rejected outright (the largest valid
#: request — a sweep over hundreds of GPU counts — is a few KB).
MAX_BODY_BYTES = 1 << 20


class PlannerHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` carrying the process-wide :class:`PlannerApp`."""

    #: Request threads die with the process, so Ctrl-C never hangs on a
    #: long solve.
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], app: PlannerApp, *, quiet: bool = False):
        self.app = app
        self.quiet = quiet
        super().__init__(address, PlannerRequestHandler)


class PlannerRequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto the server's :class:`PlannerApp`."""

    server_version = "repro-planner/1.0"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a response is two writes (headers, then body), and with
    #: Nagle's algorithm the body would wait for the client's delayed ACK
    #: of the headers, about 40 ms per response on a keep-alive connection.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def app(self) -> PlannerApp:
        """The process-wide application object (one per server)."""
        return self.server.app

    def log_message(self, format: str, *args) -> None:  # noqa: A002 (stdlib name)
        """Default access log, silenced when the server was built quiet."""
        if not getattr(self.server, "quiet", False):
            super().log_message(format, *args)

    def _read_json_body(self) -> Any:
        """The request body parsed as JSON, or an :class:`ApiError`."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise ApiError("invalid Content-Length header") from None
        if length <= 0:
            raise ApiError("request body required (a JSON object)")
        if length > MAX_BODY_BYTES:
            raise ApiError("request body too large", status=413)
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(f"request body is not valid JSON: {exc}") from None

    def _send_json(self, body: Dict[str, Any], status: int = 200) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_ndjson(self, events: Iterator[Dict[str, Any]]) -> None:
        """Stream one JSON object per line; the connection closes at the end."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        for event in events:
            self.wfile.write(json.dumps(event, sort_keys=True).encode("utf-8") + b"\n")
            self.wfile.flush()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        try:
            if self.path == "/v1/health":
                self._send_json({"ok": True})
            elif self.path == "/v1/status":
                self._send_json(self.app.status())
            elif self.path == "/v1/workloads":
                self._send_json(
                    {
                        "workloads": [
                            get_workload(name).summary() for name in available_workloads()
                        ]
                    }
                )
            else:
                self._send_json({"error": f"unknown path {self.path!r}", "status": 404}, 404)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        routes = {
            "/v1/search": (self.app.search, self.app.search_events),
            "/v1/pareto": (self.app.pareto, self.app.pareto_events),
            "/v1/serve": (self.app.serve, self.app.serve_events),
            "/v1/sweep": (self.app.sweep, self.app.sweep_events),
            "/v1/evaluate": (self.app.evaluate, None),
        }
        try:
            route = routes.get(self.path)
            if route is None:
                self._send_json({"error": f"unknown path {self.path!r}", "status": 404}, 404)
                return
            handler, stream_handler = route
            payload = self._read_json_body()
            if stream_handler is not None and get_stream_flag(payload):
                self._send_ndjson(stream_handler(payload))
            else:
                self._send_json(handler(payload))
        except ApiError as exc:
            self._send_json(exc.body(), exc.status)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to answer
        except Exception as exc:  # noqa: BLE001 — a request must never kill the server
            try:
                self._send_json({"error": f"internal error: {exc}", "status": 500}, 500)
            except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
                pass


def create_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    app: Optional[PlannerApp] = None,
    cache_path=None,
    jobs: Optional[int] = None,
    quiet: bool = False,
) -> PlannerHTTPServer:
    """Build a ready-to-run planning server (call ``serve_forever`` on it).

    ``port=0`` binds an ephemeral port (the tests and the smoke script use
    this); the bound address is available as ``server.server_address``.
    Pass an existing ``app`` to share engine state, or let the server build
    one from ``cache_path``/``jobs``.
    """
    if app is None:
        app = PlannerApp(cache_path=cache_path, jobs=jobs)
    try:
        return PlannerHTTPServer((host, port), app, quiet=quiet)
    except socket.gaierror as exc:
        raise ApiError(f"cannot bind {host}:{port}: {exc}", status=500) from None
