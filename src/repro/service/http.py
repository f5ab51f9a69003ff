"""JSON-over-HTTP front end for the compile service (stdlib only).

The handler speaks to anything satisfying the *service contract* —
``compile(request) -> CompileOutcome``, ``stats() -> dict``,
``metrics_snapshot() -> dict``, ``health() -> dict``,
``clear_cache() -> int``, and a ``store`` attribute (an
:class:`~repro.service.store.ArtifactStore` or ``None``) — so one server
implementation fronts both a single-process
:class:`~repro.service.service.CompileService` (``repro serve``) and a
:class:`~repro.service.fleet.FleetRouter` (``repro fleet serve``).

Endpoints (all under ``/v1``):

=======================  ======  ==========================================
``/v1/healthz``          GET     liveness + version stamps
``/v1/health``           GET     liveness + load: queue depth/limit,
                                 saturation — the fleet prober's endpoint
``/v1/stats``            GET     service counters, queue state, latency
                                 percentiles and store stats
``/v1/metrics``          GET     the same counters as a registry snapshot,
                                 merged with the process registry (the
                                 dashboard/aggregator scrape target); a
                                 fleet front-end answers with the merged
                                 fleet-wide aggregate
``/v1/trace/<id>``       GET     the stitched Perfetto trace for one
                                 ``trace_id`` (``?raw=1`` returns this
                                 process's unstitched fragment — what the
                                 fleet stitcher scrapes)
``/v1/events``           GET     the structured control-plane event log
                                 (``?since=N`` returns events newer than
                                 sequence number N)
``/v1/compile``          POST    body: :class:`~repro.service.api.CompileRequest`
                                 JSON; blocks until the outcome is ready
``/v1/artifacts/<d>``    GET     one stored artifact by digest
``/v1/cache/clear``      POST    drop every stored artifact
=======================  ======  ==========================================

A compile response's ``artifact`` and a ``/v1/artifacts`` body are the
stored canonical JSON, sent as the bytes the store verified (see
:meth:`~repro.service.api.CompileOutcome.to_json_bytes`).

Status mapping: 200 success (hit or miss), 400 malformed request
(``RuntimeConfigError``/``IRError``), 422 typed pipeline failure (the
body carries the error and its replayable failure report), 503 +
``Retry-After`` when the admission queue sheds load, 504 when the
request's propagated deadline expired before it could be served (the
body is the typed shed outcome), 404 unknown path/digest.  Every error
body includes ``error_type`` and the CLI ``exit_code`` for that failure
class, so a thin client can exit the way a local run would.

Framing: :class:`~http.server.ThreadingHTTPServer` and
:class:`~http.server.BaseHTTPRequestHandler` accept connections, run one
thread per connection, dispatch ``do_*`` and send framing errors
(``send_error``).  The handler replaces only the head parse and the
send: :meth:`_Handler.parse_request` keeps the stdlib's request-line
checks, reads the header fields and the whole ``Content-Length`` body
through :mod:`.wire`, and answers ``Expect: 100-continue`` before the
body; :meth:`_Handler._send_bytes` sends status line, headers and body
in one write.  HTTP/1.0 and 1.1 are accepted; a request with
``Transfer-Encoding`` is refused (411) and its connection closed.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..errors import (
    EXIT_CONFIG,
    QueueFullError,
    ReproError,
    exit_code_for,
)
from ..ir.serialize import FORMAT_VERSION, PIPELINE_VERSION
from ..observability import (
    get_event_log,
    get_tracer,
    is_valid_trace_id,
    make_fragment,
    stitch_fragments,
)
from . import wire
from .api import STATUS_ERROR, CompileRequest
from .store import is_valid_digest

#: Maximum accepted request-body size (serialized IR programs are small;
#: anything bigger is a client bug or abuse).
MAX_BODY_BYTES = 16 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """One handler thread per connection; workers bound the real work."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: Any) -> None:
        # ``service`` is anything satisfying the module-docstring
        # contract: a CompileService or a FleetRouter.
        super().__init__(address, _Handler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


def make_server(
    service: Any, host: str, port: int
) -> ServiceHTTPServer:
    """Bind (``port=0`` picks an ephemeral port) but do not serve yet."""
    return ServiceHTTPServer((host, port), service)


def _http_version(text: str) -> Optional[Tuple[int, int]]:
    """``HTTP/<major>.<minor>`` as a pair, by the stdlib's rules."""
    if not text.startswith("HTTP/"):
        return None
    parts = text[5:].split(".")
    if len(parts) != 2 or not all(
        part.isascii() and part.isdigit() and len(part) <= 10
        for part in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    #: HTTP/1.1 keeps connections alive between requests (every response
    #: sets Content-Length, which 1.1 keep-alive requires) — the fleet
    #: router's dispatcher threads reuse one connection per backend
    #: instead of paying a TCP handshake per request.
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a response is one write, but one larger than a
    #: segment would otherwise hold its last segment until the client
    #: ACKs the ones before it.
    disable_nagle_algorithm = True
    #: The declared body, read whole by :meth:`parse_request`.
    body = b""

    #: Keep the default noisy per-request stderr logging off; the
    #: service's own metrics/tracing are the observability surface.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- plumbing --------------------------------------------------------

    def parse_request(self) -> bool:
        """The request line by the stdlib's checks, then the head and
        the whole body through :mod:`.wire`.

        Reading every declared body here, before any route answers,
        keeps a kept-alive connection in step: bytes a route ignores
        (``/v1/cache/clear``, an unknown POST) never prefix the next
        request line.  Returns ``False`` once an error has been sent or
        the client has gone; the connection then closes.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip(
            "\r\n"
        )
        words = self.requestline.split()
        if not words:
            return False
        if len(words) != 3:
            self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path, version = words
        number = _http_version(version)
        if number is None:
            self.send_error(400, f"Bad request version ({version!r})")
            return False
        self.request_version = version
        if number >= (2, 0):
            self.send_error(505, f"Invalid HTTP version ({version[5:]})")
            return False
        # A path starting with "//" reads as a scheme-less absolute URI
        # to clients; collapse it as the stdlib does (gh-87389).
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        try:
            self.headers = wire.read_fields(self.rfile)
            length = wire.body_length(self.headers) or 0
        except wire.FramingError as exc:
            self.send_error(exc.status, str(exc))
            return False
        except wire.IncompleteMessage:
            return False
        if length > MAX_BODY_BYTES:
            self.send_error(
                413, f"request body is over {MAX_BODY_BYTES} bytes"
            )
            return False
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            number < (1, 1) and connection != "keep-alive"
        )
        if (
            number >= (1, 1)
            and self.headers.get("expect", "").lower() == "100-continue"
        ):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            self.body = wire.read_body(self.rfile, length)
        except wire.IncompleteMessage:
            self.close_connection = True
            return False
        return True

    def _send(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_bytes(
            status, json.dumps(payload).encode("utf-8"), extra_headers
        )

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Send ``body``, already-encoded JSON, as one write: the one
        send path."""
        fields = [
            ("Date", self.date_time_string()),
            ("Content-Type", "application/json"),
        ]
        if extra_headers:
            fields.extend(extra_headers.items())
        if self.close_connection:
            fields.append(("Connection", "close"))
        message = wire.encode_message(
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            fields,
            body,
        )
        try:
            self.wfile.write(message)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _error(
        self,
        status: int,
        exc: BaseException,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send(
            status,
            {
                "error_type": type(exc).__name__,
                "message": str(exc),
                "exit_code": exit_code_for(exc),
            },
            extra_headers,
        )

    def _query(self) -> Dict[str, str]:
        """Last-wins query parameters (``?raw=1``, ``?since=N``)."""
        parts = self.path.split("?", 1)
        if len(parts) < 2 or not parts[1]:
            return {}
        from urllib.parse import parse_qsl

        return dict(parse_qsl(parts[1], keep_blank_values=True))

    def _local_fragment(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """This process's unstitched trace fragment, or ``None``.

        A fleet router carries its own ``trace_fragment``; a plain
        :class:`~repro.service.service.CompileService` has none, so the
        fragment is built straight from the process tracer.
        """
        fragment_fn = getattr(self.server.service, "trace_fragment", None)
        if fragment_fn is not None:
            return fragment_fn(trace_id)
        tracer = get_tracer()
        if not tracer.enabled:
            return None
        events = tracer.events_for_trace(trace_id)
        if not events:
            return None
        return make_fragment(
            "service", events, getattr(tracer, "epoch_unix_us", None)
        )

    # -- routes ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/v1/healthz":
            import repro

            self._send(200, {
                "ok": True,
                "version": repro.__version__,
                "format_version": FORMAT_VERSION,
                "pipeline_version": PIPELINE_VERSION,
            })
            return
        if path == "/v1/health":
            # The prober's endpoint: liveness plus load.  A reachable
            # server always answers 200; ``ok: false`` (draining after
            # close()) tells the prober to trip the breaker without
            # waiting for a connection error.
            self._send(200, self.server.service.health())
            return
        if path == "/v1/stats":
            self._send(200, {"service": self.server.service.stats()})
            return
        if path == "/v1/metrics":
            # The scrape target.  A fleet front-end answers with the
            # merged fleet-wide aggregate (its own snapshot plus every
            # reachable backend's); a plain server answers with its own.
            aggregate_fn = getattr(
                self.server.service, "aggregated_metrics", None
            )
            if aggregate_fn is not None:
                self._send(200, aggregate_fn())
                return
            self._send(200, {
                "enabled": True,
                "metrics": self.server.service.metrics_snapshot(),
            })
            return
        if path.startswith("/v1/trace/"):
            trace_id = path[len("/v1/trace/"):]
            if not is_valid_trace_id(trace_id):
                self._send(404, {
                    "error_type": "NotFound",
                    "message": f"malformed trace id {trace_id!r}",
                })
                return
            raw = self._query().get("raw") in ("1", "true")
            if raw:
                fragment = self._local_fragment(trace_id)
                if fragment is None:
                    self._send(404, {
                        "error_type": "NotFound",
                        "message": f"no events for trace {trace_id!r}",
                    })
                    return
                self._send(200, fragment)
                return
            document_fn = getattr(self.server.service, "trace_document", None)
            if document_fn is not None:
                document = document_fn(trace_id)
            else:
                fragment = self._local_fragment(trace_id)
                document = (
                    stitch_fragments([fragment], trace_id=trace_id)
                    if fragment is not None
                    else None
                )
            if document is None or not document.get("traceEvents"):
                self._send(404, {
                    "error_type": "NotFound",
                    "message": f"no events for trace {trace_id!r}",
                })
                return
            self._send(200, document)
            return
        if path == "/v1/events":
            since: Optional[int] = None
            raw_since = self._query().get("since")
            if raw_since is not None:
                try:
                    since = int(raw_since)
                except ValueError:
                    self._send(400, {
                        "error_type": "BadRequest",
                        "message": f"malformed since {raw_since!r}",
                        "exit_code": EXIT_CONFIG,
                    })
                    return
            self._send(200, get_event_log().snapshot(since=since))
            return
        if path.startswith("/v1/artifacts/"):
            digest = path[len("/v1/artifacts/"):]
            # The digest is attacker-controlled URL text; only a
            # well-formed content address may reach the filesystem.
            if not is_valid_digest(digest):
                self._send(404, {
                    "error_type": "NotFound",
                    "message": f"malformed artifact digest {digest!r}",
                })
                return
            # The verified body goes out verbatim.  Recipes are
            # content-addressed in the same namespace: a digest that
            # names no compile artifact may name the transformation
            # recipe one of them recorded.
            store = self.server.service.store
            document = None
            if store is not None:
                document = store.get(digest)
                if document is None:
                    document = store.get_recipe(digest)
            if document is not None:
                self._send_bytes(200, document.body)
                return
            self._send(404, {
                "error_type": "NotFound",
                "message": f"no artifact for digest {digest!r}",
            })
            return
        self._send(404, {
            "error_type": "NotFound",
            "message": f"unknown path {path!r}",
        })

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/v1/cache/clear":
            # clear_cache also drops any in-memory tier (the fleet
            # router's LRU), which a bare store.clear() would leave
            # serving stale hits.
            self._send(200, {"cleared": self.server.service.clear_cache()})
            return
        if path != "/v1/compile":
            self._send(404, {
                "error_type": "NotFound",
                "message": f"unknown path {path!r}",
            })
            return
        try:
            data = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send(400, {
                "error_type": "BadRequest",
                "message": f"malformed JSON body: {exc}",
                "exit_code": EXIT_CONFIG,
            })
            return
        try:
            request = CompileRequest.from_dict(data)
            outcome = self.server.service.compile(request)
        except QueueFullError as exc:
            self._error(503, exc, {"Retry-After": "1"})
            return
        except ReproError as exc:
            # Resolution errors (unknown app/device, malformed IR) are
            # the client's fault: 400, same typed payload as the CLI.
            self._error(400, exc)
            return
        if outcome.status == STATUS_ERROR:
            # Deadline sheds get their own status (504): the router must
            # treat them as final — the caller's budget is spent, so
            # rerouting to another backend would be pure waste — while
            # 422 pipeline failures stay final for a different reason
            # (they are deterministic) and everything 5xx is retryable.
            shed = (
                outcome.error is not None
                and outcome.error.error_type == "DeadlineExceededError"
            )
            self._send_bytes(504 if shed else 422, outcome.to_json_bytes())
            return
        self._send_bytes(200, outcome.to_json_bytes())


def serve_forever(server: ServiceHTTPServer) -> None:
    """Block serving requests until ``server.shutdown()`` or interrupt."""
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()


__all__ = [
    "MAX_BODY_BYTES",
    "ServiceHTTPServer",
    "make_server",
    "serve_forever",
]
