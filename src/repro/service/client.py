"""Thin client for the compile service: one socket transport.

Every request is one ``sendall`` of the request line, headers and body,
and every response is read with the service's one framing
(:mod:`.wire`): the head by a bounded ``readline`` loop, then exactly
``Content-Length`` body bytes (or, without a length, everything up to
EOF).  The client speaks plain ``http://`` only; any other scheme is a
:class:`~repro.errors.RuntimeConfigError` when the client is built.
Two connection modes share the transport: with ``keep_alive=True``
each thread keeps one persistent connection (a stale one is retried
once on a fresh connection); otherwise each request opens one
connection and sends ``Connection: close``.

Transport failures raise :class:`~repro.errors.ServiceError`: a
refused or unresolvable host ("cannot reach"), a socket timeout ("timed
out after Ns"), a reset, a missing status line, a malformed head or a
truncated body ("failed mid-request"), and a body that is not a JSON
object — so a CLI caller always exits 75 with a one-line message, never
a raw traceback.  A 503 from the server's bounded admission queue
raises :class:`~repro.errors.QueueFullError`; a 400 (unknown app,
malformed IR) re-raises as :class:`~repro.errors.RuntimeConfigError` so
``repro submit`` exits with the same code a local ``repro map`` would.
A *typed pipeline failure* (422) is NOT an exception: it returns a
:class:`~repro.service.api.CompileOutcome` whose ``error`` carries the
replayable failure report, which the CLI writes to disk and turns into a
``repro replay-failure`` invocation.

With ``retries > 0`` the client re-issues a request that failed in
transport, sleeping the PR-3 deterministic full-jitter schedule
(:func:`repro.resilience.retry.backoff_delays`) between attempts.
Retrying a compile is safe by construction: requests are content-
addressed, so a retry of a request the server *did* receive lands on
the same digest and is absorbed by the store or the single-flight
table — the pipeline still runs at most once.  HTTP-level errors
(4xx/5xx with a JSON body) are never retried here; they are semantic
answers, and backpressure policy belongs to the caller (the fleet
router reroutes a 503 to the next ring node instead of hammering the
same one).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple, Union
from urllib.parse import urlsplit

from ..errors import QueueFullError, RuntimeConfigError, ServiceError
from ..resilience.retry import backoff_delays
from . import wire
from .api import CompileOutcome, CompileRequest


class _Connection:
    """One connected socket and the buffered reader over it."""

    __slots__ = ("sock", "rfile")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        try:
            self.rfile.close()
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class ServiceClient:
    """JSON-over-HTTP access to one compile server."""

    def __init__(
        self,
        url: str,
        timeout: float = 120.0,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        backoff_seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        keep_alive: bool = False,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.keep_alive = keep_alive
        parsed = urlsplit(self.url)
        try:
            port = parsed.port or 80
        except ValueError:
            port = 0
        if parsed.scheme != "http" or not port:
            raise RuntimeConfigError(
                f"compile service URL {url!r} is not an http:// URL "
                f"(the client speaks plain HTTP only)"
            )
        self._address = (parsed.hostname or "127.0.0.1", port)
        self._host = parsed.netloc
        # Persistent connections are per-thread: one ServiceClient is
        # shared by every dispatcher thread of a fleet backend.
        self._local = threading.local()
        self._delays = backoff_delays(
            retries,
            base_delay=backoff_base_s,
            max_delay=backoff_max_s,
            seed=backoff_seed,
        )
        self._sleep = sleep

    # -- transport -------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One logical request: transport retries happen inside."""
        fields = [("Host", self._host), ("Accept", "application/json")]
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            fields.append(("Content-Type", "application/json"))
        if not self.keep_alive:
            fields.append(("Connection", "close"))
        message = wire.encode_message(
            f"{method} {path} HTTP/1.1", fields, body
        )
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(message)
            except ServiceError:
                if attempt >= self.retries:
                    raise
                self._sleep(self._delays[attempt])
        raise AssertionError("unreachable")  # pragma: no cover

    def _connect(self) -> _Connection:
        try:
            sock = socket.create_connection(self._address, self.timeout)
        except TimeoutError:
            raise ServiceError(
                f"compile service at {self.url} timed out "
                f"after {self.timeout}s"
            )
        except OSError as exc:
            raise ServiceError(
                f"cannot reach compile service at {self.url}: {exc}"
            )
        # A request larger than one segment would otherwise hold its
        # last segment until the server ACKs the ones before it.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _Connection(sock)

    def _release(self, conn: _Connection) -> None:
        if getattr(self._local, "conn", None) is conn:
            self._local.conn = None
        conn.close()

    def close(self) -> None:
        """Close this thread's persistent connection (if any)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._release(conn)

    def _request_once(self, message: bytes) -> Tuple[int, Dict[str, Any]]:
        """Send one encoded request and read its response.

        With ``keep_alive`` the thread's connection is reused.  The
        server may close an idle one between our requests, which
        surfaces as an immediate failure on first reuse — retried once
        on a fresh connection (safe even for POST: compile requests are
        content-addressed, so a replay is absorbed by the store or the
        single-flight table).
        """
        for attempt in range(2):
            conn = getattr(self._local, "conn", None)
            reused = conn is not None
            if conn is None:
                conn = self._connect()
                if self.keep_alive:
                    self._local.conn = conn
            try:
                status, raw, closes = self._exchange(conn, message)
            except TimeoutError:
                self._release(conn)
                raise ServiceError(
                    f"compile service at {self.url} timed out "
                    f"after {self.timeout}s"
                )
            except (OSError, wire.FramingError) as exc:
                self._release(conn)
                if reused and attempt == 0:
                    continue  # stale keep-alive connection; go fresh
                raise ServiceError(
                    f"connection to compile service at {self.url} failed "
                    f"mid-request: {type(exc).__name__}: {exc}"
                )
            if closes or not self.keep_alive:
                self._release(conn)
            return status, self._decode(raw)
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _exchange(
        conn: _Connection, message: bytes
    ) -> Tuple[int, bytes, bool]:
        """(status, body, server closes) for one request on ``conn``."""
        conn.sock.sendall(message)
        start, fields = wire.read_head(conn.rfile)
        version, _, rest = start.partition(" ")
        code = rest[:3]
        if not (
            version.startswith("HTTP/") and code.isascii() and code.isdigit()
        ):
            raise wire.FramingError(f"malformed status line {start[:64]!r}")
        length = wire.body_length(fields)
        if length is None:
            return int(code), conn.rfile.read(), True
        closes = fields.get("connection", "").lower() == "close"
        return int(code), wire.read_body(conn.rfile, length), closes

    def _decode(self, raw: bytes) -> Dict[str, Any]:
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(
                f"compile service at {self.url} returned a non-JSON "
                f"response: {exc}"
            )
        if not isinstance(data, dict):
            raise ServiceError(
                f"compile service at {self.url} returned "
                f"{type(data).__name__}, expected an object"
            )
        return data

    # -- endpoints -------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        status, data = self._request("GET", "/v1/healthz")
        if status != 200 or not data.get("ok"):
            raise ServiceError(
                f"compile service at {self.url} is unhealthy "
                f"(status {status}): {data}"
            )
        return data

    def health_detail(self) -> Dict[str, Any]:
        """The ``/v1/health`` payload (liveness + queue depth/saturation).

        This is the probe the fleet's breaker-driving prober issues:
        unreachable, draining (``ok: false``), or pre-health servers all
        raise :class:`~repro.errors.ServiceError` — one typed "this
        backend is not serving" signal.
        """
        status, data = self._request("GET", "/v1/health")
        if status != 200 or not data.get("ok"):
            raise ServiceError(
                f"compile service at {self.url} failed its health probe "
                f"(status {status}): {data}"
            )
        return data

    def stats(self) -> Dict[str, Any]:
        status, data = self._request("GET", "/v1/stats")
        if status != 200:
            raise ServiceError(
                f"stats request failed with status {status}: {data}"
            )
        return data

    def metrics(self) -> Dict[str, Any]:
        """The ``/v1/metrics`` scrape payload.

        ``{"enabled": true, "metrics": ...}`` from a plain server: the
        counters ``/v1/stats`` reports, as registry metrics, merged with
        the server's process registry.  A fleet front-end answers
        ``{"enabled": true, "fleet": ...}``, the router's and every
        backend's snapshot merged.
        """
        status, data = self._request("GET", "/v1/metrics")
        if status != 200:
            raise ServiceError(
                f"metrics scrape failed with status {status}: {data}"
            )
        return data

    def trace(
        self, trace_id: str, raw: bool = False
    ) -> Optional[Dict[str, Any]]:
        """One trace by id: stitched document, or the unstitched
        per-process fragment with ``raw=True``.  ``None`` when the
        server has no events for that id (or the id is malformed)."""
        suffix = "?raw=1" if raw else ""
        status, data = self._request("GET", f"/v1/trace/{trace_id}{suffix}")
        if status == 404:
            return None
        if status != 200:
            raise ServiceError(
                f"trace request failed with status {status}: {data}"
            )
        return data

    def events(self, since: Optional[int] = None) -> Dict[str, Any]:
        """The structured event-log snapshot (``since`` filters by
        sequence number for incremental follows)."""
        suffix = f"?since={int(since)}" if since is not None else ""
        status, data = self._request("GET", f"/v1/events{suffix}")
        if status != 200:
            raise ServiceError(
                f"events request failed with status {status}: {data}"
            )
        return data

    def artifact(self, digest: str) -> Optional[Dict[str, Any]]:
        status, data = self._request("GET", f"/v1/artifacts/{digest}")
        if status == 404:
            return None
        if status != 200:
            raise ServiceError(
                f"artifact request failed with status {status}: {data}"
            )
        return data

    def clear_cache(self) -> int:
        status, data = self._request("POST", "/v1/cache/clear", payload={})
        if status != 200:
            raise ServiceError(
                f"cache clear failed with status {status}: {data}"
            )
        return int(data.get("cleared", 0))

    def compile(
        self, request: Union[CompileRequest, Dict[str, Any]]
    ) -> CompileOutcome:
        payload = (
            request.to_dict()
            if isinstance(request, CompileRequest)
            else request
        )
        status, data = self._request("POST", "/v1/compile", payload=payload)
        if status in (200, 422, 504):
            # 504 is the typed deadline-shed outcome: like 422 it is a
            # semantic answer (the caller's budget is spent), not a
            # transport failure — never retried, never an exception.
            return CompileOutcome.from_dict(data)
        message = data.get("message", str(data))
        if status == 503:
            raise QueueFullError(message)
        if status == 400:
            raise RuntimeConfigError(message)
        raise ServiceError(
            f"compile request failed with status {status}: {message}"
        )
