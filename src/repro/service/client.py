"""Thin stdlib client for the compile service.

Transport failures (server down, timeout, connection reset mid-read, a
half-closed response, non-JSON body) raise
:class:`~repro.errors.ServiceError` — every escape hatch the socket
layer has is mapped onto the one typed error, so a CLI caller always
exits 75 with a one-line message, never a raw traceback; a 503 from the
server's bounded admission queue raises
:class:`~repro.errors.QueueFullError`; a 400 (unknown app, malformed IR)
re-raises as :class:`~repro.errors.RuntimeConfigError` so ``repro
submit`` exits with the same code a local ``repro map`` would.  A *typed
pipeline failure* (422) is NOT an exception: it returns a
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

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..errors import QueueFullError, RuntimeConfigError, ServiceError
from ..resilience.retry import backoff_delays
from .api import CompileOutcome, CompileRequest


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
        parsed = urllib.parse.urlsplit(self.url)
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        # Persistent connections are per-thread: http.client connections
        # are not thread-safe, and one ServiceClient is shared by every
        # dispatcher thread of a fleet backend.
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
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(method, path, payload)
            except ServiceError:
                if attempt >= self.retries:
                    raise
                self._sleep(self._delays[attempt])
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.keep_alive:
            return self._request_persistent(method, path, body, headers)
        request = urllib.request.Request(
            f"{self.url}{path}", data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.status, self._decode(response.read())
        except urllib.error.HTTPError as exc:
            # 4xx/5xx still carry a JSON payload we want to interpret;
            # reading it can itself die on a shutting-down server.
            try:
                raw = exc.read()
            except (OSError, http.client.HTTPException) as read_exc:
                raise ServiceError(
                    f"compile service at {self.url} dropped the "
                    f"connection mid-response: {read_exc}"
                )
            return exc.code, self._decode(raw)
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach compile service at {self.url}: {exc.reason}"
            )
        except TimeoutError:
            raise ServiceError(
                f"compile service at {self.url} timed out "
                f"after {self.timeout}s"
            )
        except (OSError, http.client.HTTPException) as exc:
            # Everything urllib does NOT wrap: a connection reset while
            # reading the body, a server that accepted then closed
            # without a status line (RemoteDisconnected), a truncated
            # Content-Length (IncompleteRead).  All of these are "the
            # server went away mid-request" — one typed, retryable error.
            raise ServiceError(
                f"connection to compile service at {self.url} failed "
                f"mid-request: {type(exc).__name__}: {exc}"
            )

    # -- persistent transport (keep_alive=True) --------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.conn = conn
        if conn.sock is None:
            conn.connect()
            # Request line/headers and body are separate writes; without
            # TCP_NODELAY, Nagle would stall the second one on a reused
            # connection waiting for the server's delayed ACK.
            conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def close(self) -> None:
        """Close this thread's persistent connection (if any)."""
        self._drop_connection()

    def _request_persistent(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[int, Dict[str, Any]]:
        """One request over a reused connection.

        Error mapping mirrors the urllib path exactly.  The one extra
        case keep-alive introduces: the server may close an idle
        connection between our requests, which surfaces as an
        immediate failure on first reuse — retried once on a fresh
        connection (safe even for POST: compile requests are
        content-addressed, so a replay is absorbed by the store or the
        single-flight table).
        """
        for attempt in range(2):
            cached = getattr(self._local, "conn", None)
            reused = cached is not None and cached.sock is not None
            try:
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                status = response.status
                raw = response.read()
            except (ConnectionRefusedError, socket.gaierror) as exc:
                self._drop_connection()
                raise ServiceError(
                    f"cannot reach compile service at {self.url}: {exc}"
                )
            except TimeoutError:
                self._drop_connection()
                raise ServiceError(
                    f"compile service at {self.url} timed out "
                    f"after {self.timeout}s"
                )
            except (OSError, http.client.HTTPException) as exc:
                self._drop_connection()
                if reused and attempt == 0:
                    continue  # stale keep-alive connection; go fresh
                raise ServiceError(
                    f"connection to compile service at {self.url} failed "
                    f"mid-request: {type(exc).__name__}: {exc}"
                )
            if response.will_close:
                self._drop_connection()
            return status, self._decode(raw)
        raise AssertionError("unreachable")  # pragma: no cover

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
