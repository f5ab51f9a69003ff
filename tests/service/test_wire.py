"""The one HTTP framing both ends share: head limits, connection
semantics, interim replies, one write per message, no ``email`` parse."""

import json
import socket
import threading

import pytest

from repro.errors import RuntimeConfigError, ServiceError
from repro.service import (
    STATUS_HIT,
    STATUS_MISS,
    CompileRequest,
    CompileService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.http import make_server, serve_forever
from repro.service.store import CompileArtifact


def fake_artifact(digest: str) -> CompileArtifact:
    return CompileArtifact(
        digest=digest,
        program="fake",
        strategy="multidim",
        device="Tesla K20c",
        cost={"total_us": 1.0, "kernels": []},
    )


@pytest.fixture
def served(tmp_path):
    """A live server on an ephemeral port, with a fast fake compiler."""
    service = CompileService(
        ServiceConfig(workers=1, cache_dir=str(tmp_path / "cache")),
        compile_fn=lambda req, digest: fake_artifact(digest),
    )
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=serve_forever, args=(server,))
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        service.close()


def request(**sizes) -> CompileRequest:
    return CompileRequest(app="sumRows", sizes=sizes or {"R": 64, "C": 32})


class Raw:
    """One raw client connection to a server."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self):
        """(status, lowercased fields, body) of the next response."""
        status_line = self.rfile.readline().decode("latin-1")
        assert status_line.startswith("HTTP/1.1 "), status_line
        fields = {}
        while True:
            line = self.rfile.readline().decode("latin-1")
            if line in ("\r\n", ""):
                break
            name, _, value = line.partition(":")
            fields[name.lower()] = value.strip()
        body = self.rfile.read(int(fields.get("content-length", 0)))
        return int(status_line.split()[1]), fields, body

    def closed(self) -> bool:
        """True when the server has closed its end: EOF, or a reset when
        it closed with request bytes still unread."""
        try:
            return self.rfile.read() == b""
        except ConnectionResetError:
            return True

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


@pytest.fixture
def raw(served):
    connections = []

    def connect():
        connection = Raw(served.port)
        connections.append(connection)
        return connection

    yield connect
    for connection in connections:
        connection.close()


def compile_message(fields: str = "") -> bytes:
    body = json.dumps(request().to_dict()).encode()
    return (
        f"POST /v1/compile HTTP/1.1\r\nHost: x\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{fields}\r\n"
    ).encode() + body


class TestServerHead:
    def test_100_fields_pass_101_are_431_and_close(self, raw):
        ok = raw()
        ok.send(
            b"GET /v1/healthz HTTP/1.1\r\n" + b"X-F: 1\r\n" * 100 + b"\r\n"
        )
        assert ok.response()[0] == 200
        conn = raw()
        conn.send(
            b"GET /v1/healthz HTTP/1.1\r\n" + b"X-F: 1\r\n" * 101 + b"\r\n"
        )
        assert conn.response()[0] == 431
        assert conn.closed()

    def test_overlong_field_line_is_431_and_close(self, raw):
        conn = raw()
        conn.send(
            b"GET /v1/healthz HTTP/1.1\r\nX-Big: "
            + b"a" * 65536 + b"\r\n\r\n"
        )
        assert conn.response()[0] == 431
        assert conn.closed()

    @pytest.mark.parametrize(
        "line",
        [b"No-colon-here\r\n", b" folded: value\r\n", b"Name : value\r\n"],
        ids=["no-colon", "folded", "space-before-colon"],
    )
    def test_malformed_field_line_is_400_and_close(self, raw, line):
        conn = raw()
        conn.send(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n" + line + b"\r\n")
        assert conn.response()[0] == 400
        assert conn.closed()

    def test_field_names_match_in_any_case(self, raw):
        conn = raw()
        body = json.dumps(request().to_dict()).encode()
        conn.send(
            b"POST /v1/compile HTTP/1.1\r\ncONTENT-lENGTH: "
            + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        status, fields, data = conn.response()
        assert status == 200
        assert json.loads(data)["status"] == STATUS_MISS
        conn.send(b"GET /v1/healthz HTTP/1.1\r\nCONNECTION: Close\r\n\r\n")
        assert conn.response()[0] == 200
        assert conn.closed()

    def test_connection_close_closes_after_the_response(self, raw):
        conn = raw()
        conn.send(compile_message("Connection: close\r\n"))
        status, fields, data = conn.response()
        assert status == 200 and fields["connection"] == "close"
        assert json.loads(data)["digest"]
        assert conn.closed()

    def test_http_1_0_closes_unless_keep_alive(self, raw):
        bare = raw()
        bare.send(b"GET /v1/healthz HTTP/1.0\r\n\r\n")
        assert bare.response()[0] == 200
        assert bare.closed()
        kept = raw()
        for _ in range(2):
            kept.send(
                b"GET /v1/healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            )
            status, fields, _ = kept.response()
            assert status == 200 and "connection" not in fields

    def test_http_2_is_505(self, raw):
        conn = raw()
        conn.send(b"GET /v1/healthz HTTP/2.0\r\n\r\n")
        assert conn.response()[0] == 505
        assert conn.closed()

    @pytest.mark.parametrize(
        "lengths, status",
        [
            (["abc"], 400),
            (["-1"], 400),
            (["9" * 5000], 400),
            (["2", "3"], 400),
            ([str(17 * 1024 * 1024)], 413),
        ],
        ids=["text", "negative", "huge", "repeated", "over-limit"],
    )
    def test_bad_content_length_is_refused_and_closed(
        self, raw, lengths, status
    ):
        conn = raw()
        fields = "".join(f"Content-Length: {n}\r\n" for n in lengths)
        conn.send(f"POST /v1/compile HTTP/1.1\r\n{fields}\r\n{{}}".encode())
        assert conn.response()[0] == status
        assert conn.closed()

    def test_transfer_encoding_is_refused_and_closed(self, raw):
        conn = raw()
        conn.send(
            b"POST /v1/compile HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
            b"\r\n2\r\n{}\r\n0\r\n\r\n"
        )
        assert conn.response()[0] in (400, 411)
        assert conn.closed()

    def test_expect_100_continue_gets_interim_reply_before_body(self, raw):
        conn = raw()
        body = json.dumps(request().to_dict()).encode()
        conn.send(
            b"POST /v1/compile HTTP/1.1\r\nExpect: 100-continue\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
        )
        # The interim reply arrives while the body is still unsent.
        assert conn.rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert conn.rfile.readline() == b"\r\n"
        conn.send(body)
        status, _, data = conn.response()
        assert status == 200
        assert json.loads(data)["status"] == STATUS_MISS


class TestKeptAliveBodies:
    """Every declared body is consumed before the answer, so a route
    that ignores its body leaves the connection in step."""

    def test_clear_cache_then_compile_on_one_connection(self, served):
        client = ServiceClient(served.url, keep_alive=True)
        try:
            assert client.compile(request()).status == STATUS_MISS
            conn = client._local.conn
            assert client.clear_cache() == 1
            assert client.compile(request()).status == STATUS_MISS
            assert client._local.conn is conn
        finally:
            client.close()

    def test_unknown_post_then_compile_on_one_connection(self, served):
        client = ServiceClient(served.url, keep_alive=True)
        try:
            status, data = client._request(
                "POST", "/v1/nowhere", payload={"pad": "x" * 100}
            )
            assert status == 404 and data["error_type"] == "NotFound"
            conn = client._local.conn
            assert client.compile(request()).status == STATUS_MISS
            assert client._local.conn is conn
        finally:
            client.close()


class ScriptedResponse:
    """A raw server that answers every request with fixed bytes and
    then closes the connection."""

    def __init__(self, response: bytes):
        self.response = response
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _ = self._sock.accept()
        except OSError:
            return
        with conn:
            conn.recv(65536)
            conn.sendall(self.response)

    def close(self):
        self._sock.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


class TestClientFraming:
    @pytest.mark.parametrize("keep_alive", [False, True])
    def test_response_without_length_is_read_to_eof(self, keep_alive):
        server = ScriptedResponse(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n"
            b'{"ok": true, "version": "x"}'
        )
        try:
            client = ServiceClient(
                server.url, timeout=5, keep_alive=keep_alive
            )
            assert client.health() == {"ok": True, "version": "x"}
            assert getattr(client._local, "conn", None) is None
        finally:
            server.close()

    def test_transfer_encoding_response_is_service_error(self):
        server = ScriptedResponse(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n"
        )
        try:
            client = ServiceClient(server.url, timeout=5)
            with pytest.raises(ServiceError, match="failed mid-request"):
                client.health()
        finally:
            server.close()

    @pytest.mark.parametrize(
        "url", ["https://127.0.0.1:8077", "ftp://127.0.0.1", "127.0.0.1:80"]
    )
    def test_non_http_url_is_a_config_error(self, url):
        with pytest.raises(RuntimeConfigError, match="http://"):
            ServiceClient(url)


class TestOneWritePerMessage:
    def test_request_and_response_are_one_write_each(
        self, served, monkeypatch
    ):
        client = ServiceClient(served.url, keep_alive=True)
        try:
            client.health()  # connect outside the counted window
            writes = []
            original = socket.socket.sendall

            def counting(sock, data, *args):
                writes.append((threading.get_ident(), len(data)))
                return original(sock, data, *args)

            monkeypatch.setattr(socket.socket, "sendall", counting)
            outcome = client.compile(request())
            monkeypatch.undo()
        finally:
            client.close()
        assert outcome.status == STATUS_MISS
        main = threading.get_ident()
        sent = [n for ident, n in writes if ident == main]
        answered = [n for ident, n in writes if ident != main]
        assert len(sent) == 1, writes
        assert len(answered) == 1, writes


class TestNoEmailParse:
    def test_round_trips_never_call_parse_headers(self, served, monkeypatch):
        import http.client

        def refuse(*args, **kwargs):
            raise AssertionError("http.client.parse_headers was called")

        monkeypatch.setattr(http.client, "parse_headers", refuse)
        kept = ServiceClient(served.url, keep_alive=True)
        try:
            assert kept.compile(request()).status == STATUS_MISS
            assert kept.compile(request()).status == STATUS_HIT
        finally:
            kept.close()
        assert ServiceClient(served.url).health()["ok"] is True
