"""One HTTP/1.1 message framing, shared by the server and the client.

Both ends of the service wire read a message head (start line plus
header fields) with a bounded ``readline`` loop — no ``email`` parser —
and send every message as one buffer (:func:`encode_message`), so each
message is one socket write and wakes the peer once.

The limits are the stdlib's: a line longer than :data:`MAX_LINE` bytes,
or more than :data:`MAX_FIELDS` header fields, is refused with 431.  A
field line without a colon, or one that starts with whitespace (obsolete
line folding), is malformed: 400.  Field names are lowercased, so
lookups ignore case; a repeated field keeps every value, joined with
``", "`` (so two differing ``Content-Length`` values fail to parse).
Bodies are framed by ``Content-Length`` only: a message that carries
``Transfer-Encoding`` is refused.
"""

from __future__ import annotations

from typing import BinaryIO, Dict, Iterable, Optional, Tuple

#: Longest accepted head line, in bytes (``http.client._MAXLINE``).
MAX_LINE = 65536
#: Most header fields accepted in one head (``http.client._MAXHEADERS``).
MAX_FIELDS = 100


class FramingError(ValueError):
    """A message head this framing refuses.

    ``status`` is the HTTP status a server answers with (431 for an
    oversized head, 400 for a malformed one, 411 for a transfer coding).
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class IncompleteMessage(ConnectionError):
    """The peer closed the connection before a message was complete."""


def _read_line(rfile: BinaryIO) -> bytes:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise FramingError(f"head line longer than {MAX_LINE} bytes", 431)
    return line


def read_fields(rfile: BinaryIO) -> Dict[str, str]:
    """Header fields up to the blank line, keyed by lowercased name."""
    fields: Dict[str, str] = {}
    count = 0
    while True:
        line = _read_line(rfile)
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise IncompleteMessage("connection closed inside a message head")
        count += 1
        if count > MAX_FIELDS:
            raise FramingError(f"more than {MAX_FIELDS} header fields", 431)
        if line[:1] in (b" ", b"\t"):
            raise FramingError("folded header line")
        name, colon, value = line.partition(b":")
        if not colon or not name or name[-1:] in (b" ", b"\t"):
            raise FramingError(f"malformed header line {line[:64]!r}")
        key = name.decode("latin-1").lower()
        text = value.decode("latin-1").strip()
        fields[key] = f"{fields[key]}, {text}" if key in fields else text


def read_head(rfile: BinaryIO) -> Tuple[str, Dict[str, str]]:
    """The start line (without its line break) and the header fields."""
    line = _read_line(rfile)
    if not line:
        raise IncompleteMessage("connection closed before a start line")
    return line.decode("latin-1").rstrip("\r\n"), read_fields(rfile)


def body_length(fields: Dict[str, str]) -> Optional[int]:
    """The declared ``Content-Length``, or ``None`` when there is none."""
    if "transfer-encoding" in fields:
        raise FramingError("transfer codings are not supported", 411)
    value = fields.get("content-length")
    if value is None:
        return None
    # 18 digits bounds the int() parse; no real body comes near it.
    if not (value.isascii() and value.isdigit()) or len(value) > 18:
        raise FramingError(f"malformed Content-Length {value[:32]!r}")
    return int(value)


def read_body(rfile: BinaryIO, length: int) -> bytes:
    """Exactly ``length`` body bytes."""
    body = rfile.read(length) if length else b""
    if len(body) < length:
        raise IncompleteMessage(
            f"body ended after {len(body)} of {length} bytes"
        )
    return body


def encode_message(
    start_line: str,
    fields: Iterable[Tuple[str, str]],
    body: Optional[bytes] = None,
) -> bytes:
    """One whole message as one buffer; a body gets its
    ``Content-Length``."""
    head = [start_line]
    head.extend(f"{name}: {value}" for name, value in fields)
    if body is not None:
        head.append(f"Content-Length: {len(body)}")
    head.extend(("", ""))
    return "\r\n".join(head).encode("latin-1") + (body or b"")


__all__ = [
    "MAX_FIELDS",
    "MAX_LINE",
    "FramingError",
    "IncompleteMessage",
    "body_length",
    "encode_message",
    "read_body",
    "read_fields",
    "read_head",
]
