"""Wire types for the compile service: requests and outcomes.

A :class:`CompileRequest` names *what* to compile — a registered app or a
serialized IR program, plus size bindings, a device, a strategy, and
optimization flags.  Requests serialize to plain JSON (the HTTP body) and
resolve server-side into the concrete pipeline inputs.  A request
resolves and canonicalizes once: :meth:`CompileRequest.digest` hashes
the canonical program dict (see
:func:`repro.ir.serialize.compile_digest`) into the content address
every cache layer keys on, and keeps the canonical
``(program, device, sizes)`` built from that same dict, so the miss
that follows compiles exactly what was hashed without resolving again.

A :class:`CompileOutcome` is what a requester gets back: the digest, how
the request was served (``hit`` / ``miss`` / ``coalesced`` / ``error``),
the artifact on success, and a typed error — carrying the replayable
failure report when one was attached — on failure.  The artifact travels
as a :class:`~repro.service.store.StoredDocument`, and
:meth:`CompileOutcome.to_json_bytes` splices its body into the response
without parsing or re-encoding it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..analysis.cache import LRUCache
from ..errors import IRError, RuntimeConfigError
from ..gpusim.device import DEVICES, GpuDevice, default_device
from ..ir.patterns import Program
from ..ir.serialize import (
    canonical_digest,
    canonical_program_dict,
    program_from_dict,
    program_to_dict,
)
from ..optim.pipeline import OptimizationFlags
from .store import StoredDocument

#: How one request was served.
STATUS_HIT = "hit"                # served from the artifact store
STATUS_MISS = "miss"              # this request ran the pipeline
STATUS_COALESCED = "coalesced"    # single-flighted onto an in-flight miss
STATUS_ERROR = "error"            # the pipeline raised a typed error

#: Request-JSON -> compile digest.  Hashing a request means building the
#: IR program, canonicalizing it and hashing it: a median of 0.57 ms per
#: paper app at default sizes (0.60 ms as a ``program_ir`` request; 2-vCPU
#: x86 host) that the router front-end would otherwise pay on *every*
#: submit of the warm path.  The digest is a pure function of the request
#: content, so a small process-wide LRU makes repeat submissions (the
#: warm case by definition) cost one JSON dump instead (0.02 ms; 0.11 ms
#: for a ``program_ir`` request, whose JSON holds the program).  The key
#: is the SHA-256 hex of that JSON, so an entry holds 64 characters, not
#: a serialized program.
_DIGEST_MEMO = LRUCache(1024)


def clear_digest_memo() -> None:
    """Drop the request-digest memo (tests, benchmarks)."""
    _DIGEST_MEMO.clear()


@dataclass
class CompileRequest:
    """One compilation request.  Exactly one of ``app``/``program_ir``."""

    app: Optional[str] = None
    program_ir: Optional[Dict[str, Any]] = None
    sizes: Dict[str, int] = field(default_factory=dict)
    strategy: str = "multidim"
    device: Optional[str] = None
    flags: OptimizationFlags = field(default_factory=OptimizationFlags)
    #: Remaining request budget in seconds, relative to the moment the
    #: request is (re)serialized.  Carried on the wire so every hop —
    #: router failover, backend admission queue, worker pickup — can shed
    #: expired work with a typed 504-style outcome instead of compiling
    #: it pointlessly.  ``None`` means no deadline.  Deliberately *not*
    #: part of the compile digest: the same program compiled under a
    #: different budget is the same artifact.
    deadline_s: Optional[float] = None
    #: Distributed trace context (W3C-traceparent shape): the 32-hex
    #: trace id this request belongs to and the 16-hex span id of the
    #: caller's active span.  Carried on the wire so a backend's spans
    #: parent onto the router's dispatch span and the per-process
    #: fragments stitch into one trace.  Like ``deadline_s``, trace
    #: context is *not* part of the compile digest: the same program
    #: observed under a different trace is the same artifact.
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.app is None) == (self.program_ir is None):
            raise RuntimeConfigError(
                "compile request needs exactly one of 'app' (a registered "
                "application name) or 'program_ir' (a serialized program)"
            )
        if self.deadline_s is not None:
            # Non-positive budgets are legal on the wire (a hop may
            # forward an already-spent budget; the receiver sheds).
            self.deadline_s = float(self.deadline_s)
        #: ``(digest, program, device, sizes)`` as :meth:`digest` hashed
        #: them; not a field, so neither a constructor argument nor wire.
        self._resolved: Optional[Tuple[Any, ...]] = None

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "sizes": {k: int(v) for k, v in self.sizes.items()},
            "strategy": self.strategy,
            "flags": self.flags.to_dict(),
        }
        if self.app is not None:
            data["app"] = self.app
        if self.program_ir is not None:
            data["program_ir"] = self.program_ir
        if self.device is not None:
            data["device"] = self.device
        if self.deadline_s is not None:
            data["deadline_s"] = self.deadline_s
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        if self.parent_span_id is not None:
            data["parent_span_id"] = self.parent_span_id
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompileRequest":
        if not isinstance(data, dict):
            raise RuntimeConfigError(
                f"compile request must be a JSON object, got {type(data).__name__}"
            )
        flags_data = data.get("flags") or {}
        if not isinstance(flags_data, dict):
            raise RuntimeConfigError("'flags' must be an object of booleans")
        flags = OptimizationFlags.from_dict(flags_data)
        sizes_data = data.get("sizes") or {}
        try:
            sizes = {str(k): int(v) for k, v in sizes_data.items()}
        except (AttributeError, TypeError, ValueError):
            raise RuntimeConfigError(
                "'sizes' must be an object of integer bindings"
            )
        deadline_s = data.get("deadline_s")
        if deadline_s is not None:
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                raise RuntimeConfigError(
                    "'deadline_s' must be a number of seconds"
                )
        trace_id = data.get("trace_id")
        parent_span_id = data.get("parent_span_id")
        if trace_id is not None and not isinstance(trace_id, str):
            raise RuntimeConfigError("'trace_id' must be a string")
        if parent_span_id is not None and not isinstance(parent_span_id, str):
            raise RuntimeConfigError("'parent_span_id' must be a string")
        for name in ("app", "device"):
            if data.get(name) is not None and not isinstance(data[name], str):
                raise RuntimeConfigError(f"'{name}' must be a string")
        program_ir = data.get("program_ir")
        if program_ir is not None and not isinstance(program_ir, dict):
            raise RuntimeConfigError(
                "'program_ir' must be an object (a serialized program)"
            )
        return cls(
            app=data.get("app"),
            program_ir=program_ir,
            sizes=sizes,
            strategy=str(data.get("strategy", "multidim")),
            device=data.get("device"),
            flags=flags,
            deadline_s=deadline_s,
            trace_id=trace_id,
            parent_span_id=parent_span_id,
        )

    def with_deadline(
        self, deadline_s: Optional[float]
    ) -> "CompileRequest":
        """A copy carrying ``deadline_s`` as its remaining budget — how a
        forwarding hop (the fleet router) rebases the caller's deadline
        onto the wire for the next hop."""
        return self._replace(deadline_s=deadline_s)

    def with_trace(
        self, trace_id: Optional[str], parent_span_id: Optional[str]
    ) -> "CompileRequest":
        """A copy carrying distributed trace context — how a forwarding
        hop stamps its own dispatch span as the next hop's parent."""
        return self._replace(trace_id=trace_id, parent_span_id=parent_span_id)

    def _replace(self, **changes: Any) -> "CompileRequest":
        # Deadline and trace context are outside the digest: the copy
        # keeps the resolution for an in-process next hop to compile.
        copy = replace(self, **changes)
        copy._resolved = self._resolved
        return copy

    # -- resolution ------------------------------------------------------

    def resolve_device(self) -> GpuDevice:
        if self.device is None:
            return default_device()
        try:
            return DEVICES[self.device]
        except KeyError:
            # Device names contain spaces ("Tesla K20c"); fold case so
            # the wire format can use any casing.
            folded = {name.lower(): dev for name, dev in DEVICES.items()}
            try:
                return folded[self.device.lower()]
            except KeyError:
                known = ", ".join(sorted(DEVICES))
                raise RuntimeConfigError(
                    f"unknown device {self.device!r}; known: {known}"
                )

    def resolve(self) -> Tuple[Program, GpuDevice, Dict[str, int]]:
        """Build the concrete pipeline inputs.

        App requests merge the request's sizes over the app's defaults;
        IR requests use the request's sizes as the full binding set.
        Raises :class:`~repro.errors.RuntimeConfigError` (or a typed
        :class:`~repro.errors.IRError` for malformed IR) on bad input.
        """
        device = self.resolve_device()
        if self.app is not None:
            from ..apps import merge_params, resolve_app

            app = resolve_app(self.app)
            program = app.build()
            sizes = merge_params(app, self.sizes)
        else:
            try:
                program = program_from_dict(self.program_ir)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                # A field missing, or of the wrong JSON type or shape.
                raise IRError(
                    f"malformed program_ir: {type(exc).__name__}: {exc}"
                )
            sizes = dict(self.sizes)
        return program, device, sizes

    def digest(self) -> str:
        """The content address of this request (see
        :func:`~repro.ir.serialize.compile_digest`), memoized on the
        request content.  Resolution errors are never cached.

        On a memo miss the request resolves and canonicalizes once, and
        keeps what it hashed for :meth:`compile_inputs`.

        The deadline and trace context are excluded from the memo key:
        budgets and trace ids vary call to call while the digest — a
        pure function of *what* to compile — does not, and a
        per-deadline (or per-trace) key would defeat the memo on the
        warm path it exists for."""
        content = self.to_dict()
        content.pop("deadline_s", None)
        content.pop("trace_id", None)
        content.pop("parent_span_id", None)
        key = hashlib.sha256(
            json.dumps(content, sort_keys=True).encode("utf-8")
        ).hexdigest()
        cached = _DIGEST_MEMO.get(key)
        if cached is not None:
            return cached
        digest = self._canonicalize()[0]
        _DIGEST_MEMO.put(key, digest)
        return digest

    def compile_inputs(
        self, digest: str
    ) -> Tuple[Program, GpuDevice, Dict[str, int]]:
        """The canonical ``(program, device, sizes)`` behind ``digest``:
        what :meth:`digest` kept, or a fresh resolve when the digest came
        from the memo."""
        if self._resolved is not None and self._resolved[0] == digest:
            return self._resolved[1:]
        return self._canonicalize()[1:]

    def _canonicalize(self) -> Tuple[Any, ...]:
        """Resolve, build the canonical program dict once, hash it, and
        build the compile form from that same dict; kept in
        ``_resolved``."""
        program, device, sizes = self.resolve()
        data = canonical_program_dict(program)
        digest = canonical_digest(
            data,
            device=device,
            flags=self.flags,
            strategy=self.strategy,
            sizes=sizes,
        )
        self._resolved = (digest, program_from_dict(data), device, sizes)
        return self._resolved


def request_for_program(
    program: Program,
    sizes: Optional[Dict[str, int]] = None,
    strategy: str = "multidim",
    device: Optional[str] = None,
    flags: Optional[OptimizationFlags] = None,
) -> CompileRequest:
    """Convenience: wrap an in-memory program as a serialized request."""
    return CompileRequest(
        program_ir=program_to_dict(program),
        sizes=dict(sizes or {}),
        strategy=strategy,
        device=device,
        flags=flags if flags is not None else OptimizationFlags.default(),
    )


@dataclass
class CompileError:
    """A typed pipeline failure, serializable across the wire."""

    error_type: str
    message: str
    exit_code: int
    failure_report: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "error_type": self.error_type,
            "message": self.message,
            "exit_code": self.exit_code,
        }
        if self.failure_report is not None:
            data["failure_report"] = self.failure_report
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompileError":
        return cls(
            error_type=data.get("error_type", "ReproError"),
            message=data.get("message", ""),
            exit_code=int(data.get("exit_code", 70)),
            failure_report=data.get("failure_report"),
        )


class CompileOutcome:
    """What the service hands back for one request.

    ``artifact`` may be given as a dict or as a
    :class:`~repro.service.store.StoredDocument`; each form is derived
    from the other on first use.  :attr:`document` is the body-bytes
    form the wire and the router LRU carry, and :attr:`artifact` is a
    plain dict.
    """

    def __init__(
        self,
        digest: str,
        status: str,
        artifact: Optional[Mapping[str, Any]] = None,
        error: Optional[CompileError] = None,
        latency_ms: float = 0.0,
        served_by: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.digest = digest
        self.status = status
        self.error = error
        #: Wall time from admission to completion, as observed server-side.
        self.latency_ms = latency_ms
        #: Which fleet backend produced this outcome (``None`` when it was
        #: served by a single-process service or a router cache tier).
        self.served_by = served_by
        #: The distributed trace this request was recorded under; feed it
        #: to ``repro fleet trace <trace_id>`` for the stitched timeline.
        self.trace_id = trace_id
        stored = isinstance(artifact, StoredDocument)
        self._document: Optional[StoredDocument] = artifact if stored else None
        self._artifact: Optional[Dict[str, Any]] = None if stored else artifact

    def __repr__(self) -> str:
        return (
            f"CompileOutcome(digest={self.digest!r}, status={self.status!r}, "
            f"error={self.error!r}, served_by={self.served_by!r})"
        )

    @property
    def ok(self) -> bool:
        return self.status != STATUS_ERROR

    @property
    def cached(self) -> bool:
        return self.status == STATUS_HIT

    @property
    def document(self) -> Optional[StoredDocument]:
        """The artifact as canonical JSON bytes (encoded from the dict
        form at most once)."""
        if self._document is None and self._artifact is not None:
            self._document = StoredDocument.encode(self._artifact)
        return self._document

    @property
    def artifact(self) -> Optional[Dict[str, Any]]:
        """The artifact as a plain dict (parsed from the body at most
        once, leaving a shared document unparsed)."""
        if self._artifact is None and self._document is not None:
            self._artifact = self._document.to_dict()
        return self._artifact

    def _envelope(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "digest": self.digest,
            "status": self.status,
            "latency_ms": self.latency_ms,
        }
        if self.error is not None:
            data["error"] = self.error.to_dict()
        if self.served_by is not None:
            data["served_by"] = self.served_by
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        return data

    def to_dict(self) -> Dict[str, Any]:
        data = self._envelope()
        if self.artifact is not None:
            data["artifact"] = self.artifact
        return data

    def to_json_bytes(self) -> bytes:
        """:meth:`to_dict` as JSON bytes, with the document's body
        spliced in verbatim as the ``artifact`` value."""
        envelope = json.dumps(self._envelope()).encode("utf-8")
        document = self.document
        if document is None:
            return envelope
        # The envelope always has keys, so it ends in "}" after a value.
        return envelope[:-1] + b', "artifact": ' + document.body + b"}"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompileOutcome":
        error = data.get("error")
        return cls(
            digest=data.get("digest", ""),
            status=data.get("status", STATUS_ERROR),
            artifact=data.get("artifact"),
            error=None if error is None else CompileError.from_dict(error),
            latency_ms=float(data.get("latency_ms", 0.0)),
            served_by=data.get("served_by"),
            trace_id=data.get("trace_id"),
        )
