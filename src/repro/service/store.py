"""Persistent content-addressed artifact store.

Artifacts live under ``<root>/objects/<digest[:2]>/<digest>.json``, keyed
by :func:`repro.ir.serialize.compile_digest` (IR, device, flags,
strategy, sizes, pipeline version), so a behavior-changing release
invalidates every stale artifact by construction.  Recipes live under
``<root>/recipes/``, keyed by their own content digest; :meth:`put`
files an artifact's recipe before the artifact.

Every object file is the SHA-256 hex of its body, a newline, then the
body: the :func:`~repro.ir.serialize.canonical_json` of the document.
One writer (:func:`atomic_write`) writes it; one reader serves a
document only if the body hashes to the header, is a JSON object, and
is what its name says (an artifact of :data:`ARTIFACT_VERSION` for that
digest, or a recipe hashing to it).  Anything else is quarantined
(deleted) with a reason from :data:`QUARANTINE_REASONS`, an event and a
``service.store.quarantined`` count, and read as a miss: one bad file
costs a recompile, never an error and never a served edit.

Every read checks the header.  The parse-based checks depend only on
the body bytes and the digest, so they run once per distinct body: the
reader remembers the hash of the last body that passed them for each
digest (at most :data:`VERIFIED_CAPACITY` of them), and a read whose
body hashes to that entry skips them.  A hit hands on a
:class:`StoredDocument`: the verified body bytes, parsed only when a
caller reads a key, so the HTTP layer serves them verbatim.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..analysis.cache import LRUCache
from ..ir.serialize import PIPELINE_VERSION, canonical_json, content_digest

#: Bumped on any incompatible artifact-layout change; loaders check it.
ARTIFACT_VERSION = 1

#: Why a read refused an object file (the ``reason`` of its
#: ``quarantine`` event).
QUARANTINE_REASONS = (
    "hash_mismatch", "not_object", "version_skew", "digest_mismatch",
    "unreadable",
)

#: How many verified body hashes one store remembers (one per digest
#: and tree, about 200 B each); the least recently read is dropped first.
VERIFIED_CAPACITY = 4096

#: The only shape a content address can take: a lowercase hex SHA-256.
#: Everything the store touches on disk derives from a digest, so this
#: is also the path-safety boundary — a digest that matches cannot name
#: anything outside the store's trees.
_DIGEST_RE = re.compile(r"[0-9a-f]{64}")


def is_valid_digest(digest: Any) -> bool:
    """Whether ``digest`` is a well-formed content address."""
    return isinstance(digest, str) and _DIGEST_RE.fullmatch(digest) is not None


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically: a temp file in the
    target directory, then ``os.replace`` (the temp file is unlinked on
    failure).  A reader sees the old file or the new one, never a torn
    write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _encode(document: Dict[str, Any]) -> Tuple[str, bytes]:
    """An object file's bytes, ``<sha256 of body>\\n<body>``, and the
    hash (the document's content digest)."""
    return _frame(canonical_json(document).encode("utf-8"))


def _frame(body: bytes) -> Tuple[str, bytes]:
    digest = hashlib.sha256(body).hexdigest()
    return digest, digest.encode("ascii") + b"\n" + body


class StoredDocument(Mapping):
    """A read-only JSON object held as its canonical JSON ``body``.

    The body is parsed on the first key access and the parse is kept;
    :meth:`to_dict` parses a private copy instead, leaving a shared
    document (a router LRU entry) holding bytes alone.  Compares equal
    to the dict it encodes.
    """

    __slots__ = ("body", "_parsed")

    def __init__(self, body: bytes) -> None:
        self.body = body
        self._parsed: Optional[Dict[str, Any]] = None

    @classmethod
    def encode(cls, document: Dict[str, Any]) -> "StoredDocument":
        """``document`` as a body-only :class:`StoredDocument`."""
        return cls(canonical_json(document).encode("utf-8"))

    def to_dict(self) -> Dict[str, Any]:
        """A fresh dict parsed from the body."""
        return json.loads(self.body)

    def _document(self) -> Dict[str, Any]:
        if self._parsed is None:
            self._parsed = self.to_dict()
        return self._parsed

    def __getitem__(self, key: str) -> Any:
        return self._document()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._document())

    def __len__(self) -> int:
        return len(self._document())

    def __repr__(self) -> str:
        return f"StoredDocument({len(self.body)} bytes)"


@dataclass
class CompileArtifact:
    """Everything worth keeping from one pipeline run."""

    digest: str
    program: str
    strategy: str
    device: str
    sizes: Dict[str, int] = field(default_factory=dict)
    flags: Dict[str, bool] = field(default_factory=dict)
    pipeline_version: int = PIPELINE_VERSION
    #: ``str(mapping)`` per kernel — the chosen mapping decisions.
    mappings: List[str] = field(default_factory=list)
    cuda_source: str = ""
    #: ``{"total_us": ..., "kernels": [{"total_us": ..., <components>}]}``
    cost: Dict[str, Any] = field(default_factory=dict)
    degradations: List[str] = field(default_factory=list)
    #: The mapping-provenance record (``repro explain`` renders it).
    provenance: Optional[Dict[str, Any]] = None
    #: The transformation recipe (``Recipe.to_json()`` form) that built
    #: the plans, and its content digest.  :func:`build_artifact` always
    #: sets both; a kernel whose optimizer degraded appears in the recipe
    #: as a marker entry.
    recipe: Optional[Dict[str, Any]] = None
    recipe_digest: Optional[str] = None
    compile_ms: float = 0.0
    created_at: float = 0.0
    _document: Optional[StoredDocument] = field(
        default=None, init=False, repr=False, compare=False
    )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": ARTIFACT_VERSION,
            "digest": self.digest,
            "program": self.program,
            "strategy": self.strategy,
            "device": self.device,
            "sizes": {k: int(v) for k, v in self.sizes.items()},
            "flags": dict(self.flags),
            "pipeline_version": self.pipeline_version,
            "mappings": list(self.mappings),
            "cuda_source": self.cuda_source,
            "cost": self.cost,
            "degradations": list(self.degradations),
            "provenance": self.provenance,
            "recipe": self.recipe,
            "recipe_digest": self.recipe_digest,
            "compile_ms": self.compile_ms,
            "created_at": self.created_at,
        }

    def document(self) -> StoredDocument:
        """:meth:`to_dict` as a :class:`StoredDocument`, encoded on the
        first call: :meth:`ArtifactStore.put` writes its body and a miss
        serves it, so a compile encodes its artifact once.  An artifact
        is not edited after :func:`build_artifact` returns it."""
        if self._document is None:
            self._document = StoredDocument.encode(self.to_dict())
        return self._document


#: Artifact fields excluded from :func:`artifact_fingerprint`: wall-clock
#: stamps differ run to run, and provenance embeds elapsed search time.
#: Everything else — mappings, CUDA source, cost, flags, versions — must
#: be identical for one digest no matter which process, backend, or fleet
#: member compiled it.
FINGERPRINT_VOLATILE_KEYS = ("compile_ms", "created_at", "provenance")


def artifact_fingerprint(artifact: Any) -> str:
    """Content digest of an artifact's deterministic payload.

    Accepts a :class:`CompileArtifact` or its ``to_dict`` form (a dict
    or a :class:`StoredDocument`).  Two artifacts for the same compile
    digest must fingerprint identically regardless of who compiled them
    — the byte-identity contract the fleet failover tests pin.
    """
    data = (
        artifact.to_dict()
        if isinstance(artifact, CompileArtifact)
        else dict(artifact)
    )
    for key in FINGERPRINT_VOLATILE_KEYS:
        data.pop(key, None)
    return content_digest(data)


def build_artifact(
    digest: str,
    compiled,
    compile_ms: float,
) -> CompileArtifact:
    """Extract the storable artifact from a
    :class:`~repro.runtime.session.CompiledProgram`.

    The cost is checked: a non-finite component raises a typed
    :class:`~repro.errors.SimulationError`, so a poisoned estimate is an
    error outcome and never a stored artifact.  The recipe and the
    provenance record only read what the compile recorded (per-kernel
    recipes, the searches' rankings), so an error while assembling them
    is a bug and escapes: an artifact is never stored with either part
    silently missing.
    """
    cost = compiled.estimate_cost(check=True)
    cost_dict = {
        "total_us": cost.total_us,
        "kernels": [
            {"total_us": k.total_us, **k.components()} for k in cost.kernels
        ],
    }
    recipe = compiled.recipe()
    return CompileArtifact(
        digest=digest,
        program=compiled.program.name,
        strategy=str(compiled.strategy),
        device=compiled.device.name,
        sizes=dict(compiled.size_hints),
        flags=compiled.flags.to_dict(),
        mappings=[str(d.mapping) for d in compiled.decisions],
        cuda_source=compiled.cuda_source,
        cost=cost_dict,
        degradations=list(compiled.degradations),
        provenance=compiled.provenance().to_dict(),
        recipe=recipe.to_json(),
        recipe_digest=recipe.content_digest(),
        compile_ms=compile_ms,
        created_at=time.time(),
    )


class ArtifactStore:
    """On-disk content-addressed store; safe for concurrent processes."""

    def __init__(self, root: str) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        # Recipes get their own subtree: the reader checks each tree's
        # files against that tree's rules.
        self.recipes = self.root / "recipes"
        self.recipes.mkdir(parents=True, exist_ok=True)
        #: ``(tree name, digest)`` -> header of the last body that
        #: passed every check.
        self._verified = LRUCache(VERIFIED_CAPACITY)

    @staticmethod
    def _file(tree: Path, digest: str) -> Path:
        if not is_valid_digest(digest):
            raise ValueError(f"malformed digest {digest!r}")
        return tree / digest[:2] / f"{digest}.json"

    def _path(self, digest: str) -> Path:
        return self._file(self.objects, digest)

    def _recipe_path(self, digest: str) -> Path:
        return self._file(self.recipes, digest)

    # -- the one writer and the one reader --------------------------------

    def put(self, artifact: CompileArtifact) -> Path:
        """Persist one artifact, after the recipe it embeds; returns the
        artifact's path.  Raises :class:`ValueError`, writing nothing, on
        a malformed digest or a ``recipe_digest`` that is not the
        embedded recipe's content digest."""
        path = self._path(artifact.digest)
        recipe_digest, recipe_bytes = (
            (None, None) if artifact.recipe is None
            else _encode(artifact.recipe)
        )
        if artifact.recipe_digest != recipe_digest:
            raise ValueError(
                f"artifact {artifact.digest} names recipe "
                f"{artifact.recipe_digest!r}, but its recipe hashes to "
                f"{recipe_digest!r}"
            )
        if recipe_bytes is not None:
            atomic_write(self._recipe_path(recipe_digest), recipe_bytes)
        atomic_write(path, _frame(artifact.document().body)[1])
        return path

    def put_recipe(self, recipe) -> Path:
        """Persist a :class:`~repro.optim.passes.recipe.Recipe` or its
        ``to_json`` dict under its content digest; returns its path."""
        data = recipe if isinstance(recipe, dict) else recipe.to_json()
        digest, blob = _encode(data)
        path = self._recipe_path(digest)
        atomic_write(path, blob)
        return path

    def get(self, digest: str) -> Optional[StoredDocument]:
        """The verified artifact document, or ``None`` (missing, or
        quarantined by the read).  A malformed digest (wire input is
        untrusted) is a miss, never a filesystem access."""
        return self._read(self.objects, digest)

    def get_recipe(self, digest: str) -> Optional[StoredDocument]:
        """The verified recipe JSON, or ``None`` (missing, or quarantined
        by the read)."""
        return self._read(self.recipes, digest)

    def _read(self, tree: Path, digest: str) -> Optional[StoredDocument]:
        # The one reader; its checks are listed in the module docstring.
        if not is_valid_digest(digest):
            return None
        path = self._file(tree, digest)
        try:
            header, _, body = path.read_bytes().partition(b"\n")
        except FileNotFoundError:
            return None
        except OSError:
            return self._quarantine(path, tree, "unreadable")
        hashed = hashlib.sha256(body).hexdigest().encode("ascii")
        if hashed != header:
            return self._quarantine(path, tree, "hash_mismatch")
        key = (tree.name, digest)
        if self._verified.get(key) != hashed:
            reason = self._check(tree, digest, body, hashed)
            if reason is not None:
                return self._quarantine(path, tree, reason)
            self._verified.put(key, hashed)
        return StoredDocument(body)

    def _check(
        self, tree: Path, digest: str, body: bytes, hashed: bytes
    ) -> Optional[str]:
        """Why a correctly headed body is refused, or ``None``."""
        try:
            document = json.loads(body)
        except ValueError:
            document = None
        if not isinstance(document, dict):
            return "not_object"
        if tree is self.recipes:
            named = hashed.decode("ascii")
        elif document.get("version") != ARTIFACT_VERSION:
            return "version_skew"
        else:
            named = document.get("digest")
        return None if named == digest else "digest_mismatch"

    def _quarantine(self, path: Path, tree: Path, reason: str) -> None:
        # Only ever unlink inside the tree that was read, no matter what
        # path was computed upstream: quarantine deletes cache entries,
        # never arbitrary files the process happens to be able to write.
        # Returns None, which the reader hands on as a miss.
        from ..observability import emit_event, get_metrics

        emit_event(
            "quarantine", artifact=path.name, reason=reason, tree=tree.name
        )
        get_metrics().counter("service.store.quarantined").inc()
        try:
            resolved = path.resolve()
            if tree.resolve() not in resolved.parents:
                return
            os.unlink(resolved)
        except OSError:
            pass

    # -- listing ----------------------------------------------------------

    @staticmethod
    def _entries(tree: Path) -> Iterator[Path]:
        """Every object file in ``tree``, in digest order (no parse;
        in-progress temp files skipped)."""
        if not tree.is_dir():
            return
        for shard in sorted(tree.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                if not entry.name.startswith(".tmp-"):
                    yield entry

    def digests(self) -> Iterator[str]:
        """Every stored artifact digest."""
        return (entry.stem for entry in self._entries(self.objects))

    def recipe_digests(self) -> Iterator[str]:
        """Every stored recipe digest."""
        return (entry.stem for entry in self._entries(self.recipes))

    def delete(self, digest: str) -> bool:
        if not is_valid_digest(digest):
            return False
        try:
            os.unlink(self._path(digest))
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Drop every artifact; returns the number removed."""
        return sum(self.delete(digest) for digest in list(self.digests()))

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def stats(self) -> Dict[str, Any]:
        artifacts = 0
        total_bytes = 0
        for entry in self._entries(self.objects):
            artifacts += 1
            try:
                total_bytes += entry.stat().st_size
            except OSError:
                pass
        return {
            "root": str(self.root),
            "artifacts": artifacts,
            "bytes": total_bytes,
            "recipes": sum(1 for _ in self.recipe_digests()),
        }
