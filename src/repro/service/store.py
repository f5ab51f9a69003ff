"""Persistent content-addressed artifact store.

Artifacts live under ``<root>/objects/<digest[:2]>/<digest>.json``, one
self-contained JSON file per compilation, keyed by the canonical digest
of (IR, device, flags, strategy, sizes, pipeline version) from
:func:`repro.ir.serialize.compile_digest`.  Because the key covers the
pipeline version, a behavior-changing release invalidates every stale
artifact by construction — no sweep needed — and because each object is
written atomically (``os.replace`` of a same-directory temp file), a
crashed writer can never leave a half-written artifact that a reader
would trust.

Reads are defensive: a corrupt, truncated, version-skewed, or
digest-mismatched object is treated as a miss and quarantined (deleted),
so one bad file costs a recompile, not an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from ..ir.serialize import PIPELINE_VERSION

#: Bumped on any incompatible artifact-layout change; loaders check it.
ARTIFACT_VERSION = 1

#: The only shape a content address can take: a lowercase hex SHA-256.
#: Everything the store touches on disk derives from a digest, so this
#: is also the path-safety boundary — a digest that matches cannot name
#: anything outside ``<root>/objects``.
_DIGEST_RE = re.compile(r"[0-9a-f]{64}")


def is_valid_digest(digest: Any) -> bool:
    """Whether ``digest`` is a well-formed content address."""
    return isinstance(digest, str) and _DIGEST_RE.fullmatch(digest) is not None


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

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompileArtifact":
        version = data.get("version")
        if version != ARTIFACT_VERSION:
            raise ValueError(
                f"artifact version {version!r} is not supported "
                f"(expected {ARTIFACT_VERSION})"
            )
        return cls(
            digest=data["digest"],
            program=data.get("program", ""),
            strategy=data.get("strategy", ""),
            device=data.get("device", ""),
            sizes={k: int(v) for k, v in (data.get("sizes") or {}).items()},
            flags=dict(data.get("flags") or {}),
            pipeline_version=int(data.get("pipeline_version", 0)),
            mappings=list(data.get("mappings") or []),
            cuda_source=data.get("cuda_source", ""),
            cost=dict(data.get("cost") or {}),
            degradations=list(data.get("degradations") or []),
            provenance=data.get("provenance"),
            recipe=data.get("recipe"),
            recipe_digest=data.get("recipe_digest"),
            compile_ms=float(data.get("compile_ms", 0.0)),
            created_at=float(data.get("created_at", 0.0)),
        )


#: Artifact fields excluded from :func:`artifact_fingerprint`: wall-clock
#: stamps differ run to run, and provenance embeds elapsed search time.
#: Everything else — mappings, CUDA source, cost, flags, versions — must
#: be identical for one digest no matter which process, backend, or fleet
#: member compiled it.
FINGERPRINT_VOLATILE_KEYS = ("compile_ms", "created_at", "provenance")


def _recipe_content_digest(data: Dict[str, Any]) -> str:
    """The recipe's content address (mirrors ``Recipe.content_digest``)."""
    from ..ir.serialize import canonical_json

    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def artifact_fingerprint(artifact: Any) -> str:
    """SHA-256 over an artifact's deterministic payload.

    Accepts a :class:`CompileArtifact` or its ``to_dict`` form.  Two
    artifacts for the same compile digest must fingerprint identically
    regardless of who compiled them — the byte-identity contract the
    fleet failover tests pin.
    """
    data = (
        artifact.to_dict()
        if isinstance(artifact, CompileArtifact)
        else dict(artifact)
    )
    for key in FINGERPRINT_VOLATILE_KEYS:
        data.pop(key, None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_artifact(
    digest: str,
    compiled,
    compile_ms: float,
) -> CompileArtifact:
    """Extract the storable artifact from a
    :class:`~repro.runtime.session.CompiledProgram`.

    The recipe and the provenance record only read what the compile
    recorded (per-kernel recipes, the searches' rankings), so an error
    while assembling them is a bug and escapes: an artifact is never
    stored with either part silently missing.
    """
    cost = compiled.estimate_cost()
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
        flags={
            "prealloc": compiled.flags.prealloc,
            "layout_opt": compiled.flags.layout_opt,
            "shared_memory": compiled.flags.shared_memory,
        },
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
        # Recipes live in their own content-addressed subtree: ``get()``
        # quarantines anything under objects/ that does not parse as a
        # CompileArtifact, so recipe JSON must never share that tree.
        self.recipes = self.root / "recipes"
        self.recipes.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        if not is_valid_digest(digest):
            raise ValueError(f"malformed artifact digest {digest!r}")
        return self.objects / digest[:2] / f"{digest}.json"

    def _recipe_path(self, digest: str) -> Path:
        if not is_valid_digest(digest):
            raise ValueError(f"malformed recipe digest {digest!r}")
        return self.recipes / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[CompileArtifact]:
        """The stored artifact, or ``None`` (missing / corrupt / stale).

        A malformed digest (wire input is untrusted) is a miss, never a
        filesystem access.
        """
        if not is_valid_digest(digest):
            return None
        path = self._path(digest)
        try:
            with open(path) as handle:
                data = json.load(handle)
            artifact = CompileArtifact.from_dict(data)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None
        if artifact.digest != digest:
            self._quarantine(path)
            return None
        return artifact

    def put(self, artifact: CompileArtifact) -> Path:
        """Atomically persist one artifact; returns its path.

        Raises :class:`ValueError` on a malformed digest rather than
        writing outside the objects tree.
        """
        path = self._path(artifact.digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(artifact.to_dict(), handle, indent=2)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def delete(self, digest: str) -> bool:
        if not is_valid_digest(digest):
            return False
        try:
            os.unlink(self._path(digest))
            return True
        except OSError:
            return False

    def put_recipe(self, recipe) -> Path:
        """Atomically persist one transformation recipe; returns its path.

        Accepts a :class:`~repro.optim.passes.recipe.Recipe` or its
        ``to_json`` dict; the on-disk name is the recipe's own content
        digest, so identical pipelines share one object.
        """
        data = recipe if isinstance(recipe, dict) else recipe.to_json()
        digest = _recipe_content_digest(data)
        path = self._recipe_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(data, handle, indent=2)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def get_recipe(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored recipe JSON, or ``None`` (missing / corrupt).

        Defensive like :meth:`get`: a recipe that does not parse or whose
        content hash no longer matches its name is quarantined.
        """
        if not is_valid_digest(digest):
            return None
        path = self._recipe_path(digest)
        try:
            with open(path) as handle:
                data = json.load(handle)
            if _recipe_content_digest(data) != digest:
                raise ValueError("recipe content digest mismatch")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._quarantine(path, self.recipes)
            return None
        return data

    def recipe_digests(self) -> Iterator[str]:
        """Every stored recipe digest (no parse)."""
        if not self.recipes.is_dir():
            return
        for shard in sorted(self.recipes.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                if not entry.name.startswith(".tmp-"):
                    yield entry.stem

    def _quarantine(self, path: Path, root: Optional[Path] = None) -> None:
        # Only ever unlink inside the store's own trees, no matter what
        # path was computed upstream: quarantine deletes cache entries,
        # never arbitrary files the process happens to be able to write.
        from ..observability import emit_event

        emit_event("quarantine", artifact=path.name)
        try:
            resolved = path.resolve()
            tree_root = (root if root is not None else self.objects).resolve()
            if tree_root not in resolved.parents:
                return
            os.unlink(resolved)
        except OSError:
            pass

    def digests(self) -> Iterator[str]:
        """Every stored digest (no artifact parse)."""
        for shard in sorted(self.objects.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                if not entry.name.startswith(".tmp-"):
                    yield entry.stem

    def clear(self) -> int:
        """Drop every artifact; returns the number removed."""
        removed = 0
        for digest in list(self.digests()):
            if self.delete(digest):
                removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def stats(self) -> Dict[str, Any]:
        artifacts = 0
        total_bytes = 0
        for shard in self.objects.iterdir() if self.objects.is_dir() else ():
            if not shard.is_dir():
                continue
            for entry in shard.glob("*.json"):
                if entry.name.startswith(".tmp-"):
                    continue
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
