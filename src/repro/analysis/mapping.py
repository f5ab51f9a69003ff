"""Mapping parameters: logical dimensions, block sizes, and span types.

A mapping decision assigns each nest level three parameters (Section IV-A):

* **Dimension** — a logical dimension (x, y, z, w, …).  Dimension x is the
  fastest-varying by convention; threads with adjacent x indices are
  adjacent in a warp, which is what makes x the coalescing-friendly
  dimension.
* **Block size** — threads for that dimension within one CUDA block.
* **Degree-of-parallelism control** — one of:

  - ``Span(n)``: each thread covers ``n`` points of the level's index
    domain (``Span(1)`` is full parallelization);
  - ``Span(all)``: one block covers the entire dimension (required when
    the level needs global synchronization or its size is launch-dynamic);
  - ``Split(k)``: a ``Span(all)`` level split into ``k`` blocks at the cost
    of a combiner kernel (inter-block synchronization);
  - ``Seq``: the level is executed sequentially inside each thread.  This
    is not in the paper's parameter table but is how its *1D mapping*
    baseline ("ignore all but one level of parallelism") is expressed in
    our parameter space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..config import MAX_BLOCK_SIZE
from ..errors import MappingError


class Dim(enum.IntEnum):
    """Logical dimensions; lower values vary faster within a warp."""

    X = 0
    Y = 1
    Z = 2
    W = 3
    V = 4

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


#: CUDA's physical limit per dimension index (x, y ordered like Dim).
#: Logical dims beyond the third are linearized into z by codegen, so they
#: inherit z's limit.
DIM_MAX_THREADS = {Dim.X: 1024, Dim.Y: 1024, Dim.Z: 64, Dim.W: 64, Dim.V: 64}


@dataclass(frozen=True)
class Span:
    """Each thread covers ``n`` points of the index domain."""

    n: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise MappingError(f"Span factor must be >= 1, got {self.n}")

    def __str__(self) -> str:
        return f"span({self.n})"


@dataclass(frozen=True)
class SpanAll:
    """A single block covers the whole dimension (enables block-local sync)."""

    def __str__(self) -> str:
        return "span(all)"


@dataclass(frozen=True)
class Split:
    """A Span(all) dimension split into ``k`` blocks plus a combiner kernel."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise MappingError(f"Split factor must be >= 2, got {self.k}")

    def __str__(self) -> str:
        return f"split({self.k})"


@dataclass(frozen=True)
class Seq:
    """The level runs sequentially within each thread (no parallelism)."""

    def __str__(self) -> str:
        return "seq"


SpanType = Union[Span, SpanAll, Split, Seq]


def span_to_dict(span: SpanType) -> Dict[str, int]:
    """Serialize one span parameter to a plain JSON-able dict."""
    if isinstance(span, Span):
        return {"kind": "span", "n": span.n}
    if isinstance(span, SpanAll):
        return {"kind": "span_all"}
    if isinstance(span, Split):
        return {"kind": "split", "k": span.k}
    if isinstance(span, Seq):
        return {"kind": "seq"}
    raise MappingError(f"cannot serialize span {span!r}")


def span_from_dict(data: Dict[str, int]) -> SpanType:
    kind = data.get("kind")
    if kind == "span":
        return Span(int(data["n"]))
    if kind == "span_all":
        return SpanAll()
    if kind == "split":
        return Split(int(data["k"]))
    if kind == "seq":
        return Seq()
    raise MappingError(f"unknown span kind {kind!r}")

#: Integer span codes for the vectorized search's candidate matrices
#: (:mod:`repro.analysis.vectorized`).  Only the two span types the
#: search enumerates get codes; Split/Seq never appear in its space.
SPAN_CODE_SPAN1 = 0
SPAN_CODE_SPANALL = 1


def span_code(span: SpanType) -> int:
    """The integer code of a search-space span (Span(1) or Span(all))."""
    if isinstance(span, Span) and span.n == 1:
        return SPAN_CODE_SPAN1
    if isinstance(span, SpanAll):
        return SPAN_CODE_SPANALL
    raise MappingError(f"span {span} is outside the search candidate space")


@dataclass(frozen=True)
class LevelMapping:
    """The three mapping parameters for one nest level."""

    dim: Optional[Dim]
    block_size: int
    span: SpanType

    def __post_init__(self) -> None:
        if isinstance(self.span, Seq):
            if self.dim is not None:
                raise MappingError("sequential levels carry no dimension")
            if self.block_size != 1:
                raise MappingError("sequential levels have block size 1")
        else:
            if self.dim is None:
                raise MappingError("parallel levels require a dimension")
            if self.block_size < 1:
                raise MappingError(
                    f"block size must be >= 1, got {self.block_size}"
                )

    @property
    def parallel(self) -> bool:
        return not isinstance(self.span, Seq)

    def __str__(self) -> str:
        if not self.parallel:
            return "[seq]"
        return f"[dim{self.dim}, {self.block_size}, {self.span}]"


def seq_level() -> LevelMapping:
    """Convenience constructor for a sequential level."""
    return LevelMapping(None, 1, Seq())


@dataclass(frozen=True)
class Mapping:
    """A complete mapping decision: one :class:`LevelMapping` per level.

    ``levels[0]`` is the outermost pattern level.  Construction validates
    the structural (hard) properties that make a mapping executable at all:
    distinct dimensions across parallel levels and the per-block thread
    limit.  Softer desiderata are the scoring machinery's concern.
    """

    levels: Tuple[LevelMapping, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise MappingError("a mapping needs at least one level")
        dims = [lm.dim for lm in self.levels if lm.parallel]
        if len(dims) != len(set(dims)):
            raise MappingError(f"duplicate logical dimensions in {self}")
        if self.threads_per_block() > MAX_BLOCK_SIZE:
            raise MappingError(
                f"{self.threads_per_block()} threads/block exceeds "
                f"{MAX_BLOCK_SIZE}"
            )
        for lm in self.levels:
            if lm.parallel and lm.block_size > DIM_MAX_THREADS[lm.dim]:
                raise MappingError(
                    f"block size {lm.block_size} exceeds limit for dim {lm.dim}"
                )

    # -- geometry ------------------------------------------------------

    def threads_per_block(self) -> int:
        """Total threads per block (product across parallel levels)."""
        total = 1
        for lm in self.levels:
            if lm.parallel:
                total *= lm.block_size
        return total

    def level(self, index: int) -> LevelMapping:
        return self.levels[index]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def parallel_levels(self) -> List[int]:
        """Indices of levels that are parallelized."""
        return [i for i, lm in enumerate(self.levels) if lm.parallel]

    def level_of_dim(self, dim: Dim) -> Optional[int]:
        """The level assigned to a logical dimension, if any."""
        for i, lm in enumerate(self.levels):
            if lm.parallel and lm.dim == dim:
                return i
        return None

    def block_shape(self) -> Dict[Dim, int]:
        """Threads per block, keyed by logical dimension."""
        return {
            lm.dim: lm.block_size for lm in self.levels if lm.parallel
        }

    def blocks_per_level(self, sizes: Sequence[int]) -> List[int]:
        """Number of blocks launched along each level's dimension.

        ``sizes`` are the runtime domain sizes, one per level.
        """
        if len(sizes) != len(self.levels):
            raise MappingError(
                f"expected {len(self.levels)} sizes, got {len(sizes)}"
            )
        blocks: List[int] = []
        for lm, size in zip(self.levels, sizes):
            span = lm.span
            if isinstance(span, Seq):
                blocks.append(1)
            elif isinstance(span, Span):
                per_block = lm.block_size * span.n
                blocks.append(max(1, -(-size // per_block)))
            elif isinstance(span, SpanAll):
                blocks.append(1)
            elif isinstance(span, Split):
                blocks.append(span.k)
            else:  # pragma: no cover - exhaustive
                raise MappingError(f"unknown span type {span}")
        return blocks

    def total_blocks(self, sizes: Sequence[int]) -> int:
        result = 1
        for b in self.blocks_per_level(sizes):
            result *= b
        return result

    def total_threads(self, sizes: Sequence[int]) -> int:
        """Threads launched across the whole grid."""
        return self.total_blocks(sizes) * self.threads_per_block()

    # -- degree of parallelism ------------------------------------------

    def dop(self, sizes: Sequence[int]) -> int:
        """Degree of parallelism under this mapping (Section IV-A).

        ``Span(n)`` contributes ``size / n``; ``Span(all)`` contributes its
        *block size* (not the loop size — the paper notes this makes DOP
        insensitive to the 1000-default for unknown sizes); ``Split(k)``
        contributes ``block size * k``; sequential levels contribute 1.
        """
        if len(sizes) != len(self.levels):
            raise MappingError(
                f"expected {len(self.levels)} sizes, got {len(sizes)}"
            )
        dop = 1
        for lm, size in zip(self.levels, sizes):
            span = lm.span
            if isinstance(span, Seq):
                continue
            if isinstance(span, Span):
                dop *= max(1, -(-size // span.n))
            elif isinstance(span, SpanAll):
                dop *= min(lm.block_size, max(1, size))
            elif isinstance(span, Split):
                dop *= min(lm.block_size, max(1, size)) * span.k
        return dop

    # -- iteration structure ---------------------------------------------

    def varies_within_warp(self, level: int, warp_size: int = 32) -> bool:
        """Does this level's index differ between lanes of one warp?

        Lanes are consecutive linear thread ids (x fastest); a dimension
        varies within a warp when the product of the block sizes of all
        faster dimensions is smaller than the warp.  Branch conditions
        depending on warp-varying indices diverge.
        """
        lm = self.levels[level]
        if not lm.parallel or lm.block_size <= 1:
            return False
        stride = 1
        for other in self.levels:
            if other.parallel and other.dim < lm.dim:
                stride *= other.block_size
        return stride < warp_size

    def thread_iterations(self, level: int, size: int) -> int:
        """How many domain points of ``level`` one thread executes."""
        lm = self.levels[level]
        span = lm.span
        if isinstance(span, Seq):
            return max(1, size)
        if isinstance(span, Span):
            return span.n
        if isinstance(span, SpanAll):
            return max(1, -(-size // lm.block_size))
        if isinstance(span, Split):
            return max(1, -(-size // (lm.block_size * span.k)))
        raise MappingError(f"unknown span type {span}")  # pragma: no cover

    def with_level(self, index: int, new_level: LevelMapping) -> "Mapping":
        levels = list(self.levels)
        levels[index] = new_level
        return Mapping(tuple(levels))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-able encoding (recipes and wire artifacts)."""
        return {
            "levels": [
                {
                    "dim": None if lm.dim is None else int(lm.dim),
                    "block_size": lm.block_size,
                    "span": span_to_dict(lm.span),
                }
                for lm in self.levels
            ]
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Mapping":
        levels = []
        for entry in data["levels"]:
            dim = entry.get("dim")
            levels.append(
                LevelMapping(
                    dim=None if dim is None else Dim(int(dim)),
                    block_size=int(entry["block_size"]),
                    span=span_from_dict(entry["span"]),
                )
            )
        return cls(tuple(levels))

    def __str__(self) -> str:
        return " ".join(
            f"L{i}{lm}" for i, lm in enumerate(self.levels)
        )
