"""Vectorized batch mapping search: the candidate space as NumPy arrays.

The fast search engine beside the exhaustive reference loop.  Instead
of walking candidates one Python object at a time, it materializes the
*whole* candidate space as integer-coded matrices — one row per
candidate, one column per nest level, separate arrays for the dimension
assignment, the block size, and the span code — and evaluates every
constraint once as a vectorized predicate over the full candidate
matrix (:meth:`repro.analysis.constraints.Constraint.batch_satisfied`).

The space is a cross product of three small factor axes — dimension
permutations, block-size grid rows, span combinations — and the batch
keeps that factorization: candidates are (permutation, grid row) base
pairs tiled by the span combinations, and everything that depends on
only one factor (threads per block, block-size codes, DOP factors, warp
variance, span-free or span-only predicates) is computed on the factor
table and broadcast.  The per-candidate axis only ever sees a fixed
number of cheap elementwise passes; nothing is sorted along it.

The factor tables themselves depend only on the nest depth, the
block-size grid, and which levels carry a hard Span(all) requirement —
not on constraint *values* — so they are memoized process-wide
(:data:`_STRUCTURE_MEMO`, cleared by
:func:`repro.analysis.cache.clear_caches`) and repeated searches over
the same shape skip straight to predicate evaluation.

Byte-identical contract
-----------------------

The engine must reproduce :func:`~repro.analysis.search.search_mapping_reference`
bit for bit — mapping, score, DOP, candidate counts, ``all_scored``
ordering and the ``ranked`` top candidates, whose first entry is the
pick.  Four mechanisms carry that:

* **Enumeration order.**  Rows are materialized in the reference's exact
  enumeration order (dimension permutations outermost, then the
  block-size cross product, spans innermost), so "the k-th candidate"
  means the same thing in both engines.
* **Exact scores.**  Per-candidate scores are *not* computed with a
  float dot product (which rounds per add).  Candidates are grouped by
  their satisfied-soft-constraint bit pattern (a ``bincount`` fold over
  the constraint columns) and each distinct pattern is summed once with
  :func:`math.fsum` — the exact, order-independent sum the reference
  uses, so equal weight sets give equal floats.
* **Packed keys give ``ranked``.**  The engine packs each candidate's
  ``(score, dop, block sizes)`` into one ``int64`` (rank-coded score,
  raw DOP, rank-coded sizes), order-isomorphic to the first three
  components of :func:`~repro.analysis.search.ranking_key`.  Candidates
  equal on all three differ only in dimensions and span kinds, and for
  them the later enumeration position is the larger, so equal keys are
  ordered later position first.  A partition finds the fifth largest
  key and a sort of the few survivors orders them; rank 1 is the pick.
* **Exact DOP past int64.**  DOP products are compared as int64 while
  the worst-case product fits.  Beyond that the DOP table is built in
  Python ints and rank-coded into the packed key (ranks order the
  candidates exactly as the DOPs do); ``keep_all`` reports the exact
  values.

Eligibility: every constraint must carry a batch predicate
(:func:`~repro.analysis.constraints.has_batch_predicate`); a constraint
without one, or a ``batch_satisfied`` returning ``None``, raises
:class:`BatchUnsupported` and :func:`~repro.analysis.search.search_mapping`
runs the exhaustive loop instead.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import BLOCK_SIZE_CANDIDATES, MAX_BLOCK_SIZE, WARP_SIZE
from ..errors import SearchError
from ..observability import instrumented_stage
from ..resilience.budget import Budget
from .cache import LRUCache
from .constraints import Constraint, ConstraintSet, has_batch_predicate
from .dop import DopWindow
from .mapping import (
    DIM_MAX_THREADS,
    SPAN_CODE_SPAN1,
    Dim,
    LevelMapping,
    Mapping,
    span_code,
)
from .scoring import ScoredMapping
from .search import RANKED_CANDIDATES, span_options_for_levels

#: int64 head-room bound for exact DOP / packed-key comparison; above
#: this the DOP table switches to Python ints rather than risk silent
#: wrap-around.
_INT64_SAFE_BITS = 62

#: Bin ceiling for one pattern-fold bincount chunk (2**16 int64 bins is
#: half a megabyte — cheap — while folding 16 constraint columns in one
#: pass instead of sixteen).
_FOLD_CHUNK_BINS = 1 << 16


class BatchUnsupported(Exception):
    """The candidate space cannot be evaluated as a batch.

    Raised when a constraint lacks a batch predicate (or returns ``None``
    at runtime), or when the packed ranking key cannot fit int64 even
    with rank-coded DOPs.  :func:`~repro.analysis.search.search_mapping`
    catches this and runs the exhaustive loop instead.
    """


class CandidateBatch:
    """The materialized candidate space, one row per candidate.

    Integer coding: ``dims[i, l]`` is the :class:`Dim` value of level
    ``l`` under candidate ``i``; ``block_sizes[i, l]`` its block size;
    ``spans[i, l]`` a span code (:data:`SPAN_CODE_SPAN1` /
    :data:`SPAN_CODE_SPANALL`).  Rows are in the reference engine's
    enumeration order.

    The batch stores its factorization — candidate ``i`` is base pair
    ``i // span_tile`` (a permutation row and a block-size grid row)
    with span combination ``i % span_tile`` — and the per-candidate
    arrays above are *lazy* expansions that only materialize if a
    predicate without a span-free/base-free declaration reads them.
    Declared predicates run against :meth:`base_view` or
    :meth:`combo_view` instead and never touch the full axis.

    ``shared`` is the lazy-expansion cache.  Batches built from the
    process-wide structure memo pass the memo's dict so expansions
    survive across searches; ad-hoc batches get a private one.  The
    cached arrays are treated as immutable.
    """

    def __init__(
        self,
        num_levels: int,
        sizes: Tuple[int, ...],
        perm_table: np.ndarray,   # (P, L) int8 Dim codes
        grid_table: np.ndarray,   # (G, L) int64 block sizes
        span_table: np.ndarray,   # (T, L) int8 span codes
        base_perm_ids: np.ndarray,  # (n_base,) into perm_table
        base_size_ids: np.ndarray,  # (n_base,) into grid_table
        base_span_ids: np.ndarray,  # (n_base,) into span_table (views)
        span_tile: int,
        warp_size: int = WARP_SIZE,
        shared: Optional[dict] = None,
    ) -> None:
        self.num_levels = num_levels
        self.sizes = sizes
        self.perm_table = perm_table
        self.grid_table = grid_table
        self.span_table = span_table
        self.base_perm_ids = base_perm_ids
        self.base_size_ids = base_size_ids
        self.base_span_ids = base_span_ids
        self.span_tile = span_tile
        self.warp_size = warp_size
        self._shared = shared if shared is not None else {}

    def __len__(self) -> int:
        return self.base_perm_ids.shape[0] * self.span_tile

    def _cached(self, key: str, compute):
        value = self._shared.get(key)
        if value is None:
            value = compute()
            self._shared[key] = value
        return value

    # -- factor views ----------------------------------------------------

    def base_view(self) -> "CandidateBatch":
        """One row per (permutation, block-size) base pair.

        Candidate ``i`` corresponds to base row ``i // span_tile``; a
        span-free predicate column computed here broadcasts back with
        ``np.repeat(col, span_tile)``.  The view's span codes are the
        first combination's — a predicate honouring its
        ``batch_span_free`` declaration never reads them.
        """
        if self.span_tile == 1:
            return self
        return CandidateBatch(
            self.num_levels, self.sizes,
            self.perm_table, self.grid_table, self.span_table,
            self.base_perm_ids, self.base_size_ids,
            np.zeros(len(self.base_perm_ids), dtype=np.int64),
            span_tile=1, warp_size=self.warp_size,
            shared=self._shared.setdefault("__base__", {}),
        )

    def combo_view(self) -> "CandidateBatch":
        """One row per span combination (``span_tile`` rows total).

        Candidate ``i`` corresponds to combo row ``i % span_tile``; a
        base-free predicate column computed here broadcasts back with
        ``np.tile(col, n_base)``.  The view's dims/block sizes are the
        first base pair's — a predicate honouring its
        ``batch_base_free`` declaration never reads them.
        """
        first = np.zeros(self.span_tile, dtype=np.int64)
        return CandidateBatch(
            self.num_levels, self.sizes,
            self.perm_table, self.grid_table, self.span_table,
            first + self.base_perm_ids[0], first + self.base_size_ids[0],
            np.arange(self.span_tile, dtype=np.int64),
            span_tile=1, warp_size=self.warp_size,
            shared=self._shared.setdefault("__combo__", {}),
        )

    # -- per-candidate arrays (lazy expansions) -------------------------

    @property
    def perm_ids(self) -> np.ndarray:
        return self._cached(
            "perm_ids",
            lambda: np.repeat(self.base_perm_ids, self.span_tile),
        )

    @property
    def size_ids(self) -> np.ndarray:
        return self._cached(
            "size_ids",
            lambda: np.repeat(self.base_size_ids, self.span_tile),
        )

    @property
    def span_ids(self) -> np.ndarray:
        if self.span_tile == 1:
            return self.base_span_ids
        return self._cached(
            "span_ids",
            lambda: np.tile(
                np.arange(self.span_tile, dtype=np.int64),
                self.base_perm_ids.shape[0],
            ),
        )

    @property
    def dims(self) -> np.ndarray:
        return self._cached("dims", lambda: self.perm_table[self.perm_ids])

    @property
    def block_sizes(self) -> np.ndarray:
        return self._cached(
            "block_sizes", lambda: self.grid_table[self.size_ids]
        )

    @property
    def spans(self) -> np.ndarray:
        return self._cached("spans", lambda: self.span_table[self.span_ids])

    @property
    def grid_threads(self) -> np.ndarray:
        """Threads per block, per *grid row* (the factor table)."""
        return self._cached(
            "grid_threads",
            lambda: self.grid_table.prod(axis=1, dtype=np.int64),
        )

    @property
    def threads_per_block(self) -> np.ndarray:
        """Total threads per block, per candidate (all levels parallel)."""
        return self._cached(
            "threads",
            lambda: np.repeat(
                self.grid_threads[self.base_size_ids], self.span_tile
            ),
        )

    def _warp_varies_base(self) -> np.ndarray:
        dims_b = self.perm_table[self.base_perm_ids]
        bs_b = self.grid_table[self.base_size_ids]
        n_base, levels = dims_b.shape
        varies = np.empty((n_base, levels), dtype=bool)
        for lvl in range(levels):
            faster = dims_b < dims_b[:, lvl : lvl + 1]
            stride = np.where(faster, bs_b, 1).prod(axis=1, dtype=np.int64)
            varies[:, lvl] = (bs_b[:, lvl] > 1) & (stride < self.warp_size)
        return varies

    def warp_varies(self, level: int) -> np.ndarray:
        """Per candidate: does ``level``'s index differ within a warp?

        Mirrors :meth:`Mapping.varies_within_warp`: the stride of a
        level is the product of the block sizes of all faster (lower)
        dimensions; the level varies when its block size exceeds 1 and
        that stride is below the warp size.  Spans never matter, so the
        computation runs on the (permutation, grid row) base pairs and
        is repeated per candidate.
        """
        varies = self._cached("warp_varies", self._warp_varies_base)
        if self.span_tile == 1:
            return varies[:, level]
        return np.repeat(varies[:, level], self.span_tile)


def _grid_codes(
    grid_table: np.ndarray, block_sizes: Tuple[int, ...]
) -> np.ndarray:
    """Rank-packed block-size tuples, one code per grid row.

    Order-isomorphic to tuple comparison of the block sizes (outermost
    level most significant), the block-size part of
    :func:`~repro.analysis.search.ranking_key`.
    """
    sorted_sizes = np.asarray(sorted(block_sizes), dtype=np.int64)
    ranks = np.searchsorted(sorted_sizes, grid_table)
    base = len(block_sizes) + 1
    codes = np.zeros(grid_table.shape[0], dtype=np.int64)
    for level in range(grid_table.shape[1]):
        codes = codes * base + ranks[:, level]
    return codes


class _CandidateStructure:
    """Memoized factor tables for one candidate-space shape.

    Everything here is a pure function of ``(num_levels, block_sizes,
    forced Span(all) levels)`` — constraint *values* (weights, which
    soft constraints exist) never enter, so one structure serves every
    search over the same shape.  ``shared`` is the lazy-expansion cache
    handed to every batch built from this structure; concurrent
    searches share it.
    """

    __slots__ = (
        "num_levels", "perm_table", "grid_table", "span_table",
        "base_perm_ids", "base_size_ids", "span_combos", "span_tile",
        "grid_codes", "shared",
    )

    def __init__(
        self,
        num_levels: int,
        block_sizes: Tuple[int, ...],
        span_options: Tuple[Tuple, ...],
    ) -> None:
        self.num_levels = num_levels
        dims = list(Dim)[:num_levels]
        perms = list(itertools.permutations(dims, num_levels))
        self.span_combos = list(itertools.product(*span_options))
        self.span_tile = len(self.span_combos)

        sizes_arr = np.asarray(block_sizes, dtype=np.int64)
        n_sizes = len(block_sizes)
        n_grid = n_sizes ** num_levels
        # Every block-size tuple, in itertools.product order (row-major):
        # level l cycles with period n_sizes**(L-1-l).
        row = np.arange(n_grid)
        grid_table = np.empty((n_grid, num_levels), dtype=np.int64)
        for level in range(num_levels):
            period = n_sizes ** (num_levels - 1 - level)
            grid_table[:, level] = sizes_arr[(row // period) % n_sizes]
        product_ok = (
            grid_table.prod(axis=1, dtype=np.int64) <= MAX_BLOCK_SIZE
        )

        perm_table = np.asarray(
            [[int(d) for d in p] for p in perms], dtype=np.int8
        )
        caps = np.asarray(
            [DIM_MAX_THREADS[d] for d in Dim], dtype=np.int64
        )[perm_table]  # (P, L)
        # Permutations mostly share their per-level cap row (only *which*
        # dims carry the 1024 cap varies), so validity is computed once
        # per distinct cap row and gathered — never as a (P, G, L)
        # broadcast.
        cap_rows, cap_inverse = np.unique(
            caps, axis=0, return_inverse=True
        )
        pattern_valid = product_ok[None, :] & (
            grid_table[None, :, :] <= cap_rows[:, None, :]
        ).all(axis=2)  # (distinct cap rows, G)
        valid = pattern_valid[cap_inverse.ravel()]  # (P, G)

        # np.nonzero iterates row-major: permutation-major, then size
        # order — the reference's loop nesting.  Spans expand innermost
        # (the tile).
        self.base_perm_ids, self.base_size_ids = np.nonzero(valid)
        self.perm_table = perm_table
        self.grid_table = grid_table
        self.span_table = np.asarray(
            [[span_code(s) for s in combo] for combo in self.span_combos],
            dtype=np.int8,
        ).reshape(self.span_tile, num_levels)
        self.grid_codes = _grid_codes(grid_table, block_sizes)
        self.shared: dict = {}

    def batch(self, sizes: Tuple[int, ...]) -> CandidateBatch:
        """A batch over this structure at the given analysis sizes.

        Cheap per call: the arrays are shared, only the wrapper object
        (which carries the per-search ``sizes``) is fresh.
        """
        return CandidateBatch(
            num_levels=self.num_levels,
            sizes=sizes,
            perm_table=self.perm_table,
            grid_table=self.grid_table,
            span_table=self.span_table,
            base_perm_ids=self.base_perm_ids,
            base_size_ids=self.base_size_ids,
            base_span_ids=np.zeros(
                self.base_perm_ids.shape[0], dtype=np.int64
            ),
            span_tile=self.span_tile,
            shared=self.shared,
        )


_STRUCTURE_MEMO = LRUCache(16)


def clear_batch_memo() -> None:
    """Drop the memoized candidate structures (tests, benchmarks)."""
    _STRUCTURE_MEMO.clear()


def _structure_for(
    num_levels: int, cset: ConstraintSet, block_sizes: Tuple[int, ...]
) -> _CandidateStructure:
    forced = tuple(
        sorted(
            level
            for level in cset.span_all_levels()
            if level < num_levels
        )
    )
    key = (num_levels, block_sizes, forced)
    struct = _STRUCTURE_MEMO.get(key)
    if struct is None:
        # A structure is a pure function of its key, so a racing
        # duplicate build is only wasted work.
        struct = _CandidateStructure(
            num_levels, block_sizes, span_options_for_levels(cset, num_levels)
        )
        _STRUCTURE_MEMO.put(key, struct)
    return struct


def materialize_candidates(
    num_levels: int,
    cset: ConstraintSet,
    block_sizes: Sequence[int] = BLOCK_SIZE_CANDIDATES,
    sizes: Tuple[int, ...] = (),
) -> Tuple[CandidateBatch, List[Tuple]]:
    """Build the candidate matrix in the reference enumeration order.

    Returns ``(batch, span_combos)`` where
    ``span_combos[i % batch.span_tile]`` holds candidate ``i``'s actual
    per-level span objects (for :class:`Mapping` reconstruction).
    """
    struct = _structure_for(num_levels, cset, tuple(block_sizes))
    return struct.batch(tuple(sizes)), struct.span_combos


def _predicate_column(c: Constraint, batch: CandidateBatch) -> np.ndarray:
    col = c.batch_satisfied(batch)
    if col is None:
        raise BatchUnsupported(f"{type(c).__name__} has no batch predicate")
    return np.asarray(col, dtype=bool)


def _fold_patterns(
    columns: List[np.ndarray],
    n: int,
    init_state: Optional[np.ndarray] = None,
    init_bits: Optional[List[Tuple[bool, ...]]] = None,
) -> Tuple[np.ndarray, List[Tuple[bool, ...]]]:
    """Group candidates by their soft-satisfaction bit pattern.

    Folds the constraint columns in chunks: a chunk's raw id is (state,
    chunk bits), one ``bincount`` finds which raw ids actually occur,
    and occupied ids are relabelled compactly before the next chunk.
    Everything stays O(candidates) per chunk with no sort of the
    candidate axis; the chunk width is capped so one bincount never
    exceeds :data:`_FOLD_CHUNK_BINS` bins, and the live state count
    stays bounded by the number of patterns that actually occur.

    ``init_state``/``init_bits`` continue a fold started on a coarser
    row set (the span-free base fold) with further columns.
    """
    if init_state is not None:
        state = init_state.astype(np.int64, copy=False)
        state_bits = list(init_bits or [()])
    else:
        state = np.zeros(n, dtype=np.int64)
        state_bits = [()]
    index = 0
    while index < len(columns):
        width = 0
        bins = max(1, len(state_bits))
        while (
            index + width < len(columns)
            and bins << (width + 1) <= _FOLD_CHUNK_BINS
        ):
            width += 1
        if width == 0:  # a single column always fits the next chunk
            width = 1
        raw = state
        for col in columns[index : index + width]:
            raw = raw * 2 + col
        index += width
        occupied = np.nonzero(
            np.bincount(raw, minlength=bins << width)
        )[0]
        remap = np.zeros(bins << width, dtype=np.int64)
        remap[occupied] = np.arange(occupied.shape[0])
        state = remap[raw]
        state_bits = [
            state_bits[r >> width]
            + tuple(
                bool((r >> (width - 1 - b)) & 1) for b in range(width)
            )
            for r in occupied
        ]
    return state, state_bits


def _state_scores(
    state_bits: List[Tuple[bool, ...]], soft: List[Constraint]
) -> np.ndarray:
    """Exact fsum score per satisfaction pattern.

    ``soft`` must be in the fold's column order; fsum is the correctly
    rounded exact sum, so the result is identical to the reference's
    per-candidate fsum regardless of that order.
    """
    weights = [getattr(c, "weight", 0.0) for c in soft]
    return np.asarray(
        [
            math.fsum(w for w, bit in zip(weights, bits) if bit)
            for bits in state_bits
        ],
        dtype=np.float64,
    )


def _dop_table(
    struct, sizes_t: Tuple[int, ...]
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Exact DOP per (grid row, span combo) as ``(keys, bound, exact)``.

    Mirrors :meth:`Mapping.dop` for the search's span space: a Span(1)
    level contributes ``max(1, size)``, a Span(all) level
    ``min(block_size, max(1, size))``.  Computed on the factor tables —
    a (G, T) product of L broadcasts — never per candidate.  ``struct``
    is anything with ``grid_table``/``span_table`` (a structure or a
    batch).

    ``keys`` is what the packed ranking key reads and ``bound`` an
    upper bound on it.  While the product of the sizes fits int64,
    ``keys`` holds the raw DOPs and ``exact`` is ``keys``.  Past that the
    table is built in Python ints: ``exact`` holds them (an object
    array, read by ``keep_all``) and ``keys`` their ranks, which order
    the candidates exactly as the DOPs do.
    """
    hints = [max(1, size) for size in sizes_t]
    bound = math.prod(hints)
    span1 = struct.span_table == SPAN_CODE_SPAN1  # (T, L)
    # Span(1) levels contribute their whole hint: one Python int per
    # span combination.
    span1_part = [
        math.prod(hint for hint, is_span1 in zip(hints, row) if is_span1)
        for row in span1.tolist()
    ]
    # Span(all) levels contribute the block size capped at the hint.
    # Block sizes never exceed MAX_BLOCK_SIZE, so capping the hint there
    # first keeps this part in int64 at any size.
    capped = np.minimum(
        struct.grid_table, [min(hint, MAX_BLOCK_SIZE) for hint in hints]
    )  # (G, L)
    span_all_part = np.ones(
        (capped.shape[0], len(span1_part)), dtype=np.int64
    )
    for lvl in range(len(hints)):
        span_all_part *= np.where(span1[:, lvl], 1, capped[:, lvl, None])
    if bound.bit_length() < _INT64_SAFE_BITS:
        table = span_all_part * np.asarray(span1_part, dtype=np.int64)
        return table, bound, table
    # Past int64: only a few dozen (span combo, Span(all) part) pairs are
    # distinct, so multiply those out in Python ints and rank them.
    tile = len(span1_part)
    pairs, inverse = np.unique(
        span_all_part * tile + np.arange(tile), return_inverse=True
    )
    pair_dops = np.asarray(
        [span1_part[p % tile] * (p // tile) for p in pairs.tolist()],
        dtype=object,
    )
    values, ranks = np.unique(pair_dops, return_inverse=True)
    shape = span_all_part.shape
    keys = ranks[inverse].reshape(shape).astype(np.int64)
    return keys, len(values), pair_dops[inverse].reshape(shape)


def _key_bits(n_scores: int, dop_bound: int, code_bound: int):
    """Bit widths for the packed ranking key, or None on overflow."""
    dop_bits = max(1, int(dop_bound).bit_length())
    code_bits = max(1, int(code_bound).bit_length())
    score_bits = max(1, int(n_scores).bit_length())
    if score_bits + dop_bits + code_bits >= _INT64_SAFE_BITS:
        return None
    return dop_bits, code_bits


def _packed_keys(
    score_rank: np.ndarray,
    n_scores: int,
    dop: np.ndarray,
    dop_bound: int,
    code: np.ndarray,
    code_bound: int,
) -> np.ndarray:
    """One int64 per candidate, order-isomorphic to (score, dop, sizes).

    Raw DOP values are packed directly when the per-component bounds
    fit in 62 bits together; otherwise DOP is rank-compressed first
    (one sort of the feasible subset — the rare path).
    """
    bits = _key_bits(n_scores, dop_bound, code_bound)
    if bits is None:
        uniq, dop = np.unique(dop, return_inverse=True)
        dop = dop.astype(np.int64, copy=False)
        bits = _key_bits(n_scores, uniq.shape[0], code_bound)
        if bits is None:
            raise BatchUnsupported(
                "ranking key exceeds exact int64 range"
            )
    dop_bits, code_bits = bits
    return (
        ((score_rank.astype(np.int64) << dop_bits) | dop) << code_bits
    ) | code


def _top_positions(keys: np.ndarray, count: int) -> np.ndarray:
    """Positions of the ``count`` largest keys, largest first.

    Equal keys put the later position first, so the result is
    :attr:`SearchResult.ranked`'s order and its first entry the pick: a
    partition finds the ``count``-th largest key, the survivors are
    every larger key plus the last equal ones, and only they are sorted.
    """
    n = keys.shape[0]
    if n > count:
        threshold = np.partition(keys, n - count)[n - count]
        above = np.nonzero(keys > threshold)[0]
        tied = np.nonzero(keys == threshold)[0][above.shape[0] - count:]
        survivors = np.concatenate([above, tied])
    else:
        survivors = np.arange(n)
    return survivors[np.lexsort((-survivors, -keys[survivors]))]


def _hard_feasible_rows(
    cset: ConstraintSet,
    batch: CandidateBatch,
    base: CandidateBatch,
    combo: CandidateBatch,
) -> Tuple[Optional[np.ndarray], int]:
    """Hard-feasibility rows for one candidate batch.

    Span-free predicates run on the base pairs, span-only predicates on
    the combo rows, the undeclared remainder at full resolution — each
    tier is a handful of rows times cheaper than the last.  Returns
    ``(rows, count)``; ``rows`` is ``None`` when every candidate is
    feasible (so callers can skip the gather entirely).
    """
    tile = batch.span_tile
    n_base = len(base)
    base_mask: Optional[np.ndarray] = None
    combo_mask: Optional[np.ndarray] = None
    full_mask: Optional[np.ndarray] = None
    for c in cset.hard:
        if c.batch_span_free:
            col = _predicate_column(c, base)
            base_mask = col if base_mask is None else base_mask & col
        elif c.batch_base_free:
            col = _predicate_column(c, combo)
            combo_mask = col if combo_mask is None else combo_mask & col
        else:
            col = _predicate_column(c, batch)
            full_mask = col if full_mask is None else full_mask & col

    feasible_mask: Optional[np.ndarray] = None  # None = all feasible
    if base_mask is not None and not base_mask.all():
        feasible_mask = np.repeat(base_mask, tile)
    if combo_mask is not None and not combo_mask.all():
        tiled = np.tile(combo_mask, n_base)
        feasible_mask = (
            tiled if feasible_mask is None else feasible_mask & tiled
        )
    if full_mask is not None and not full_mask.all():
        feasible_mask = (
            full_mask
            if feasible_mask is None
            else feasible_mask & full_mask
        )
    if feasible_mask is None:
        return None, len(batch)
    feasible_rows = np.nonzero(feasible_mask)[0]
    return feasible_rows, int(feasible_rows.shape[0])


def iter_feasible_mappings(
    num_levels: int,
    cset: ConstraintSet,
    sizes: Sequence[int],
    block_sizes: Sequence[int] = BLOCK_SIZE_CANDIDATES,
):
    """Yield hard-feasible candidate mappings in enumeration order.

    A batch prefilter for per-candidate consumers (the cost-model
    auto-tuner): the hard masks are evaluated once over the whole
    candidate matrix, then only surviving rows are materialized as
    :class:`Mapping` objects — in exactly the order
    ``enumerate_candidates`` + ``hard_feasible`` would have produced
    them.  Raises :class:`BatchUnsupported` when a hard constraint has
    no batch predicate (callers fall back to the scalar filter).
    """
    if not all(has_batch_predicate(c) for c in cset.hard):
        raise BatchUnsupported(
            "hard constraint set contains members without a batch predicate"
        )
    struct = _structure_for(num_levels, cset, tuple(block_sizes))
    batch = struct.batch(tuple(sizes))
    rows, n_feas = _hard_feasible_rows(
        cset, batch, batch.base_view(), batch.combo_view()
    )
    span_combos = struct.span_combos
    indices = range(len(batch)) if rows is None else rows
    for row in indices:
        yield _mapping_for_row(int(row), batch, span_combos)


def _mapping_for_row(
    row: int, batch: CandidateBatch, span_combos: List[Tuple]
) -> Mapping:
    base_row, combo_row = divmod(row, batch.span_tile)
    perm = batch.perm_table[batch.base_perm_ids[base_row]].tolist()
    sizes = batch.grid_table[batch.base_size_ids[base_row]].tolist()
    spans = span_combos[combo_row]
    return Mapping(
        tuple(
            LevelMapping(Dim(dim), size, span)
            for dim, size, span in zip(perm, sizes, spans)
        )
    )


def search_mapping_vectorized(
    num_levels: int,
    cset: ConstraintSet,
    sizes: Sequence[int],
    window: Optional[DopWindow] = None,
    block_sizes: Sequence[int] = BLOCK_SIZE_CANDIDATES,
    keep_all: bool = False,
    budget: Optional[Budget] = None,
):
    """Run Algorithm 1 with the batch engine (public, self-timing entry).

    Byte-identical to :func:`search_mapping_reference`; raises
    :class:`BatchUnsupported` when a constraint has no batch predicate.
    Most callers want :func:`~repro.analysis.search.search_mapping`,
    which runs the exhaustive loop for such sets.
    """
    from .search import (
        _BudgetStop,
        _effective_block_sizes,
        _fallback_result,
        _record_search_metrics,
        _validate,
    )

    if window is None:
        window = DopWindow()
    block_sizes = _effective_block_sizes(num_levels, block_sizes)
    sizes_t = _validate(num_levels, sizes)
    start = time.perf_counter()
    if budget is not None:
        budget.start()
    with instrumented_stage(
        "search", inject=False, levels=num_levels, mode="vectorized"
    ):
        try:
            result = _search_vectorized(
                num_levels, cset, sizes_t, window, block_sizes, keep_all,
                budget=budget,
            )
        except _BudgetStop:
            result = _fallback_result(
                num_levels, cset, sizes_t, window,
                reason="search budget exhausted (vectorized batch)",
                budget=budget,
            )
    result.elapsed_ms = (time.perf_counter() - start) * 1e3
    _record_search_metrics(result)
    return result


def _search_vectorized(
    num_levels: int,
    cset: ConstraintSet,
    sizes_t: Tuple[int, ...],
    window: DopWindow,
    block_sizes: Tuple[int, ...],
    keep_all: bool,
    budget: Optional[Budget] = None,
):
    """The batch engine body (no timing; the caller stamps elapsed_ms)."""
    from .search import _BudgetStop, _finish

    if not all(has_batch_predicate(c) for c in cset.constraints):
        raise BatchUnsupported(
            "constraint set contains members without a batch predicate"
        )

    struct = _structure_for(num_levels, cset, block_sizes)
    span_combos = struct.span_combos
    batch = struct.batch(sizes_t)
    total = len(batch)
    if budget is not None and (not budget.spend(total) or budget.exhausted()):
        raise _BudgetStop()
    if total == 0:
        raise SearchError("no feasible mapping satisfies the hard constraints")

    base = batch.base_view()
    combo = batch.combo_view()
    tile = batch.span_tile
    n_base = len(base)

    feasible_rows, n_feas = _hard_feasible_rows(cset, batch, base, combo)
    if n_feas == 0:
        raise SearchError("no feasible mapping satisfies the hard constraints")

    # Exact scores: fold soft columns into pattern states, fsum each
    # distinct pattern once, gather.  Span-free constraints fold on the
    # base rows, span-only ones on the combo rows, the undeclared
    # remainder at full resolution.  The fold order may differ from
    # cset.soft order, but fsum is the correctly-rounded exact sum, so
    # the per-pattern floats are identical either way.
    soft_base = [c for c in cset.soft if c.batch_span_free]
    soft_combo = [
        c for c in cset.soft
        if c.batch_base_free and not c.batch_span_free
    ]
    soft_full = [
        c for c in cset.soft
        if not c.batch_span_free and not c.batch_base_free
    ]
    state_b, state_bits = _fold_patterns(
        [_predicate_column(c, base) for c in soft_base], n_base
    )
    base_only_scores = not soft_combo and not soft_full

    dop_table, dop_bound, dop_exact = _dop_table(struct, sizes_t)
    code_bound = (len(block_sizes) + 1) ** num_levels

    state: Optional[np.ndarray] = None  # per-feasible-row state ids
    if base_only_scores:
        state_scores = _state_scores(state_bits, soft_base)
        uniq_scores = np.unique(state_scores)
        state_rank = np.searchsorted(uniq_scores, state_scores)
        bits = _key_bits(uniq_scores.shape[0], dop_bound, code_bound)
    else:
        bits = None

    if base_only_scores and bits is not None:
        # Fast path: scores depend only on the base pair, so the key
        # factorizes — base part (score rank and size code) broadcast
        # against the span axis (DOP) with one (n_base, T) add; no
        # per-candidate id arrays or gathers are ever built.
        dop_bits, code_bits = bits
        base_part = (
            state_rank[state_b] << np.int64(dop_bits + code_bits)
        ) | struct.grid_codes[batch.base_size_ids]
        keys = (
            base_part[:, None]
            | (dop_table << np.int64(code_bits))[batch.base_size_ids]
        ).reshape(-1)
        if feasible_rows is not None:
            keys = keys[feasible_rows]
    else:
        # General path: continue the fold at feasible-row resolution for
        # combo/full soft constraints, then gather each key component.
        if feasible_rows is not None:
            feas_base = feasible_rows // tile
            feas_combo = feasible_rows - feas_base * tile
        else:
            feas_base = np.repeat(
                np.arange(n_base, dtype=np.int64), tile
            )
            feas_combo = np.tile(np.arange(tile, dtype=np.int64), n_base)
        state = state_b[feas_base]
        if soft_combo:
            state, state_bits = _fold_patterns(
                [
                    _predicate_column(c, combo)[feas_combo]
                    for c in soft_combo
                ],
                n_feas, init_state=state, init_bits=state_bits,
            )
        if soft_full:
            cols = [_predicate_column(c, batch) for c in soft_full]
            if feasible_rows is not None:
                cols = [col[feasible_rows] for col in cols]
            state, state_bits = _fold_patterns(
                cols, n_feas, init_state=state, init_bits=state_bits,
            )
        state_scores = _state_scores(
            state_bits, soft_base + soft_combo + soft_full
        )
        uniq_scores = np.unique(state_scores)
        state_rank = np.searchsorted(uniq_scores, state_scores)
        feas_size = batch.base_size_ids[feas_base]
        keys = _packed_keys(
            state_rank[state],
            uniq_scores.shape[0],
            dop_table.reshape(-1)[feas_size * tile + feas_combo],
            dop_bound,
            struct.grid_codes[feas_size],
            code_bound,
        )

    dop_flat = dop_exact.reshape(-1)

    def scored_at(pos: int) -> ScoredMapping:
        """The feasible candidate at position ``pos`` of ``keys``."""
        row = pos if feasible_rows is None else int(feasible_rows[pos])
        base_row, combo_row = divmod(row, tile)
        if state is None:
            score = float(state_scores[state_b[base_row]])
        else:
            score = float(state_scores[state[pos]])
        dop = int(dop_flat[batch.base_size_ids[base_row] * tile + combo_row])
        return ScoredMapping(
            _mapping_for_row(row, batch, span_combos), score, dop
        )

    all_scored: List[ScoredMapping] = []
    if keep_all:
        all_scored = [scored_at(pos) for pos in range(n_feas)]
    ranked = [
        scored_at(int(pos)) for pos in _top_positions(keys, RANKED_CANDIDATES)
    ]
    result = _finish(
        ranked, cset, sizes_t, window, total, n_feas, all_scored, "vectorized",
    )
    result.batch_shape = (total, num_levels)
    return result
