"""Mapping analysis — the paper's core contribution (Section IV).

Public surface:

* :mod:`repro.analysis.mapping` — Dim / block size / Span-Split parameters.
* :mod:`repro.analysis.analyzer` — one-call program analysis facade.
* :mod:`repro.analysis.search` — the staged Algorithm-1 search (memo,
  engine selection, and the exhaustive reference oracle).
* :mod:`repro.analysis.vectorized` — the NumPy batch search engine
  (byte-identical to the reference, candidate matrix at once).
* :mod:`repro.analysis.cache` — the one bounded memo (``LRUCache``) and
  the search memo's keys.
* :mod:`repro.analysis.strategies` — fixed baselines from prior work
  and their scores beside a decision.
"""

from .access import (  # noqa: F401
    AccessSite,
    AccessSummary,
    LinearForm,
    collect_accesses,
    inline_scalar_binds,
    linear_form,
)
from .autotune import AutotuneResult, autotune_mapping  # noqa: F401
from .cache import (  # noqa: F401
    LRUCache,
    clear_caches,
    constraint_set_fingerprint,
    get_autotune_cache,
    get_search_cache,
    search_cache_key,
)
from .analyzer import (  # noqa: F401
    KernelAnalysis,
    ProgramAnalysis,
    analyze_kernel,
    analyze_program,
)
from .constraints import (  # noqa: F401
    BlockSizeFloor,
    CoalesceDimX,
    Constraint,
    ConstraintSet,
    NoWastedThreads,
    SpanAllRequired,
    generate_constraints,
)
from .dop import DopWindow, control_dop  # noqa: F401
from .mapping import (  # noqa: F401
    Dim,
    LevelMapping,
    Mapping,
    Seq,
    Span,
    SpanAll,
    Split,
    seq_level,
)
from .nesting import Nest, build_nest, extract_kernels, outermost_patterns  # noqa: F401
from .scoring import ScoredMapping, score_mapping, satisfied_constraints  # noqa: F401
from .search import (  # noqa: F401
    SearchResult,
    enumerate_candidates,
    search_mapping,
    search_mapping_reference,
    span_options_for_levels,
)
from .vectorized import (  # noqa: F401
    BatchUnsupported,
    CandidateBatch,
    clear_batch_memo,
    iter_feasible_mappings,
    materialize_candidates,
    search_mapping_vectorized,
)
from .shapes import SizeEnv, eval_size  # noqa: F401
from .strategies import (  # noqa: F401
    FIXED_STRATEGIES,
    baseline_scores,
    fixed_strategy,
    one_d,
    thread_block_thread,
    warp_based,
)
