"""Pipeline-wide observability: tracing, metrics, and mapping provenance.

Three instruments; tracing and metrics share one enablement story
(:mod:`.state`):

* **tracer** (:mod:`.tracer`) — spans around every pipeline stage,
  exported as Chrome trace-event JSON (``repro trace <app>``, loadable in
  Perfetto);
* **metrics** (:mod:`.metrics`) — counters/gauges/histograms for cache
  behavior, search work, constraint classes, resilience activations,
  per-stage wall time, and cost-model component sums
  (``repro stats <app>``);
* **provenance** (:mod:`.provenance`) — per-compile "why this mapping
  won" records with the deciding search's top 5 ranked candidates and
  per-constraint verdicts (``repro explain <artifact>``), built on
  request from the compile's own records and imported lazily to keep
  this package free of analysis-layer dependencies.

Tracing and metrics are disabled by default: every instrumentation point
then hits a shared no-op backend; see ``docs/observability.md`` for the
design and the measured overhead.  Provenance has no switch.
"""

from .aggregate import (  # noqa: F401
    histogram_quantile,
    merge_snapshots,
)
from .events import (  # noqa: F401
    EVENT_KINDS,
    EventLog,
    emit_event,
    get_event_log,
)
from .metrics import (  # noqa: F401
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .state import (  # noqa: F401
    Observation,
    StageScope,
    capture,
    configure,
    get_metrics,
    get_tracer,
    instrumented_stage,
    metrics_enabled,
    tracing_enabled,
)
from .stitch import (  # noqa: F401
    cross_process_links,
    make_fragment,
    stitch_fragments,
)
from .tracer import (  # noqa: F401
    STAGE_MS_BUCKETS,
    NullTracer,
    Tracer,
    is_valid_trace_id,
    new_span_id,
    new_trace_id,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "EVENT_KINDS",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "StageScope",
    "Tracer",
    "Observation",
    "DEFAULT_MS_BUCKETS",
    "STAGE_MS_BUCKETS",
    "capture",
    "configure",
    "cross_process_links",
    "emit_event",
    "get_event_log",
    "get_metrics",
    "get_tracer",
    "histogram_quantile",
    "instrumented_stage",
    "is_valid_trace_id",
    "make_fragment",
    "merge_snapshots",
    "metrics_enabled",
    "new_span_id",
    "new_trace_id",
    "stitch_fragments",
    "tracing_enabled",
    "validate_chrome_trace",
]
