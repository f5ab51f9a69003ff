"""Global configuration defaults shared across the analysis and simulator.

The values mirror the constants the paper states explicitly:

* ``WARP_SIZE`` — 32 threads on NVIDIA GPUs (Section II).
* ``MAX_BLOCK_SIZE`` — 1024 threads per block (Section IV-B).
* ``MIN_BLOCK_SIZE`` — 64, the global soft constraint floor (Table II).
* ``DEFAULT_SIZE_HINT`` — 1000, assumed when a pattern size is not a
  compile-time constant (Section IV-C).
* ``MIN_DOP`` / ``MAX_DOP`` are device-derived (Section IV-D): for the
  Tesla K20c, ``MIN_DOP = 13 SMs * 2048 threads`` and
  ``MAX_DOP = 100 * MIN_DOP``; they live on the device description and the
  constants here are only used when no device is supplied.
"""

from __future__ import annotations

WARP_SIZE = 32
MAX_BLOCK_SIZE = 1024
MIN_BLOCK_SIZE = 64
DEFAULT_SIZE_HINT = 1000

# Fallback DOP window (Tesla K20c values; see repro.gpusim.device).
DEFAULT_MIN_DOP = 13 * 2048
DEFAULT_MAX_DOP = 100 * DEFAULT_MIN_DOP

# Candidate block sizes considered by the mapping search (Algorithm 1).
BLOCK_SIZE_CANDIDATES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

# Reserved keys in Program.size_hints:
#   DEFAULT_HINT_KEY overrides the 1000-default for dynamically sized
#   inner domains (e.g. the average degree of a graph workload);
#   SKEW_HINT_KEY is the warp-max/mean ratio of dynamic inner domains,
#   modeling the load imbalance that per-thread sequential execution of a
#   skewed loop suffers (the motivation for warp-based mappings).
DEFAULT_HINT_KEY = "__default__"
SKEW_HINT_KEY = "__skew__"

# Compile-service defaults (``repro serve`` / ``repro submit``).  The
# admission queue is bounded so an overloaded server sheds load with a
# typed error (HTTP 503 / exit 75) instead of queueing unboundedly; the
# per-request budget bounds mapping-search work so one pathological
# program degrades itself to the conservative fallback instead of
# stalling every worker behind it.
DEFAULT_SERVICE_HOST = "127.0.0.1"
DEFAULT_SERVICE_PORT = 8077
DEFAULT_SERVICE_WORKERS = 4
DEFAULT_SERVICE_QUEUE_LIMIT = 64
DEFAULT_SERVICE_CACHE_DIR = ".repro-cache"
DEFAULT_REQUEST_DEADLINE_S = 30.0

# Compile-fleet defaults (``repro fleet``).  The router shards requests
# across backends by consistent hashing over the compile digest, keeps a
# hot in-memory LRU of artifact payloads over the shared disk store, and
# retries a request on the next ring node (jittered backoff) when a
# backend is dead or shedding load.
DEFAULT_FLEET_BACKENDS = 3
DEFAULT_FLEET_LRU_CAPACITY = 256
DEFAULT_FLEET_RETRIES = 3
DEFAULT_FLEET_DISPATCHERS = 8
DEFAULT_FLEET_QUEUE_LIMIT = 4096

# Fleet self-healing defaults.  A background prober health-checks every
# backend each interval and feeds per-backend circuit breakers: a breaker
# opens after BREAKER_FAILURE_THRESHOLD consecutive failures, waits
# BREAKER_RESET_TIMEOUT_S, then admits one half-open probe whose success
# readmits the backend (two-way membership, unlike the old one-way
# mark_dead).
DEFAULT_FLEET_PROBE_INTERVAL_S = 1.0
DEFAULT_FLEET_PROBE_TIMEOUT_S = 5.0
DEFAULT_BREAKER_FAILURE_THRESHOLD = 3
DEFAULT_BREAKER_RESET_TIMEOUT_S = 2.0
#: Grace added on top of a request's deadline when bounding the blocking
#: wait for its ticket: the worker-side shed normally answers first, the
#: timed wait is only the backstop against a wedged backend.
DEADLINE_WAIT_GRACE_S = 2.0

# Fleet observability defaults.  The structured event log is a bounded
# ring (control-plane transitions only — breaker flips, reroutes, sheds,
# queue rejections, quarantines — so it is always on); ``repro fleet
# top`` polls /v1/stats + /v1/metrics at the refresh interval, and
# ``repro fleet events --follow`` polls /v1/events at the poll interval.
DEFAULT_EVENT_LOG_CAPACITY = 2048
#: The tracer is a bounded ring too: a server traces every request for
#: its whole life, so it keeps only the most recent events (about 7 MB
#: at about 0.9 KB per event) and counts the ones it drops.
DEFAULT_TRACE_CAPACITY = 8192
DEFAULT_FLEET_TOP_INTERVAL_S = 2.0
DEFAULT_EVENT_FOLLOW_INTERVAL_S = 1.0

# L2-size proxy used to discount coalescing constraints for arrays small
# enough to live in cache after first touch (K20c: 1.25 MB).  The analysis
# layer must not depend on a concrete device, so this is a standalone
# constant; the simulator uses the real per-device value.
ANALYSIS_CACHE_BYTES = 1_310_720

# Intrinsic soft-constraint weights (Section IV-C).  Memory coalescing gets
# the highest intrinsic weight because pattern workloads are typically
# bandwidth-bound; the remaining weights express the relative importance the
# paper describes qualitatively.
INTRINSIC_WEIGHT_COALESCE = 10.0
INTRINSIC_WEIGHT_BLOCK_FLOOR = 2.0
INTRINSIC_WEIGHT_NO_DIVERGENCE = 1.0
INTRINSIC_WEIGHT_PARALLELISM = 1.0
