"""Compile-as-a-service: a long-lived compilation layer.

Every other entry point (CLI, benchmarks, tests) pays the full
build → analyze → search → optimize → codegen pipeline per process; this
package amortizes it across requests *and* restarts:

* :mod:`.api` — wire types (:class:`CompileRequest`,
  :class:`CompileOutcome`);
* :mod:`.store` — persistent content-addressed artifact store keyed by
  :func:`repro.ir.serialize.compile_digest`;
* :mod:`.admission` — the admission core the service and the router
  share: digest, cache-tier lookup, single-flight, bounded queue,
  worker threads, shutdown;
* :mod:`.service` — the compile service: the admission core over
  workers that run the pipeline;
* :mod:`.http` / :mod:`.client` — stdlib JSON-over-HTTP server and
  client (``repro serve`` / ``repro submit``);
* :mod:`.router` — the consistent-hash ring that places digests on
  backends;
* :mod:`.fleet` — the digest-sharded front-end router over N backends
  with fleet-wide single-flight and failover (``repro fleet``);
* :mod:`.dashboard` — the live fleet terminal dashboard renderer
  (``repro fleet top``) over the ``/v1/stats`` + ``/v1/metrics``
  scrape payloads.

See ``docs/service.md`` for the design: cache layering, digest
versioning/invalidation, backpressure, sharding, and failure semantics.
"""

from .admission import Ticket  # noqa: F401
from .api import (  # noqa: F401
    STATUS_COALESCED,
    STATUS_ERROR,
    STATUS_HIT,
    STATUS_MISS,
    CompileError,
    CompileOutcome,
    CompileRequest,
    clear_digest_memo,
    request_for_program,
)
from .client import ServiceClient  # noqa: F401
from .dashboard import render_fleet_top, run_fleet_top  # noqa: F401
from .fleet import (  # noqa: F401
    FleetConfig,
    FleetRouter,
    HttpBackend,
    LocalBackend,
    local_fleet,
    spawn_http_fleet,
)
from .router import HashRing  # noqa: F401
from .service import CompileService, ServiceConfig  # noqa: F401
from .store import (  # noqa: F401
    ARTIFACT_VERSION,
    ArtifactStore,
    CompileArtifact,
    artifact_fingerprint,
    build_artifact,
)

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactStore",
    "CompileArtifact",
    "CompileError",
    "CompileOutcome",
    "CompileRequest",
    "CompileService",
    "FleetConfig",
    "FleetRouter",
    "HashRing",
    "HttpBackend",
    "LocalBackend",
    "ServiceClient",
    "ServiceConfig",
    "STATUS_COALESCED",
    "STATUS_ERROR",
    "STATUS_HIT",
    "STATUS_MISS",
    "Ticket",
    "artifact_fingerprint",
    "build_artifact",
    "clear_digest_memo",
    "local_fleet",
    "render_fleet_top",
    "request_for_program",
    "run_fleet_top",
    "spawn_http_fleet",
]
