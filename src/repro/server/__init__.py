"""Long-lived async compile server (scaling the batch service to traffic).

The batch CLI amortises one grid; this package amortises *everything* — a
persistent asyncio process that keeps the schedule cache, the memoized
datasheets and a sharded artifact cache warm across requests, and fronts
them with an HTTP/JSON API:

* :mod:`repro.server.core` — scheduling core: priority queue with bounded
  depth and 429-style back-pressure, content-digest request coalescing,
  warm memory+disk cache tiers, retry with deterministic backoff, graceful
  drain, per-request tracing,
* :mod:`repro.server.http` — stdlib HTTP/1.1 front-end
  (``POST /v1/compile``, ``POST /v1/tasks``, ``GET /v1/jobs/{id}`` +
  NDJSON ``/events`` stream, ``/v1/metrics``, ``/v1/healthz``,
  ``POST /v1/drain``),
* :mod:`repro.server.client` — async client used by the load-generator
  benchmark, and :class:`~repro.server.client.RemoteExecutor`, which runs
  a job list on a server for the ``discover`` and DSE command lines.

CLI entry point: ``repro-longnail serve``.  Docs:
``docs/compile_server.md``.
"""

from repro.server.client import (
    CompileServerClient,
    CompileServerError,
    RemoteExecutor,
)
from repro.server.core import (
    PRIORITIES,
    CompileServer,
    DrainingError,
    JobRecord,
    QueueFullError,
    ServerCounters,
    ServerRejection,
    UnknownJobError,
)
from repro.server.http import (
    DEFAULT_ALLOWED_RUNNERS,
    CompileServerApp,
    HttpError,
)

__all__ = [
    "CompileServer",
    "CompileServerApp",
    "CompileServerClient",
    "CompileServerError",
    "DEFAULT_ALLOWED_RUNNERS",
    "DrainingError",
    "HttpError",
    "JobRecord",
    "PRIORITIES",
    "QueueFullError",
    "RemoteExecutor",
    "ServerCounters",
    "ServerRejection",
    "UnknownJobError",
]
