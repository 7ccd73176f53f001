"""HTTP/JSON front-end for the compile server (stdlib asyncio streams).

A deliberately small HTTP/1.1 implementation — request-line + headers +
``Content-Length`` bodies in, JSON documents out, chunked transfer for the
NDJSON event stream — so the server has **zero dependencies beyond the
standard library** and one process serves thousands of concurrent
keep-alive connections on a single event loop.

API surface (see ``docs/compile_server.md`` for the full reference):

========  =========================  ==========================================
method    path                       semantics
========  =========================  ==========================================
POST      /v1/compile                submit one ISAX compile (coalesced,
                                     cached, prioritised); ``wait=1`` blocks
POST      /v1/tasks                  submit a generic allow-listed runner task
                                     (the DSE sweep uses this)
POST      /v1/discover               mine + price candidate ISAXes from a
                                     registered kernel (one search task)
GET       /v1/jobs/{id}              job status (``result=1`` inlines it)
GET       /v1/jobs/{id}/events       NDJSON trace stream until terminal
GET       /v1/metrics                batch-metrics JSON + ``server`` section
GET       /v1/healthz                liveness / drain state
POST      /v1/drain                  begin graceful drain (``wait=1`` blocks)
========  =========================  ==========================================

Back-pressure maps to status codes: a full queue answers **429** with a
``retry_after_s`` hint, a draining server answers **503**.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re
import urllib.parse
from typing import Any, Dict, Optional, Tuple

from repro.server.core import (
    COMPILE_RUNNER,
    CompileServer,
    ServerRejection,
    TaskSpec,
    UnknownJobError,
)
from repro.opt.pipeline import PASS_ORDER
from repro.service.jobs import CompileJob
from repro.sim.compile import SIM_ENGINES
from repro.utils.diagnostics import CoreDSLError

#: Runner references clients may name on POST /v1/tasks.  Everything else
#: is refused with 403 — the server executes code *it* ships, not code the
#: request names.
DEFAULT_ALLOWED_RUNNERS = frozenset({
    COMPILE_RUNNER,
    "repro.eval.dse:_evaluate_candidate",
    "repro.discover.pricing:run_pricing_payload",
    "repro.discover.pricing:run_discover_payload",
})

_MAX_BODY_BYTES = 16 * 1024 * 1024

#: Client-supplied cache keys must look like content digests.  Every key
#: the shipped clients send is a sha256 hexdigest; anything looser would
#: flow into the on-disk cache's path construction.
_KEY_RE = re.compile(r"[0-9a-f]{16,128}")


class HttpError(Exception):
    """Maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.payload = {"error": message}
        self.payload.update(extra)


@dataclasses.dataclass
class Request:
    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise HttpError(400, f"request body is not valid JSON: {err}")
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        return doc

    def flag(self, name: str, body: Optional[dict] = None) -> bool:
        if name in self.query:
            return self.query[name] not in ("0", "false", "")
        if body is not None:
            return bool(body.get(name))
        return False


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line or line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise HttpError(400, "malformed request line")
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise HttpError(400, "malformed content-length")
    if length < 0 or length > _MAX_BODY_BYTES:
        raise HttpError(400, f"unacceptable content-length {length}")
    body = await reader.readexactly(length) if length else b""
    parsed = urllib.parse.urlsplit(target)
    query = {key: values[-1] for key, values
             in urllib.parse.parse_qs(parsed.query).items()}
    return Request(method=method.upper(), path=parsed.path, query=query,
                   headers=headers, body=body)


def _response_bytes(status: int, doc: Any,
                    extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    body = json.dumps(doc, sort_keys=False).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


class CompileServerApp:
    """Routes HTTP requests into a :class:`CompileServer` core."""

    def __init__(self, core: CompileServer,
                 allowed_runners: frozenset = DEFAULT_ALLOWED_RUNNERS) -> None:
        self.core = core
        self.allowed_runners = allowed_runners
        self._server: Optional[asyncio.AbstractServer] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        await self.core.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self, drain: bool = True) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.core.close(drain=drain)

    # -- connection handling -------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except HttpError as err:
                    writer.write(_response_bytes(err.status, err.payload))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                await writer.drain()
                wants_close = request.headers.get("connection", "") \
                    .lower() == "close"
                if not keep_alive or wants_close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns False when the connection must close
        (only after a streamed response that was cut short)."""
        try:
            method, path = request.method, request.path
            if path == "/v1/healthz" and method == "GET":
                writer.write(_response_bytes(200, self.core.healthz()))
            elif path == "/v1/metrics" and method == "GET":
                writer.write(_response_bytes(200, self.core.metrics()))
            elif path == "/v1/compile" and method == "POST":
                await self._route_compile(request, writer)
            elif path == "/v1/tasks" and method == "POST":
                await self._route_task(request, writer)
            elif path == "/v1/discover" and method == "POST":
                await self._route_discover(request, writer)
            elif path == "/v1/drain" and method == "POST":
                await self._route_drain(request, writer)
            elif path.startswith("/v1/jobs/") and method == "GET":
                return await self._route_jobs(request, writer)
            elif path in ("/v1/healthz", "/v1/metrics", "/v1/compile",
                          "/v1/tasks", "/v1/discover", "/v1/drain") \
                    or path.startswith("/v1/jobs/"):
                raise HttpError(405, f"{method} not allowed on {path}")
            else:
                raise HttpError(404, f"no route for {path}")
        except HttpError as err:
            writer.write(_response_bytes(err.status, err.payload))
        except ServerRejection as err:
            payload: Dict[str, Any] = {"error": str(err)}
            retry_after = getattr(err, "retry_after_s", None)
            headers = None
            if retry_after is not None:
                payload["retry_after_s"] = retry_after
                headers = {"Retry-After": f"{retry_after:g}"}
            writer.write(_response_bytes(err.status, payload, headers))
        except Exception as err:          # noqa: BLE001 — last-ditch 500
            writer.write(_response_bytes(
                500, {"error": f"{type(err).__name__}: {err}"}))
        return True

    # -- routes --------------------------------------------------------------
    async def _submit_and_respond(self, request: Request, body: dict,
                                  spec: TaskSpec,
                                  writer: asyncio.StreamWriter) -> None:
        priority = body.get("priority", "batch")
        try:
            record = await self.core.submit(spec, priority=priority)
        except ValueError as err:
            raise HttpError(400, str(err))
        # An explicit "result" wins; otherwise waited answers include the
        # artifacts (the natural synchronous-RPC reading) and 202s don't.
        if "result" in request.query or "result" in body:
            include_result = request.flag("result", body)
        else:
            include_result = request.flag("wait", body)
        if request.flag("wait", body):
            await record.wait()
            writer.write(_response_bytes(
                200, record.to_dict(include_result=include_result)))
        else:
            status = 200 if record.done else 202
            writer.write(_response_bytes(
                status, record.to_dict(include_result=include_result)))

    async def _route_compile(self, request: Request,
                             writer: asyncio.StreamWriter) -> None:
        body = request.json()
        source = body.get("source")
        isax = body.get("isax")
        if source is None:
            if not isax:
                raise HttpError(400, "need 'source' or a built-in 'isax'")
            from repro.isaxes import ALL_ISAXES
            if isax not in ALL_ISAXES:
                raise HttpError(
                    400, f"unknown ISAX {isax!r}; available: "
                    + ", ".join(sorted(ALL_ISAXES)))
            source = ALL_ISAXES[isax]
        cycle_time = body.get("cycle_time_ns")
        if cycle_time is not None:
            try:
                cycle_time = float(cycle_time)
            except (TypeError, ValueError):
                raise HttpError(
                    400, f"'cycle_time_ns' must be a number, "
                    f"got {cycle_time!r}")
        opt_level = body.get("opt_level", 0)
        if isinstance(opt_level, bool) or not isinstance(opt_level, int) \
                or opt_level not in (0, 1, 2):
            raise HttpError(
                400, f"'opt_level' must be 0, 1 or 2, got {opt_level!r}")
        opt_passes = body.get("opt_passes") or []
        if not isinstance(opt_passes, list) \
                or not all(isinstance(p, str) for p in opt_passes):
            raise HttpError(400, "'opt_passes' must be a list of pass names")
        if not all(p.lstrip("-") in PASS_ORDER for p in opt_passes):
            raise HttpError(
                400, "'opt_passes' entries must be optimizer pass names "
                "(optionally '-'-prefixed to disable): "
                + ", ".join(PASS_ORDER))
        job = CompileJob(
            isax=isax or "inline",
            source=source,
            core=body.get("core", "" if body.get("datasheet_yaml")
                          else "VexRiscv"),
            engine=body.get("engine", "auto"),
            cycle_time_ns=cycle_time,
            top=body.get("top"),
            datasheet_yaml=body.get("datasheet_yaml"),
            opt_level=opt_level,
            opt_passes=tuple(opt_passes),
        )
        try:
            key = job.cache_key()       # also validates the core name
        except (CoreDSLError, KeyError) as err:
            message = err.args[0] if err.args else str(err)
            raise HttpError(400, str(message))
        spec = TaskSpec(runner=COMPILE_RUNNER, payload=job.to_payload(),
                        key=key, label=job.job_id)
        await self._submit_and_respond(request, body, spec, writer)

    async def _route_task(self, request: Request,
                          writer: asyncio.StreamWriter) -> None:
        body = request.json()
        runner = body.get("runner")
        if not runner:
            raise HttpError(400, "need a 'runner' reference")
        if runner not in self.allowed_runners:
            raise HttpError(403, f"runner {runner!r} is not allow-listed")
        payload = body.get("payload")
        if not isinstance(payload, dict):
            raise HttpError(400, "'payload' must be a JSON object")
        engine = payload.get("sim_engine")
        if engine is not None and engine not in SIM_ENGINES:
            # Reject unknown engines at the door: a typo'd engine should
            # die as a 400, not as a failed (and cached) job.
            raise HttpError(
                400, f"unknown sim_engine {engine!r}; expected one of "
                + ", ".join(SIM_ENGINES))
        key = body.get("key")
        if key is not None and (not isinstance(key, str)
                                or not _KEY_RE.fullmatch(key)):
            raise HttpError(
                400, "'key' must be a lowercase hex content digest "
                "(16-128 chars) or omitted")
        spec = TaskSpec(runner=runner, payload=payload,
                        key=key, label=body.get("label", ""))
        await self._submit_and_respond(request, body, spec, writer)

    async def _route_discover(self, request: Request,
                              writer: asyncio.StreamWriter) -> None:
        """One whole ISAX discovery search as a single server task.

        The body is a :class:`repro.discover.search.DiscoveryConfig`
        payload (only ``kernel`` is required).  Validation happens here so
        a malformed search dies with a 400 instead of a failed job, and
        the canonical payload doubles as the cache key — identical
        searches coalesce and warm re-runs are cache hits.
        """
        from repro.discover.pricing import DISCOVER_SEARCH_RUNNER
        from repro.discover.search import DiscoveryConfig
        from repro.service.jobs import digest

        body = request.json()
        try:
            config = DiscoveryConfig.from_payload(body)
        except (TypeError, ValueError) as err:
            raise HttpError(400, str(err))
        payload = config.to_payload()
        key = digest("discover-search", json.dumps(payload, sort_keys=True))
        spec = TaskSpec(runner=DISCOVER_SEARCH_RUNNER, payload=payload,
                        key=key,
                        label=f"discover:{config.kernel}@{config.core}")
        await self._submit_and_respond(request, body, spec, writer)

    async def _route_drain(self, request: Request,
                           writer: asyncio.StreamWriter) -> None:
        if request.flag("wait"):
            await self.core.drain()
        else:
            self.core.begin_drain()
        writer.write(_response_bytes(200, self.core.healthz()))

    async def _route_jobs(self, request: Request,
                          writer: asyncio.StreamWriter) -> bool:
        parts = request.path.split("/")      # '', 'v1', 'jobs', id[, events]
        try:
            record = self.core.job(parts[3])
        except UnknownJobError:
            raise HttpError(404, f"unknown job {parts[3]!r}")
        if len(parts) == 4:
            writer.write(_response_bytes(
                200, record.to_dict(
                    include_result=request.flag("result"))))
            return True
        if len(parts) == 5 and parts[4] == "events":
            return await self._stream_events(record, writer)
        raise HttpError(404, f"no route for {request.path}")

    async def _stream_events(self, record: Any,
                             writer: asyncio.StreamWriter) -> bool:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        cursor = 0
        try:
            while True:
                while cursor < len(record.events):
                    line = json.dumps(record.events[cursor],
                                      sort_keys=False).encode("utf-8") + b"\n"
                    writer.write(f"{len(line):x}\r\n".encode("latin-1")
                                 + line + b"\r\n")
                    cursor += 1
                await writer.drain()
                if record.done and cursor >= len(record.events):
                    break
                await record.wait_event(cursor)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False


__all__ = [
    "CompileServerApp",
    "DEFAULT_ALLOWED_RUNNERS",
    "HttpError",
    "Request",
]
