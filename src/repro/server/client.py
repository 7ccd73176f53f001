"""Async client for the compile server (stdlib asyncio streams only).

Mirror image of :mod:`repro.server.http`: every call opens one HTTP/1.1
connection (``Connection: close``), so thousands of client coroutines can
talk to one server concurrently without shared connection state — the
load-generator benchmark drives exactly this path.  2xx answers return the
decoded JSON document; anything else raises
:class:`CompileServerError` carrying the HTTP status and error payload
(``err.status == 429`` with ``err.retry_after_s`` is the back-pressure
signal callers should spread out on).

Usage::

    client = CompileServerClient("http://127.0.0.1:8080")
    job = await client.compile(isax="dotprod", core="VexRiscv",
                               priority="interactive")
    print(job["state"], job["result"]["verilog"][:40])
    async for event in client.events(job["job_id"]):
        print(event)

:class:`RemoteExecutor` runs a list of
:class:`repro.service.executor.TaskSpec` on a server, the way
:class:`repro.service.executor.BatchExecutor` runs one in-process::

    outcomes = RemoteExecutor("http://127.0.0.1:8080").run_specs(specs)
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from typing import Any, AsyncIterator, Dict, List, Optional, Sequence, Tuple

from repro.server.core import job_outcome
from repro.service.executor import JobOutcome, TaskSpec


class CompileServerError(Exception):
    """Non-2xx answer from the server."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(payload.get("error", f"HTTP {status}"))
        self.status = status
        self.payload = payload

    @property
    def retry_after_s(self) -> Optional[float]:
        value = self.payload.get("retry_after_s")
        return float(value) if value is not None else None


class CompileServerClient:
    """Thin async wrapper over the server's JSON API."""

    def __init__(self, url: str, timeout_s: float = 120.0) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// URLs are supported, got {url!r}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.timeout_s = timeout_s

    # -- raw HTTP ------------------------------------------------------------
    async def _open(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.open_connection(self.host, self.port)

    def _head(self, method: str, path: str, body: bytes) -> bytes:
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Connection: close",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader
                         ) -> Tuple[int, Dict[str, str]]:
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    async def _request(self, method: str, path: str,
                       body: Optional[dict] = None) -> dict:
        payload = json.dumps(body).encode("utf-8") if body is not None \
            else b""
        reader, writer = await self._open()
        try:
            writer.write(self._head(method, path, payload) + payload)
            await writer.drain()
            status, headers = await asyncio.wait_for(
                self._read_head(reader), timeout=self.timeout_s)
            length = headers.get("content-length")
            if length is not None:
                raw = await asyncio.wait_for(
                    reader.readexactly(int(length)), timeout=self.timeout_s)
            else:
                raw = await asyncio.wait_for(
                    reader.read(), timeout=self.timeout_s)
            doc = json.loads(raw.decode("utf-8")) if raw else {}
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if status >= 300:
            raise CompileServerError(
                status, doc if isinstance(doc, dict) else {"error": str(doc)})
        return doc

    # -- API -----------------------------------------------------------------
    async def healthz(self) -> dict:
        return await self._request("GET", "/v1/healthz")

    async def metrics(self) -> dict:
        return await self._request("GET", "/v1/metrics")

    async def drain(self, wait: bool = False) -> dict:
        path = "/v1/drain" + ("?wait=1" if wait else "")
        return await self._request("POST", path)

    async def compile(self, *, isax: Optional[str] = None,
                      source: Optional[str] = None,
                      core: str = "VexRiscv",
                      engine: str = "auto",
                      cycle_time_ns: Optional[float] = None,
                      top: Optional[str] = None,
                      datasheet_yaml: Optional[str] = None,
                      priority: str = "batch",
                      opt_level: int = 0,
                      opt_passes: Optional[Sequence[str]] = None,
                      wait: bool = True,
                      include_result: bool = True) -> dict:
        body: Dict[str, Any] = {"priority": priority, "wait": wait,
                                "result": include_result}
        if opt_level:
            body["opt_level"] = opt_level
        if opt_passes:
            body["opt_passes"] = list(opt_passes)
        if isax is not None:
            body["isax"] = isax
        if source is not None:
            body["source"] = source
        if datasheet_yaml is not None:
            body["datasheet_yaml"] = datasheet_yaml
        else:
            body["core"] = core
        if engine != "auto":
            body["engine"] = engine
        if cycle_time_ns is not None:
            body["cycle_time_ns"] = cycle_time_ns
        if top is not None:
            body["top"] = top
        return await self._request("POST", "/v1/compile", body)

    async def submit_task(self, runner: str, payload: dict,
                          key: Optional[str] = None, label: str = "",
                          priority: str = "batch", wait: bool = True,
                          include_result: bool = True) -> dict:
        body = {
            "runner": runner, "payload": payload, "key": key,
            "label": label, "priority": priority, "wait": wait,
            "result": include_result,
        }
        return await self._request("POST", "/v1/tasks", body)

    async def discover(self, kernel: str, priority: str = "batch",
                       wait: bool = True, include_result: bool = True,
                       **config: object) -> dict:
        """Run one ISAX discovery search on the server.

        ``config`` takes any :class:`repro.discover.search.DiscoveryConfig`
        field (``params``, ``core``, ``budget``, ``trials``, ...)."""
        body: dict = {"kernel": kernel, "priority": priority,
                      "wait": wait, "result": include_result}
        body.update(config)
        return await self._request("POST", "/v1/discover", body)

    async def job(self, job_id: str, include_result: bool = False) -> dict:
        path = f"/v1/jobs/{job_id}" + ("?result=1" if include_result else "")
        return await self._request("GET", path)

    async def events(self, job_id: str) -> AsyncIterator[dict]:
        """Stream the job's NDJSON trace until it reaches a terminal
        state.  Yields one dict per event."""
        reader, writer = await self._open()
        try:
            writer.write(self._head("GET", f"/v1/jobs/{job_id}/events", b""))
            await writer.drain()
            status, headers = await asyncio.wait_for(
                self._read_head(reader), timeout=self.timeout_s)
            if status >= 300:
                raw = b""
                length = headers.get("content-length")
                if length:
                    raw = await reader.readexactly(int(length))
                doc = json.loads(raw.decode("utf-8")) if raw else {}
                raise CompileServerError(status, doc)
            buffer = b""
            async for chunk in self._iter_chunks(reader):
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line.decode("utf-8"))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _iter_chunks(reader: asyncio.StreamReader
                           ) -> AsyncIterator[bytes]:
        while True:
            size_line = await reader.readline()
            size = int(size_line.strip() or b"0", 16)
            if size == 0:
                await reader.readline()          # trailing CRLF
                return
            chunk = await reader.readexactly(size)
            await reader.readexactly(2)          # chunk CRLF
            yield chunk

    async def wait_ready(self, timeout_s: float = 15.0,
                         interval_s: float = 0.1) -> dict:
        """Poll ``/v1/healthz`` until the server answers (or raise)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        last_error: Optional[Exception] = None
        while loop.time() < deadline:
            try:
                return await self.healthz()
            except (ConnectionError, OSError, asyncio.TimeoutError) as err:
                last_error = err
                await asyncio.sleep(interval_s)
        raise ConnectionError(
            f"server at {self.host}:{self.port} not ready after "
            f"{timeout_s:g}s: {last_error}")


class RemoteExecutor:
    """Runs a job list on a running compile server (``POST /v1/tasks``),
    one outcome per spec in input order, like
    :meth:`repro.service.executor.BatchExecutor.run_specs`."""

    def __init__(self, url: str, priority: str = "batch") -> None:
        self.url = url
        self.priority = priority

    def run_specs(self, specs: Sequence[TaskSpec]) -> List[JobOutcome]:
        async def _submit_all() -> list:
            client = CompileServerClient(self.url)
            return await asyncio.gather(*[
                client.submit_task(
                    runner=spec.runner, payload=spec.payload, key=spec.key,
                    label=spec.label, priority=self.priority, wait=True)
                for spec in specs
            ], return_exceptions=True)

        outcomes: List[JobOutcome] = []
        for spec, job in zip(specs, asyncio.run(_submit_all())):
            if isinstance(job, BaseException):
                # Transport failure (refused, 429, 503, timeout): the job
                # never reached a terminal state on the server.
                outcomes.append(JobOutcome(
                    spec=spec, status="failed", cached=False, attempts=1,
                    seconds=0.0, error=f"{type(job).__name__}: {job}"))
            else:
                outcomes.append(job_outcome(spec, job))
        return outcomes


__all__ = ["CompileServerClient", "CompileServerError", "RemoteExecutor"]
