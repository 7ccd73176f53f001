"""Scheduling core of the long-lived compile server.

This is the transport-agnostic engine behind every job list: the HTTP
front-end (:mod:`repro.server.http`) drives a long-lived instance, and
:meth:`repro.service.executor.BatchExecutor.run_specs` a short in-process
session.  A single asyncio event loop owns every queue and counter, worker
coroutines fan job execution out to a thread or process pool, and results
flow back through the same content-addressed caches the ``batch`` CLI
uses — so a warm server answers in memory-lookup time and its artifacts
are byte-identical to a cold CLI run.

The pieces, in request order:

* **warm cache tier** — an in-process LRU of recent records in front of an
  optional on-disk cache (typically
  :class:`repro.service.cache.ShardedArtifactCache`); a hit completes the
  job at submit time without touching the queue,
* **request coalescing** — a submission whose content digest matches an
  in-flight job attaches to it as a *follower* and shares its single
  execution (N identical concurrent requests -> 1 compile, N results),
* **priority queue with back-pressure** — three levels
  (``interactive`` > ``batch`` > ``background``), FIFO within a level,
  bounded depth; a full queue rejects with :class:`QueueFullError`
  (HTTP 429 upstream) instead of buffering unboundedly,
* **retry with deterministic backoff** — failed executions retry after
  :func:`repro.service.executor.retry_backoff_s`,
* **crash recovery** — a dead process-pool worker or a timed-out job
  replaces the process pool, and the job fails or retries like any other,
* **graceful drain** — :meth:`CompileServer.drain` stops intake
  (:class:`DrainingError`, HTTP 503 upstream) and waits for every accepted
  job to reach a terminal state; SIGTERM in the CLI triggers it,
* **tracing** — every job carries an event log (submitted / coalesced /
  started / retry / finished with queue-wait and phase timings) that the
  HTTP layer streams as NDJSON, and server-wide counters fold into the
  :class:`repro.service.metrics.BatchMetrics` JSON under ``"server"``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import dataclasses
import time
from collections import OrderedDict, deque
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.service.executor import (
    COMPILE_RUNNER,
    JobOutcome,
    TaskSpec,
    _pool_call,
    retry_backoff_s,
)
from repro.service.metrics import BatchMetrics, JobMetrics

#: Priority levels in scheduling order (lower rank runs first).
PRIORITIES: Dict[str, int] = {"interactive": 0, "batch": 1, "background": 2}

#: Terminal job states.
TERMINAL_STATES = ("ok", "failed")


class ServerRejection(Exception):
    """Base class for submissions the server refuses to accept."""

    status = 503


class QueueFullError(ServerRejection):
    """Bounded queue is at capacity — explicit back-pressure (HTTP 429)."""

    status = 429

    def __init__(self, depth: int, retry_after_s: float) -> None:
        super().__init__(
            f"queue full ({depth} jobs queued); retry in {retry_after_s:g}s"
        )
        self.depth = depth
        self.retry_after_s = retry_after_s


class DrainingError(ServerRejection):
    """Server is draining and no longer accepts work (HTTP 503)."""

    status = 503

    def __init__(self) -> None:
        super().__init__("server is draining; no new jobs accepted")


class UnknownJobError(KeyError):
    """No record for the requested job id (expired or never existed)."""

    def __init__(self, job_id: str) -> None:
        super().__init__(job_id)
        self.job_id = job_id


@dataclasses.dataclass
class ServerCounters:
    """Monotonic accounting for one server lifetime."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    executions: int = 0            # backend runner invocations (incl. retries)
    coalesced: int = 0             # followers attached to an in-flight job
    cache_hits_memory: int = 0
    cache_hits_disk: int = 0
    cache_misses: int = 0
    rejected_queue_full: int = 0
    rejected_draining: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class JobRecord:
    """One accepted request: state, timings, trace events, result."""

    def __init__(self, job_id: str, spec: TaskSpec, priority: str) -> None:
        self.job_id = job_id
        self.spec = spec
        self.priority = priority
        self.state = "queued"
        self.cached: Optional[str] = None       # None | "memory" | "disk"
        self.coalesced_into: Optional[str] = None
        self.followers: List["JobRecord"] = []
        self.attempts = 0
        self.backoff_seconds = 0.0
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        # The only wall-clock read in the record: every trace timestamp
        # is this anchor plus a monotonic delta, so the event stream and
        # the latency fields share one clock and can never run backwards
        # under wall-clock steps (NTP slew, manual adjustment).
        self.submitted_at = time.time()
        self.queue_wait_s: Optional[float] = None
        self.run_s: Optional[float] = None
        self.total_s: Optional[float] = None
        self.events: List[dict] = []
        self._submit_mono = time.monotonic()
        self._start_mono: Optional[float] = None
        self._waiters: List["asyncio.Future[None]"] = []

    # -- lifecycle -----------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def add_event(self, event: str, **fields: Any) -> None:
        ts = self.submitted_at + (time.monotonic() - self._submit_mono)
        entry = {"ts": round(ts, 6), "event": event}
        entry.update(fields)
        self.events.append(entry)
        self._wake_waiters()

    def _wake_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def mark_started(self) -> None:
        self.state = "running"
        self._start_mono = time.monotonic()
        self.queue_wait_s = self._start_mono - self._submit_mono
        self.add_event("started", queue_wait_s=round(self.queue_wait_s, 6))

    def finalize(self, state: str, result: Optional[dict] = None,
                 error: Optional[str] = None) -> None:
        self.state = state
        self.result = result
        self.error = error
        now = time.monotonic()
        self.total_s = now - self._submit_mono
        if self._start_mono is not None:
            self.run_s = now - self._start_mono
        fields: Dict[str, Any] = {
            "state": state, "total_s": round(self.total_s, 6),
        }
        if isinstance(result, dict) and "phases" in result:
            fields["phases"] = result["phases"]
        if error:
            fields["error"] = error.splitlines()[0]
        self.add_event("finished", **fields)

    async def wait(self) -> "JobRecord":
        """Block until the job reaches a terminal state."""
        while not self.done:
            await self.wait_event(len(self.events))
        return self

    async def wait_event(self, cursor: int) -> int:
        """Block until there are more than ``cursor`` events (or terminal).

        Returns the new event count; used by the NDJSON streamer."""
        if len(self.events) > cursor or self.done:
            return len(self.events)
        waiter: "asyncio.Future[None]" = \
            asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        await waiter
        return len(self.events)

    # -- presentation --------------------------------------------------------
    def to_dict(self, include_result: bool = False) -> dict:
        doc: Dict[str, Any] = {
            "job_id": self.job_id,
            "label": self.spec.label,
            "priority": self.priority,
            "state": self.state,
            "cached": self.cached,
            "coalesced": self.coalesced_into is not None,
            "coalesced_into": self.coalesced_into,
            "attempts": self.attempts,
            "backoff_seconds": round(self.backoff_seconds, 6),
            "submitted_at": round(self.submitted_at, 6),
            "queue_wait_s": (round(self.queue_wait_s, 6)
                             if self.queue_wait_s is not None else None),
            "run_s": (round(self.run_s, 6)
                      if self.run_s is not None else None),
            "total_s": (round(self.total_s, 6)
                        if self.total_s is not None else None),
            "error": self.error,
        }
        if include_result:
            doc["result"] = self.result
        return doc


def job_outcome(spec: TaskSpec, job: dict) -> JobOutcome:
    """The :class:`JobOutcome` of one terminal job document
    (:meth:`JobRecord.to_dict`, in-process or received over HTTP).  Its
    time is the run time of a job that ran, else the time until it was
    served (a cache lookup, or the wait on a coalesced primary)."""
    ok = job.get("state") == "ok"
    seconds = job.get("run_s")
    if seconds is None:
        seconds = job.get("total_s")
    return JobOutcome(
        spec=spec,
        status="ok" if ok else "failed",
        cached=job.get("cached") is not None,
        attempts=int(job.get("attempts") or 0),
        seconds=float(seconds or 0.0),
        result=job.get("result") if ok else None,
        error=None if ok else str(job.get("error")),
        backoff_seconds=float(job.get("backoff_seconds") or 0.0),
    )


def _percentiles(samples: List[float]) -> dict:
    """Nearest-rank percentile summary over latency samples (milliseconds)."""
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)
    pick = lambda q: ordered[min(len(ordered) - 1,    # noqa: E731
                                 int(q * len(ordered)))]
    return {
        "count": len(ordered),
        "p50_ms": round(pick(0.50) * 1000.0, 3),
        "p90_ms": round(pick(0.90) * 1000.0, 3),
        "p99_ms": round(pick(0.99) * 1000.0, 3),
        "max_ms": round(ordered[-1] * 1000.0, 3),
    }


class CompileServer:
    """The long-lived scheduling core.  Create, ``await start()``, submit
    :class:`repro.service.executor.TaskSpec` work, ``await close()``.

    ``backend`` picks the execution pool: ``"thread"`` (default; shares the
    interpreter, zero pickling cost — right for tests and modest loads) or
    ``"process"`` (true parallelism across cores for heavy traffic).
    ``"auto"`` chooses ``process`` when ``workers > 1``.
    """

    def __init__(self,
                 workers: int = 2,
                 backend: str = "thread",
                 max_queue_depth: int = 256,
                 retries: int = 1,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 30.0,
                 timeout_s: Optional[float] = None,
                 disk_cache: Optional[Any] = None,
                 memory_entries: int = 2048,
                 job_history: int = 4096,
                 metrics_window: int = 1024) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if backend == "auto":
            backend = "process" if workers > 1 else "thread"
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        self.workers = workers
        self.backend = backend
        self.max_queue_depth = max_queue_depth
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.timeout_s = timeout_s
        self.disk_cache = disk_cache
        self.memory_entries = memory_entries
        self.job_history = job_history
        self.counters = ServerCounters()

        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        self._jobs: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._inflight: Dict[str, str] = {}      # content digest -> job id
        self._queue: "asyncio.PriorityQueue[Tuple[int, int, str]]" = \
            asyncio.PriorityQueue()
        self._seq = 0
        self._job_seq = 0
        self._open = 0                           # accepted, not yet terminal
        self._idle_waiters: List["asyncio.Future[None]"] = []
        self._worker_tasks: List["asyncio.Task[None]"] = []
        self._pool: Optional[concurrent.futures.Executor] = None
        self._draining = False
        self._started = False
        self._start_mono = time.monotonic()
        self._latency: Deque[Tuple[str, float, float, bool]] = \
            deque(maxlen=8192)                   # (priority, total, wait, warm)
        self._recent_metrics: Deque[JobMetrics] = deque(maxlen=metrics_window)

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "CompileServer":
        if self._started:
            return self
        self._pool = self._new_pool()
        self._worker_tasks = [
            asyncio.get_running_loop().create_task(self._worker())
            for _ in range(self.workers)
        ]
        self._started = True
        self._start_mono = time.monotonic()
        return self

    def _new_pool(self) -> concurrent.futures.Executor:
        if self.backend == "process":
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers)
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="compile-server")

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._start_mono

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def open_jobs(self) -> int:
        return self._open

    def begin_drain(self) -> None:
        """Stop accepting work without waiting (see :meth:`drain`)."""
        self._draining = True

    async def drain(self) -> None:
        """Stop accepting work and wait until every accepted job is done."""
        self._draining = True
        while self._open:
            waiter: "asyncio.Future[None]" = \
                asyncio.get_running_loop().create_future()
            self._idle_waiters.append(waiter)
            await waiter

    async def close(self, drain: bool = True) -> None:
        """Shut down: optionally drain first, then stop workers and pool."""
        if drain and self._started:
            await self.drain()
        self._draining = True
        for _ in self._worker_tasks:
            # Sentinel rank -1 sorts ahead of every real job; by now the
            # queue is empty (drained) or abandoned (hard stop).
            self._queue.put_nowait((-1, self._next_seq(), ""))
        for task in self._worker_tasks:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):   # noqa: BLE001
                pass
        self._worker_tasks = []
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self._started = False

    # -- submission ----------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _new_record(self, spec: TaskSpec, priority: str) -> JobRecord:
        self._job_seq += 1
        record = JobRecord(f"j{self._job_seq:08d}", spec, priority)
        self._jobs[record.job_id] = record
        # Bound the history: drop oldest *terminal* records beyond budget.
        while len(self._jobs) > self.job_history:
            for job_id, old in self._jobs.items():
                if old.done:
                    del self._jobs[job_id]
                    break
            else:
                break
        return record

    async def submit(self, spec: TaskSpec,
                     priority: str = "batch") -> JobRecord:
        """Accept one task; returns its :class:`JobRecord` immediately.

        May raise :class:`DrainingError` or :class:`QueueFullError` — the
        *only* two refusals; an accepted job always reaches a terminal
        state, observable via :meth:`JobRecord.wait`.
        """
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r}; expected one of "
                + ", ".join(PRIORITIES))
        if self._draining:
            self.counters.rejected_draining += 1
            raise DrainingError()
        if not self._started:
            raise RuntimeError("server not started; call start() first")
        self.counters.submitted += 1
        record = self._new_record(spec, priority)
        record.add_event("submitted", priority=priority, label=spec.label)

        if spec.key:
            # Warm tier: memory, then disk.
            hit = self._memory_get(spec.key)
            if hit is not None:
                self.counters.cache_hits_memory += 1
                record.cached = "memory"
                record.finalize("ok", result=hit)
                self.counters.completed += 1
                self._note_latency(record)
                self._note_metrics(record)
                return record
            if self.disk_cache is not None:
                try:
                    disk_hit = self.disk_cache.get(spec.key)
                except ValueError:
                    # The cache refuses to address this key (malformed
                    # digest).  Reject the submission and leave no
                    # phantom queued record behind.
                    del self._jobs[record.job_id]
                    raise
                if disk_hit is not None:
                    self.counters.cache_hits_disk += 1
                    self._memory_put(spec.key, disk_hit)
                    record.cached = "disk"
                    record.finalize("ok", result=disk_hit)
                    self.counters.completed += 1
                    self._note_latency(record)
                    self._note_metrics(record)
                    return record
            self.counters.cache_misses += 1
            # Coalesce onto an identical in-flight job.
            primary_id = self._inflight.get(spec.key)
            if primary_id is not None:
                primary = self._jobs[primary_id]
                record.coalesced_into = primary_id
                primary.followers.append(record)
                self.counters.coalesced += 1
                self._open += 1
                record.add_event("coalesced", primary=primary_id)
                return record

        depth = self._queue.qsize()
        if depth >= self.max_queue_depth:
            self.counters.rejected_queue_full += 1
            # A rejected request leaves no job behind.
            del self._jobs[record.job_id]
            retry_after = round(
                max(0.1, 0.05 * depth / max(1, self.workers)), 3)
            raise QueueFullError(depth, retry_after)

        if spec.key:
            self._inflight[spec.key] = record.job_id
        self._open += 1
        self._queue.put_nowait(
            (PRIORITIES[priority], self._next_seq(), record.job_id))
        record.add_event("queued", depth=depth + 1)
        return record

    def job(self, job_id: str) -> JobRecord:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    # -- execution -----------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            rank, _seq, job_id = await self._queue.get()
            try:
                if rank < 0:        # shutdown sentinel
                    return
                record = self._jobs.get(job_id)
                if record is None:
                    continue
                try:
                    await self._execute(record)
                except Exception as err:    # noqa: BLE001
                    # _execute reports job failures through finalize();
                    # anything escaping it would otherwise kill this
                    # worker and leave the job (and drain()) hanging.
                    self._fail_crashed(record, err)
            finally:
                self._queue.task_done()

    def _fail_crashed(self, record: JobRecord, err: BaseException) -> None:
        """Safety net for an exception escaping :meth:`_execute`: finalize
        the job and its followers so every waiter unblocks, the in-flight
        slot frees, and the worker stays alive."""
        message = f"internal error: {type(err).__name__}: {err}"
        if record.spec.key:
            self._inflight.pop(record.spec.key, None)
        followers, record.followers = record.followers, []
        for rec in (record, *followers):
            if not rec.done:
                rec.finalize("failed", error=message)
                self._settle(rec)

    async def _call_backend(self, spec: TaskSpec) -> dict:
        loop = asyncio.get_running_loop()
        pool = self._pool
        try:
            if self.backend == "thread":
                # The job sees the caller's context variables, as it
                # would running inline.
                future = loop.run_in_executor(
                    pool, contextvars.copy_context().run,
                    _pool_call, spec.runner, spec.payload)
            else:
                future = loop.run_in_executor(
                    pool, _pool_call, spec.runner, spec.payload)
            wrapped = await asyncio.wait_for(future, timeout=self.timeout_s)
        except (BrokenProcessPool, asyncio.TimeoutError):
            # A dead worker breaks its whole pool, and a timed-out job
            # keeps its worker busy: give later jobs a fresh pool, once
            # per broken one.  The old pool's other jobs run to the end.
            # A thread cannot be replaced, so the thread pool stays.
            if self.backend == "process" and pool is self._pool \
                    and pool is not None:
                self._pool = self._new_pool()
                pool.shutdown(wait=False)
            raise
        return wrapped["value"]

    async def _execute(self, record: JobRecord) -> None:
        spec = record.spec
        record.mark_started()
        value: Optional[dict] = None
        error: Optional[str] = None
        while True:
            record.attempts += 1
            self.counters.executions += 1
            try:
                value = await self._call_backend(spec)
                error = None
                break
            except asyncio.TimeoutError:
                error = f"timed out after {self.timeout_s:g}s"
            except Exception as err:      # noqa: BLE001 — reported per job
                error = f"{type(err).__name__}: {err}"
            if record.attempts > self.retries:
                break
            delay = retry_backoff_s(
                spec.key or spec.label or spec.runner, record.attempts,
                self.backoff_base_s, self.backoff_cap_s)
            record.backoff_seconds += delay
            record.add_event("retry", attempt=record.attempts,
                             backoff_s=round(delay, 4),
                             error=error.splitlines()[0])
            await asyncio.sleep(delay)

        if error is None and value is not None and spec.key:
            self._memory_put(spec.key, value)
            if self.disk_cache is not None:
                try:
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.disk_cache.put, spec.key, value)
                except Exception as err:    # noqa: BLE001
                    # A cache-write failure (disk full, permissions) must
                    # not fail a job that already computed its result.
                    record.add_event(
                        "cache_write_failed",
                        error=f"{type(err).__name__}: {err}")
        if spec.key:
            self._inflight.pop(spec.key, None)

        state = "ok" if error is None else "failed"
        record.finalize(state, result=value, error=error)
        self._settle(record)
        for follower in record.followers:
            follower.attempts = record.attempts
            follower.finalize(state, result=value, error=error)
            self._settle(follower)
        record.followers = []

    def _settle(self, record: JobRecord) -> None:
        """Book-keeping for one record reaching a terminal state."""
        if record.state == "ok":
            self.counters.completed += 1
        else:
            self.counters.failed += 1
        self._note_latency(record)
        self._note_metrics(record)
        self._open -= 1
        if self._open == 0:
            waiters, self._idle_waiters = self._idle_waiters, []
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_result(None)

    # -- warm memory tier ----------------------------------------------------
    def _memory_get(self, key: str) -> Optional[dict]:
        if self.memory_entries <= 0:
            return None
        record = self._memory.get(key)
        if record is not None:
            self._memory.move_to_end(key)
        return record

    def _memory_put(self, key: str, record: dict) -> None:
        if self.memory_entries <= 0:
            return
        self._memory[key] = record
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # -- metrics -------------------------------------------------------------
    def _note_latency(self, record: JobRecord) -> None:
        self._latency.append((
            record.priority,
            record.total_s or 0.0,
            record.queue_wait_s or 0.0,
            record.cached is not None,
        ))

    def _note_metrics(self, record: JobRecord) -> None:
        """Fold a finished job into the rolling BatchMetrics window."""
        payload = record.spec.payload if isinstance(record.spec.payload,
                                                    dict) else {}
        result = record.result if isinstance(record.result, dict) else {}
        self._recent_metrics.append(JobMetrics.from_result(
            record.job_id, str(payload.get("isax", "")),
            str(payload.get("core", "")) or str(result.get("core", "")),
            record.state, record.cached is not None, record.attempts,
            record.total_s or 0.0, result, record.error))

    def metrics(self) -> dict:
        """One JSON document: the familiar batch-metrics layout over the
        rolling job window, plus the ``"server"`` section with queue,
        coalescing, cache-tier and latency accounting."""
        warm = [t for p, t, w, c in self._latency if c]
        executed = [t for p, t, w, c in self._latency if not c]
        waits = [w for p, t, w, c in self._latency if not c]
        by_priority = {
            name: _percentiles(
                [t for p, t, w, c in self._latency if p == name])
            for name in PRIORITIES
        }
        server = {
            "uptime_s": round(self.uptime_s, 3),
            "workers": self.workers,
            "backend": self.backend,
            "queue": {
                "depth": self.queue_depth,
                "max_depth": self.max_queue_depth,
                "open_jobs": self._open,
                "draining": self._draining,
            },
            "counters": self.counters.to_dict(),
            "memory_cache": {
                "entries": len(self._memory),
                "max_entries": self.memory_entries,
            },
            "latency": {
                "warm": _percentiles(warm),
                "executed": _percentiles(executed),
                "queue_wait": _percentiles(waits),
                "by_priority": by_priority,
            },
        }
        cache_stats = None
        if self.disk_cache is not None:
            to_dict = getattr(self.disk_cache, "to_dict", None)
            cache_stats = (to_dict() if callable(to_dict)
                           else self.disk_cache.stats.to_dict())
        batch = BatchMetrics(
            jobs=list(self._recent_metrics),
            cache_stats=cache_stats,
            workers=self.workers,
            server=server,
        )
        return batch.to_dict()

    def healthz(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(self.uptime_s, 3),
            "queue_depth": self.queue_depth,
            "open_jobs": self._open,
            "workers": self.workers,
            "backend": self.backend,
        }


__all__ = [
    "COMPILE_RUNNER",
    "CompileServer",
    "DrainingError",
    "JobRecord",
    "PRIORITIES",
    "QueueFullError",
    "ServerCounters",
    "ServerRejection",
    "TaskSpec",
    "UnknownJobError",
    "job_outcome",
]
