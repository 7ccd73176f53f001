"""Run a job list, in input order, on the compile-server core.

The executor takes a list of :class:`TaskSpec` — a picklable unit of work
naming a module-level *runner* function plus a JSON-able payload — and
returns one :class:`JobOutcome` per spec **in input order**, regardless of
completion order, so grid sweeps stay deterministic.

:meth:`BatchExecutor.run_specs` is a short in-process session of
:class:`repro.server.core.CompileServer`, the one engine behind every job
list, so the batch CLI, fuzz campaigns, discovery pricing, the DSE sweep
and ``repro serve`` share one implementation of:

* **artifact cache short-circuit** — specs carrying a content digest are
  served from :class:`repro.service.cache.ArtifactCache` without touching
  a worker; duplicate keys in one list share one execution,
* **per-job timeout** (pooled runs) — a job blocking longer than
  ``timeout_s`` is marked failed and the process pool is replaced, as it
  is when a worker dies (a stuck solver cannot wedge the whole batch),
* **retry-once-on-failure** (configurable ``retries``) — transient
  failures retry after exponential backoff with deterministic jitter
  (:func:`retry_backoff_s`) so a flaky shared resource is not hammered in
  lock-step,
* ``workers <= 1`` runs the jobs one at a time on a worker thread, which
  is what the unit tests and the default :func:`repro.eval.dse.explore`
  use; more workers run them in a process pool.

:class:`repro.server.client.RemoteExecutor` runs the same job lists on a
running compile server.

The compile runner (:func:`run_compile_payload`) executes one
:class:`repro.service.jobs.CompileJob` through the full Longnail flow with
per-phase instrumentation and returns a JSON-able artifact record.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import importlib
import time
from typing import List, Optional, Sequence, Tuple

from repro.hls.longnail import compile_isax
from repro.service.cache import ArtifactCache
from repro.service.jobs import CompileJob
from repro.service.metrics import BatchMetrics, JobMetrics, PhaseRecorder
from repro.utils.diagnostics import count_by_severity

#: Runner reference for plain compile jobs.
COMPILE_RUNNER = "repro.service.executor:run_compile_payload"


def retry_backoff_s(token: str, attempt: int, base_s: float,
                    cap_s: float = 30.0) -> float:
    """Backoff before retry ``attempt`` (1-based): exponential growth with
    deterministic jitter.

    The raw delay doubles per attempt (``base_s * 2**(attempt-1)``, capped
    at ``cap_s``) and is then scaled into ``[0.5, 1.0)`` of itself by a
    jitter derived from ``sha256(token:attempt)`` — so two jobs retrying at
    the same moment desynchronise, yet the same job retries after the same
    delay on every run (reproducible batches, testable schedules).
    """
    if base_s <= 0.0 or attempt <= 0:
        return 0.0
    raw = min(cap_s, base_s * (2.0 ** (attempt - 1)))
    seed = hashlib.sha256(f"{token}:{attempt}".encode("utf-8")).digest()
    jitter = 0.5 + int.from_bytes(seed[:8], "big") / 2.0 ** 65
    return raw * jitter


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit: runner reference + payload (+ cache key)."""

    runner: str                 # "package.module:function"
    payload: dict               # JSON-able; handed to the runner verbatim
    key: Optional[str] = None   # content digest; None disables caching
    label: str = ""             # display/diagnostic name


@dataclasses.dataclass
class JobOutcome:
    """Result of one spec, cached or executed."""

    spec: TaskSpec
    status: str                 # "ok" | "failed"
    cached: bool
    attempts: int
    seconds: float
    result: Optional[dict] = None
    error: Optional[str] = None
    backoff_seconds: float = 0.0   # total retry backoff this job waited

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _resolve_runner(runner: str):
    module_name, _, func_name = runner.partition(":")
    if not module_name or not func_name:
        raise ValueError(f"runner must be 'module:function', got {runner!r}")
    module = importlib.import_module(module_name)
    return getattr(module, func_name)


def _pool_call(runner: str, payload: dict) -> dict:
    """Top-level (hence picklable) worker entry point."""
    start = time.perf_counter()
    value = _resolve_runner(runner)(payload)
    return {"seconds": time.perf_counter() - start, "value": value}


class BatchExecutor:
    """Runs a job list on an in-process compile server, on one worker
    thread or over ``workers`` worker processes."""

    def __init__(self, workers: int = 1,
                 cache: Optional[ArtifactCache] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = 1,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 30.0) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        self.workers = workers
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s

    def run_specs(self, specs: Sequence[TaskSpec]) -> List[JobOutcome]:
        """Run every spec in one in-process compile-server session;
        returns one outcome per spec, in input order."""
        if not specs:
            return []
        return asyncio.run(self._session(specs))

    async def _session(self, specs: Sequence[TaskSpec]) -> List[JobOutcome]:
        # Imported here: the server core imports this module.  The server
        # is built inside the running loop because on Python 3.9 its queue
        # binds to the thread's current loop.
        from repro.server.core import CompileServer, job_outcome

        pooled = self.workers > 1
        server = CompileServer(
            workers=min(self.workers, len(specs)) if pooled else 1,
            backend="process" if pooled else "thread",
            max_queue_depth=len(specs),
            retries=self.retries,
            backoff_base_s=self.backoff_base_s,
            backoff_cap_s=self.backoff_cap_s,
            # An in-process job cannot be interrupted.
            timeout_s=self.timeout_s if pooled else None,
            disk_cache=self.cache,
        )
        await server.start()
        try:
            records = [await server.submit(spec) for spec in specs]
            for record in records:
                await record.wait()
        finally:
            await server.close(drain=False)
        return [job_outcome(record.spec, record.to_dict(include_result=True))
                for record in records]

    # -- compile-grid convenience ------------------------------------------
    def run_compile_jobs(self, jobs: Sequence[CompileJob]
                         ) -> Tuple[List[JobOutcome], BatchMetrics]:
        """Run a compile grid; returns (outcomes, phase-level metrics)."""
        specs = [
            TaskSpec(runner=COMPILE_RUNNER, payload=job.to_payload(),
                     key=job.cache_key(), label=job.job_id)
            for job in jobs
        ]
        outcomes = self.run_specs(specs)
        metrics = BatchMetrics(
            workers=self.workers,
            cache_stats=(self.cache.stats.to_dict()
                         if self.cache is not None else None),
        )
        for job, outcome in zip(jobs, outcomes):
            metrics.add(JobMetrics.from_result(
                job.job_id, job.isax, job.core_label, outcome.status,
                outcome.cached, outcome.attempts, outcome.seconds,
                outcome.result, outcome.error))
        return outcomes, metrics


def run_compile_payload(payload: dict) -> dict:
    """Execute one compile job end-to-end; returns the artifact record.

    This is the runner the pool workers invoke; everything in and out is
    plain JSON-able data.
    """
    job = CompileJob.from_payload(payload)
    recorder = PhaseRecorder()
    datasheet = job.resolve_datasheet()
    artifact = compile_isax(
        job.source, datasheet, top=job.top, engine=job.engine,
        cycle_time_ns=job.cycle_time_ns, phase_hook=recorder,
        opt=job.opt_options(),
    )
    emit_start = time.perf_counter()
    verilog = artifact.verilog
    config_yaml = artifact.config_yaml
    recorder("emit", time.perf_counter() - emit_start)

    ilp_stats = []
    functionalities = []
    for name, functionality in artifact.functionalities.items():
        schedule = functionality.schedule
        functionalities.append({
            "name": name,
            "kind": functionality.kind,
            "mode": functionality.mode.value,
            "makespan": schedule.makespan,
        })
        entry = {
            "functionality": name,
            "engine": schedule.engine,
            "operations": len(schedule.graph.operations),
            "dependences": len(schedule.problem.dependences),
            "makespan": schedule.makespan,
            "objective": schedule.objective,
            "chain_breakers": schedule.chain_breakers,
        }
        if schedule.stats is not None:
            entry.update({
                "components": schedule.stats.components,
                "schedule_cache_hits": schedule.stats.cache_hits,
                "schedule_cache_misses": schedule.stats.cache_misses,
                "solve_seconds": round(schedule.stats.solve_seconds, 6),
            })
        ilp_stats.append(entry)

    return {
        "isax": artifact.name,
        "job_isax": job.isax,
        "core": artifact.core_name,
        "engine": job.engine,
        "cycle_time_ns": job.cycle_time_ns,
        "source_digest": job.source_digest,
        "verilog": verilog,
        "config_yaml": config_yaml,
        "functionalities": functionalities,
        "phases": recorder.to_dict(),
        "ilp": ilp_stats,
        "lint": [diag.to_dict() for diag in artifact.diagnostics],
        "lint_counts": count_by_severity(artifact.diagnostics),
        "optimizer": (artifact.optimizer.to_dict()
                      if artifact.optimizer is not None else {}),
    }
