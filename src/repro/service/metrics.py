"""Phase-level instrumentation for the batch compilation service.

Every job records wall-clock seconds per compilation phase (the
:data:`repro.hls.longnail.PHASES` boundaries) plus the ILP scheduling
statistics of every functionality it produced — operation count, makespan,
objective value, chain breakers, and which solver engine actually ran.
:class:`BatchMetrics` aggregates one executor run and dumps it as JSON for
the benchmark harness.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from typing import Dict, List, Optional

from repro.hls.longnail import PHASES


class PhaseRecorder:
    """Accumulating ``(phase, seconds)`` observer for ``compile_isax``."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def __call__(self, phase: str, seconds: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds

    def to_dict(self) -> Dict[str, float]:
        return {phase: round(self.seconds.get(phase, 0.0), 6)
                for phase in PHASES}


@dataclasses.dataclass
class JobMetrics:
    """Instrumentation for one executed (or cache-served) job."""

    job_id: str
    isax: str
    core: str
    status: str                        # "ok" | "failed"
    cached: bool
    attempts: int
    seconds: float                     # end-to-end wall time for the job
    phases: Dict[str, float]           # per-phase seconds (compile jobs)
    ilp: List[dict]                    # per-functionality scheduler stats
    lint: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Optimizer report (``OptimizerReport.to_dict``); empty at -O0.
    optimizer: Dict[str, object] = dataclasses.field(default_factory=dict)
    error: Optional[str] = None

    @classmethod
    def from_result(cls, job_id: str, isax: str, core: str, status: str,
                    cached: bool, attempts: int, seconds: float,
                    result: Optional[dict],
                    error: Optional[str]) -> "JobMetrics":
        """Metrics of one finished job; phases, scheduler, lint and
        optimizer stats come from its result record (compile jobs carry
        them, other runners leave them empty)."""
        record = result if isinstance(result, dict) else {}
        return cls(
            job_id=job_id, isax=isax, core=core, status=status,
            cached=cached, attempts=attempts, seconds=seconds,
            phases=record.get("phases", {}),
            ilp=record.get("ilp", []),
            lint=record.get("lint_counts", {}),
            optimizer=record.get("optimizer", {}),
            error=error,
        )

    def to_dict(self) -> dict:
        doc = {
            "job_id": self.job_id,
            "isax": self.isax,
            "core": self.core,
            "status": self.status,
            "cached": self.cached,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 6),
            "phases": {k: round(v, 6) for k, v in self.phases.items()},
            "ilp": self.ilp,
            "lint": self.lint,
            "optimizer": self.optimizer,
        }
        if self.error:
            doc["error"] = self.error
        return doc


@dataclasses.dataclass
class BatchMetrics:
    """All instrumentation produced by one executor run."""

    jobs: List[JobMetrics] = dataclasses.field(default_factory=list)
    cache_stats: Optional[dict] = None
    workers: int = 1
    #: Extra section contributed by the long-lived compile server
    #: (queue/coalesce/latency counters); absent for plain batch runs.
    server: Optional[dict] = None

    def add(self, job: JobMetrics) -> None:
        self.jobs.append(job)

    # -- aggregates ---------------------------------------------------------
    @property
    def ok(self) -> int:
        return sum(1 for j in self.jobs if j.status == "ok")

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.status != "ok")

    @property
    def cached(self) -> int:
        return sum(1 for j in self.jobs if j.cached)

    def phase_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        for job in self.jobs:
            for phase, seconds in job.phases.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return {k: round(v, 6) for k, v in totals.items()}

    def scheduler_totals(self) -> Dict[str, object]:
        """Aggregate solver stats over every scheduled graph in the batch:
        engine usage, graph sizes, schedule-cache hit rate, solve time."""
        engines: Dict[str, int] = {}
        graphs = operations = dependences = components = 0
        hits = misses = 0
        seconds = 0.0
        for job in self.jobs:
            for entry in job.ilp:
                graphs += 1
                engine = entry.get("engine", "unknown")
                engines[engine] = engines.get(engine, 0) + 1
                operations += entry.get("operations", 0)
                dependences += entry.get("dependences", 0)
                components += entry.get("components", 0)
                hits += entry.get("schedule_cache_hits", 0)
                misses += entry.get("schedule_cache_misses", 0)
                seconds += entry.get("solve_seconds", 0.0)
        lookups = hits + misses
        return {
            "graphs": graphs,
            "engines": engines,
            "operations": operations,
            "dependences": dependences,
            "components": components,
            "schedule_cache_hits": hits,
            "schedule_cache_misses": misses,
            "schedule_cache_hit_rate": (
                round(hits / lookups, 4) if lookups else 0.0
            ),
            "solve_seconds": round(seconds, 6),
        }

    def optimizer_totals(self) -> Dict[str, object]:
        """Optimizer activity summed over every job in the batch: graphs
        rewritten, node counts before/after, per-pass op counts and time."""
        jobs = graphs = 0
        nodes_before = nodes_after = removed = rewritten = 0
        seconds = 0.0
        passes: Dict[str, Dict[str, float]] = {}
        for job in self.jobs:
            report = job.optimizer or {}
            if not report:
                continue
            jobs += 1
            graphs += int(report.get("graphs", 0))
            nodes_before += int(report.get("nodes_before", 0))
            nodes_after += int(report.get("nodes_after", 0))
            removed += int(report.get("ops_removed", 0))
            rewritten += int(report.get("ops_rewritten", 0))
            seconds += float(report.get("seconds", 0.0))
            for name, stats in (report.get("passes") or {}).items():
                entry = passes.setdefault(
                    name, {"runs": 0, "ops_removed": 0,
                           "ops_rewritten": 0, "seconds": 0.0},
                )
                entry["runs"] += int(stats.get("runs", 0))
                entry["ops_removed"] += int(stats.get("ops_removed", 0))
                entry["ops_rewritten"] += int(stats.get("ops_rewritten", 0))
                entry["seconds"] += float(stats.get("seconds", 0.0))
        reduction = (100.0 * (nodes_before - nodes_after) / nodes_before
                     if nodes_before else 0.0)
        for entry in passes.values():
            entry["seconds"] = round(entry["seconds"], 6)
        return {
            "jobs": jobs,
            "graphs": graphs,
            "nodes_before": nodes_before,
            "nodes_after": nodes_after,
            "node_reduction_pct": round(reduction, 2),
            "ops_removed": removed,
            "ops_rewritten": rewritten,
            "seconds": round(seconds, 6),
            "passes": passes,
        }

    def lint_totals(self) -> Dict[str, int]:
        """Lint findings summed over every job in the batch, by severity."""
        totals: Dict[str, int] = {"error": 0, "warning": 0, "note": 0}
        for job in self.jobs:
            for severity, count in job.lint.items():
                totals[severity] = totals.get(severity, 0) + count
        return totals

    def to_dict(self) -> dict:
        doc = {
            "workers": self.workers,
            "jobs_total": len(self.jobs),
            "jobs_ok": self.ok,
            "jobs_failed": self.failed,
            "jobs_cached": self.cached,
            "phase_totals_s": self.phase_totals(),
            "scheduler": self.scheduler_totals(),
            "optimizer": self.optimizer_totals(),
            "lint_totals": self.lint_totals(),
            "cache": self.cache_stats,
            "jobs": [job.to_dict() for job in self.jobs],
        }
        if self.server is not None:
            doc["server"] = self.server
        return doc

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def dump(self, path: os.PathLike) -> pathlib.Path:
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target
