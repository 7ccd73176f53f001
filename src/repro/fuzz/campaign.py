"""Campaign driver: fan seeds through the executor, reduce, and persist.

One seed = one :class:`~repro.service.executor.TaskSpec` running
:func:`run_fuzz_payload` (generate the program, run the oracle stack) in a
worker process; reduction of the (rare) failures happens in the parent so
the delta-debugging predicate can reuse the in-process compile caches.
Failures are deduplicated into a :class:`~repro.fuzz.corpus.FuzzCorpus`
and summarized in ``<out>/stats.json``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.fuzz.corpus import FuzzCorpus
from repro.fuzz.generator import FuzzBudget, generate_program
from repro.fuzz.oracles import DEFAULT_CORES, _resolve_oracles, run_oracles
from repro.fuzz.reduce import reduce_program
from repro.ir.core import IRError
from repro.service.executor import BatchExecutor, TaskSpec
from repro.sim.compile import resolve_engine

#: Runner reference used in the per-seed task specs.
FUZZ_RUNNER = "repro.fuzz.campaign:run_fuzz_payload"


@dataclasses.dataclass
class FuzzConfig:
    """Knobs for one fuzzing campaign."""

    seeds: int = 50
    seed_start: int = 0
    budget: Optional[FuzzBudget] = None      # None => FuzzBudget() defaults
    cores: Tuple[str, ...] = ()              # () => DEFAULT_CORES
    trials: int = 8                          # cosim trials per core
    cosim_seed: int = 0
    sim_engine: str = "auto"                 # RTL sim engine for the oracles
    workers: int = 1                         # <=1 => inline, no process pool
    out_dir: str = "fuzz-out"
    reduce: bool = True
    max_reduce_steps: int = 500
    oracles: Tuple[str, ...] = ()            # () => DEFAULT_ORACLES

    def resolved_cores(self) -> Tuple[str, ...]:
        return tuple(self.cores) if self.cores else DEFAULT_CORES

    def resolved_budget(self) -> FuzzBudget:
        return self.budget if self.budget is not None else FuzzBudget()


@dataclasses.dataclass
class SeedOutcome:
    """What happened to one seed (flattened from the worker record)."""

    seed: int
    status: str                 # "pass" | "fail" | "invalid" | "error"
    failures: List[Dict] = dataclasses.field(default_factory=list)
    source: str = ""
    detail: str = ""            # invalid/error message


@dataclasses.dataclass
class CampaignResult:
    """Aggregate outcome of :func:`run_campaign`."""

    config: FuzzConfig
    outcomes: List[SeedOutcome]
    reproducers: List[str]      # corpus entry names added or re-hit
    new_reproducers: List[str]  # subset of the above that were new
    stats_path: str
    seconds: float

    @property
    def programs(self) -> int:
        return len(self.outcomes)

    @property
    def failing_seeds(self) -> List[int]:
        return [o.seed for o in self.outcomes if o.status == "fail"]

    @property
    def invalid_seeds(self) -> List[int]:
        return [o.seed for o in self.outcomes
                if o.status in ("invalid", "error")]

    @property
    def ok(self) -> bool:
        return not self.failing_seeds and not self.invalid_seeds

    def __str__(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"fuzz campaign: {self.programs} programs, "
                f"{len(self.failing_seeds)} failing, "
                f"{len(self.invalid_seeds)} invalid, "
                f"{len(self.new_reproducers)} new reproducers, "
                f"{self.seconds:.1f}s, {status}")


def run_fuzz_payload(payload: dict) -> dict:
    """Executor runner: generate one program and run the oracle stack.

    JSON-able in, JSON-able out (this crosses the process-pool pickle
    boundary).  Programs that fail to elaborate are reported as
    ``invalid`` — the generator's well-typedness guarantee is itself under
    test here.
    """
    seed = int(payload["seed"])
    budget = FuzzBudget(**payload.get("budget") or {})
    cores = tuple(payload.get("cores") or ()) or None
    program = generate_program(seed, budget)
    record = {
        "seed": seed,
        "source": program.source,
        "features": sorted(program.features),
    }
    try:
        report = run_oracles(
            program.source, cores=cores,
            trials=int(payload.get("trials", 8)),
            cosim_seed=int(payload.get("cosim_seed", 0)),
            sim_engine=str(payload.get("sim_engine", "auto")),
            oracles=tuple(payload.get("oracles") or ()) or None)
    except Exception as exc:
        record["invalid"] = f"{type(exc).__name__}: {exc}"
        return record
    record["functionalities"] = report.functionalities
    record["failures"] = [dataclasses.asdict(f) for f in report.failures]
    return record


def _reduction_predicate(config: FuzzConfig,
                         failure: Dict) -> Callable[[str], bool]:
    """The failure reproduces iff the oracle stack — restricted to the
    originally-failing core — still reports a failure of the same kind."""
    kind, core = failure["kind"], failure["core"]

    def predicate(text: str) -> bool:
        try:
            report = run_oracles(text, cores=(core,), trials=config.trials,
                                 cosim_seed=config.cosim_seed,
                                 sim_engine=config.sim_engine,
                                 oracles=tuple(config.oracles) or None)
        except Exception:
            return False        # candidate no longer elaborates: invalid
        return any(f.kind == kind for f in report.failures)

    return predicate


def _flatten(outcome, seed: int) -> SeedOutcome:
    if not outcome.ok:
        return SeedOutcome(seed=seed, status="error",
                           detail=outcome.error or "executor failure")
    record = outcome.result
    if "invalid" in record:
        return SeedOutcome(seed=seed, status="invalid",
                           source=record.get("source", ""),
                           detail=record["invalid"])
    failures = record.get("failures", [])
    return SeedOutcome(
        seed=seed, status="fail" if failures else "pass",
        failures=failures, source=record.get("source", ""))


def run_campaign(config: FuzzConfig,
                 log: Optional[Callable[[str], None]] = None,
                 executor: Optional[BatchExecutor] = None) -> CampaignResult:
    """Run one fuzzing campaign and persist reproducers + stats.

    Raises :class:`ValueError` for an unknown ``sim_engine`` or oracle
    kind before any seed runs: a bad config is not a generator bug, and
    every seed would otherwise be reported ``invalid``.
    """
    try:
        resolve_engine(config.sim_engine)
    except IRError as err:
        raise ValueError(str(err)) from None
    _resolve_oracles(config.oracles)
    emit = log or (lambda message: None)
    start = time.perf_counter()
    budget = config.resolved_budget()
    cores = config.resolved_cores()
    seeds = range(config.seed_start, config.seed_start + config.seeds)

    specs = [
        TaskSpec(
            runner=FUZZ_RUNNER,
            payload={
                "seed": seed,
                "budget": dataclasses.asdict(budget),
                "cores": list(cores),
                "trials": config.trials,
                "cosim_seed": config.cosim_seed,
                "sim_engine": config.sim_engine,
                "oracles": list(config.oracles),
            },
            label=f"fuzz seed {seed}",
        )
        for seed in seeds
    ]
    emit(f"fuzzing {len(specs)} seeds on {', '.join(cores)} "
         f"({config.workers} workers)")
    executor = executor or BatchExecutor(workers=config.workers)
    job_outcomes = executor.run_specs(specs)

    outcomes = [_flatten(outcome, seed)
                for seed, outcome in zip(seeds, job_outcomes)]

    corpus = FuzzCorpus(config.out_dir)
    reproducers: List[str] = []
    new_reproducers: List[str] = []
    for seed_outcome in outcomes:
        if seed_outcome.status != "fail":
            continue
        emit(f"seed {seed_outcome.seed}: "
             f"{len(seed_outcome.failures)} oracle failure(s)")
        # One reproducer per distinct oracle kind seen on this seed.
        for kind in sorted({f["kind"] for f in seed_outcome.failures}):
            failure = next(f for f in seed_outcome.failures
                           if f["kind"] == kind)
            reduced = seed_outcome.source
            if config.reduce:
                try:
                    reduced = reduce_program(
                        seed_outcome.source,
                        _reduction_predicate(config, failure),
                        max_steps=config.max_reduce_steps)
                except ValueError:
                    # Flaky failure: keep the unreduced program.
                    pass
            name, is_new = corpus.add(kind, reduced, meta={
                "seed": seed_outcome.seed,
                "kind": kind,
                "core": failure["core"],
                "detail": failure["detail"],
                "cosim_seed": config.cosim_seed,
                "trials": config.trials,
                "sim_engine": config.sim_engine,
                "original_bytes": len(seed_outcome.source),
                "reduced_bytes": len(reduced),
            })
            reproducers.append(name)
            if is_new:
                new_reproducers.append(name)
                emit(f"  new reproducer {name} "
                     f"({len(seed_outcome.source)} -> {len(reduced)} bytes)")
            else:
                emit(f"  duplicate of {name}")

    seconds = time.perf_counter() - start
    by_status: Dict[str, int] = {}
    for seed_outcome in outcomes:
        by_status[seed_outcome.status] = (
            by_status.get(seed_outcome.status, 0) + 1)
    stats_path = corpus.write_stats({
        "seeds": config.seeds,
        "seed_start": config.seed_start,
        "cores": list(cores),
        "budget": dataclasses.asdict(budget),
        "trials": config.trials,
        "cosim_seed": config.cosim_seed,
        "sim_engine": config.sim_engine,
        "oracles": list(config.oracles),
        "status_counts": by_status,
        "failing_seeds": [o.seed for o in outcomes if o.status == "fail"],
        "invalid_seeds": [o.seed for o in outcomes
                          if o.status in ("invalid", "error")],
        "reproducers": sorted(set(reproducers)),
        "new_reproducers": sorted(new_reproducers),
        "corpus_size": len(corpus),
        "seconds": round(seconds, 3),
    })
    return CampaignResult(config=config, outcomes=outcomes,
                          reproducers=reproducers,
                          new_reproducers=new_reproducers,
                          stats_path=stats_path, seconds=seconds)
