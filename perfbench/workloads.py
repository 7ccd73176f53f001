"""The four benchmark workloads and the layer hooks of the traced run.

Each workload is built from its seed alone and measured in *rounds*:

* ``grid``: one round compiles all 8 Table 3 ISAXes for all 5 cores at
  ``-O2``, emits SystemVerilog and SCAIE-V YAML, and co-simulates each
  cell against the CoreDSL interpreter.  Every round starts with empty
  in-process caches, like a fresh ``batch --no-cache`` plus ``verify``.
* ``fuzz``: one round runs ``run_campaign`` over a slice of
  ``FUZZ_SLICE`` fuzz seeds, one campaign per seed.
* ``discover``: one round runs ``discover()`` on ``array_sum``,
  ``audio_ml`` and ``DISCOVER_RANDOM`` seeded ``random`` kernels.
* ``serve``: one round sends ``SERVE_ROUND`` requests from two closed-loop
  clients to an in-process compile server; one request in ten is a
  nonce-fresh write.

An *operation* is a grid cell, a fuzz program, a priced discovery variant
or a server request.  ``prepare_round`` does a round's untimed work
(clearing caches, drawing inputs); ``run_round`` does the timed work,
records its busy stretches in the tally and returns the number of
operations.  Correctness is checked on every
operation; a wrong output counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import dataclasses
import math
import os
import random
import shutil
import statistics
import time
from typing import Counter, Dict, List, Optional, Tuple

from perfbench.speed import READ_EVERY_S, REFERENCE_KERNEL_S, reference_kernel
from perfbench.trace import Tracer

#: Grid cells per round (``None``: all 40) and stimulus trials per cell.
GRID_CELLS: Optional[int] = None
GRID_TRIALS = 25
#: Fuzz programs per round, candidate seeds drawn per program slot, and
#: the seed that draws them.  The corpus is the same for every workload
#: seed: one program's time varies by a factor of ten, so a slice drawn
#: per seed would measure the draw as much as the program.  The workload
#: seed draws the stimulus.
FUZZ_SLICE = 13
FUZZ_POOL = 16
FUZZ_CORPUS_SEED = 0
#: Seeded random kernels per discovery round (besides the two fixed ones).
DISCOVER_RANDOM = 3
DISCOVER_RANDOM_SIZE = 6
#: Requests per serve round (one write per grid cell), the write share
#: and the client count.  The clients send a round in batches of
#: ``SERVE_BATCH`` requests; between batches, with nothing in flight, the
#: run may take a speed reading.  The server keeps one round of job
#: records, so its memory reaches steady state in the first round.
SERVE_ROUND = 400
SERVE_WRITE_EVERY = 10
SERVE_CLIENTS = 2
SERVE_BATCH = 40
#: Memory-tier entries of the served compile server: half the grid, so a
#: read is served by the memory tier or, failing that, the disk tier.
SERVE_MEMORY_ENTRIES = 20
#: ``/v1/metrics`` server counters -> reported count names.
SERVER_COUNTERS = {
    "executions": "executions", "coalesced": "coalesced",
    "rejected_queue_full": "rejected_429",
    "cache_hits_memory": "cache_hits_memory",
    "cache_hits_disk": "cache_hits_disk", "cache_misses": "cache_misses",
}

#: Gates of a discovery pricing record that mean the toolchain produced a
#: wrong result (the others reject a candidate that does not fit).
DISCOVER_FAILURE_GATES = ("transport", "cosim", "result", "baseline-result")


def shrink() -> None:
    """Tiny sizes for the self-test."""
    global GRID_CELLS, FUZZ_SLICE, DISCOVER_RANDOM, SERVE_ROUND
    GRID_CELLS, FUZZ_SLICE, DISCOVER_RANDOM, SERVE_ROUND = 6, 3, 1, 20


@dataclasses.dataclass
class Tally:
    """Everything one measured stretch produced."""

    #: Timed samples in ms by name, scaled to the reference speed: ``op``
    #: for every operation, ``busy`` for every stretch of a round the load
    #: ran (an operation, a search or a batch of server requests), plus the
    #: parts a workload times on its own (grid: ``compile``, ``verify``).
    samples: Dict[str, List[float]] = dataclasses.field(
        default_factory=lambda: collections.defaultdict(list))
    #: The same samples as measured, unscaled.
    raw: Dict[str, List[float]] = dataclasses.field(
        default_factory=lambda: collections.defaultdict(list))
    #: Operations per second of each round, as measured.
    raw_rates: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)
    #: Per-round counts (QoR, cache counters, tracer counters).
    round_counts: List[Counter] = dataclasses.field(default_factory=list)
    #: One row per cell / seed / search / request round, for the export.
    rows: List[dict] = dataclasses.field(default_factory=list)
    #: Server job timings (serve only): (latency, total, queue, run) in s.
    jobs: List[Tuple[float, float, float, float]] = \
        dataclasses.field(default_factory=list)
    #: The last speed reading: its kernel seconds, the sample counts and
    #: the time when it was taken.
    _kernel_s: Optional[float] = None
    _marks: Dict[str, int] = dataclasses.field(default_factory=dict)
    _read_at: float = 0.0

    @property
    def latencies_ms(self) -> List[float]:
        return self.samples["op"]

    @property
    def ops(self) -> int:
        return len(self.latencies_ms)

    def sample(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds * 1000.0)
        self.raw[name].append(seconds * 1000.0)

    def op(self, seconds: float, ok: bool, what: str) -> None:
        """One timed operation and the verdict on its output."""
        self.sample("op", seconds)
        self.check(ok, what)

    def busy(self, seconds: float) -> None:
        """One stretch of a round during which the load ran."""
        self.sample("busy", seconds)

    def check(self, ok: bool, what: str) -> None:
        """One attempted correctness check; ``what`` describes a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def read_speed(self) -> None:
        """Take a speed reading and scale the samples taken since the
        previous one to the reference speed (see ``perfbench.speed``)."""
        kernel_s = reference_kernel()
        if self._kernel_s is not None:
            scale = REFERENCE_KERNEL_S / ((self._kernel_s + kernel_s) / 2)
            for name, values in self.samples.items():
                start = self._marks.get(name, 0)
                values[start:] = [ms * scale for ms in values[start:]]
        self._kernel_s = kernel_s
        self._marks = {name: len(values)
                       for name, values in self.samples.items()}
        self._read_at = time.perf_counter()

    def between_ops(self) -> None:
        """Called between two busy stretches, while no operation runs:
        take a speed reading if the last one is ``READ_EVERY_S`` old."""
        if time.perf_counter() - self._read_at >= READ_EVERY_S:
            self.read_speed()

    def end_round(self, first_busy: int, operations: int) -> None:
        """Close a round of ``operations`` whose busy stretches start at
        index ``first_busy``: its rate, as measured."""
        self.read_speed()
        self.raw_rates.append(
            operations * 1000.0 / sum(self.raw["busy"][first_busy:]))

    def ms(self, name: str, q: float, raw: bool = False) -> float:
        """Percentile ``q`` of the ``name`` samples, interpolated between
        the nearest ranks."""
        values = (self.raw if raw else self.samples)[name]
        if len(values) < 2:
            return values[0]
        return statistics.quantiles(values, n=1000,
                                    method="inclusive")[round(q * 1000) - 1]

    def worst_mean_ms(self, share: float, raw: bool = False) -> float:
        """Mean latency of the slowest ``share`` of the operations.  Unlike
        a high percentile, it does not jump when the rank falls between
        two clusters of operations (serve's reads and writes)."""
        values = sorted((self.raw if raw else self.samples)["op"])
        worst = values[-max(1, round(len(values) * share)):]
        return sum(worst) / len(worst)

    def rate(self, raw: bool = False) -> float:
        """Operations per second of load: every operation over every busy
        stretch.  Not a median over rounds: discovery's rounds price
        different kernels, and a run has only four to seven rounds."""
        busy = (self.raw if raw else self.samples)["busy"]
        return self.ops * 1000.0 / sum(busy)

    def totals(self) -> Counter:
        total: Counter = collections.Counter()
        for counts in self.round_counts:
            total.update(counts)
        return total


def program_counters() -> Counter:
    """The program's own global counters, read through its public API."""
    from repro.analysis.absint import absint_cache_stats
    from repro.sim.compile import compile_cache_stats

    absint = absint_cache_stats()
    codegen = compile_cache_stats()
    return collections.Counter({
        "absint.analyses": absint.get("analyses", 0),
        "absint.hits": absint.get("cache_hits", 0),
        "sim.codegen_count": (codegen.get("scalar", 0)
                              + codegen.get("batched", 0)),
    })


def clear_program_caches() -> None:
    """Empty every in-process cache a fresh ``batch --no-cache`` starts
    without: elaboration, schedule, sim codegen, absint and datasheets."""
    from repro.analysis.absint import clear_facts_cache
    from repro.frontend import elaboration
    from repro.scaiev.cores import clear_datasheet_cache
    from repro.scheduling.cache import GLOBAL_SCHEDULE_CACHE
    from repro.sim.compile import clear_compile_cache

    # The elaboration memo has no public clear function.
    elaboration._ELABORATION_CACHE.clear()
    GLOBAL_SCHEDULE_CACHE.clear()
    clear_compile_cache()
    clear_facts_cache()
    clear_datasheet_cache()


def _bit_reversed(count: int) -> List[int]:
    """0..count-1 in bit-reversed order: every prefix spreads evenly."""
    bits = max(1, (count - 1).bit_length())
    keyed = sorted(range(1 << bits),
                   key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    return [i for i in keyed if i < count]


def _span(tracer: Optional[Tracer], name: str, ident: str):
    """A span for one operation, or nothing when the run is untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, op=ident)


class Workload:
    """Base class: seed in, rounds out."""

    name = ""

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self._counts: Counter = collections.Counter()

    def setup(self) -> None:
        """Build inputs and warm lazy imports; may run several times."""

    def prepare_round(self, index: int) -> None:
        """Untimed preparation of round ``index``: by default, empty the
        in-process caches, so that every round starts cold."""
        clear_program_caches()

    def run_round(self, index: int, tally: Tally,
                  tracer: Optional[Tracer]) -> int:
        raise NotImplementedError

    def round_counts(self) -> Counter:
        """Counts the last round produced (QoR, executions)."""
        return self._counts

    def finish(self, tally: Tally) -> None:
        """Checks that run after the timed rounds."""

    def named_metrics(self, tally: Tally) -> Dict[str, Tuple[float, str]]:
        """The workload's own names for its end-to-end figures:
        name -> (value, unit)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""


# -- grid ---------------------------------------------------------------------
class GridWorkload(Workload):
    name = "grid"

    def setup(self) -> None:
        from repro.hls.longnail import compile_isax
        from repro.isaxes import ALL_ISAXES
        from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES
        from repro.sim.cosim import verify_artifact

        clear_program_caches()
        self.cells = [(isax, core) for isax in sorted(ALL_ISAXES)
                      for core in (*CORES, *EXPERIMENTAL_CORES)][:GRID_CELLS]
        self.sources = dict(ALL_ISAXES)
        # Warm-up: one small cell pulls in the lazily imported modules.
        artifact = compile_isax(self.sources["zol"], "ORCA", opt=2)
        verify_artifact(artifact, trials=2, seed=self.seed,
                        sim_engine="batched")
        self.first_counts: Optional[Counter] = None

    def run_round(self, index, tally, tracer):
        from repro.hls.longnail import compile_isax
        from repro.sim.cosim import verify_artifact

        counts: Counter = collections.Counter()
        for number, (isax, core) in enumerate(self.cells):
            ident = f"grid/r{index}/{isax}@{core}"
            stimulus = (self.seed * 1_000_003 + index * 1009 + number) \
                % (1 << 31)
            with _span(tracer, "grid.cell", ident):
                start = time.perf_counter()
                artifact = compile_isax(self.sources[isax], core, opt=2)
                verilog = artifact.verilog
                config_yaml = artifact.config_yaml
                compiled = time.perf_counter()
                report = verify_artifact(artifact, trials=GRID_TRIALS,
                                         seed=stimulus, sim_engine="batched")
                done = time.perf_counter()
            tally.busy(done - start)
            ok = report.passed and report.trials > 0
            tally.op(done - start, ok,
                     f"{ident}: cosim {len(report.failures)} mismatches")
            tally.sample("compile", compiled - start)
            tally.sample("verify", done - compiled)
            tally.between_ops()
            makespan = sum(f.schedule.makespan
                           for f in artifact.functionalities.values())
            sv_bytes = len(verilog.encode()) + len(config_yaml.encode())
            counts["scheduling.makespan_cycles"] += makespan
            counts["hls.sv_bytes"] += sv_bytes
            if index == 0:
                tally.rows.append({
                    "id": ident, "isax": isax, "core": core,
                    "compile_ms": round((compiled - start) * 1e3, 3),
                    "verify_ms": round((done - compiled) * 1e3, 3),
                    "trials": report.trials, "ok": ok,
                    "makespan_cycles": makespan, "sv_bytes": sv_bytes,
                })
        # Same sources, same options, empty caches: every round must emit
        # the same hardware.  A difference is nondeterminism.
        if self.first_counts is None:
            self.first_counts = counts
        else:
            tally.check(counts == self.first_counts,
                        f"grid round {index}: QoR {dict(counts)} differs "
                        f"from the first round's {dict(self.first_counts)}")
        self._counts = counts
        return len(self.cells)

    def named_metrics(self, tally):
        first = tally.round_counts[0]
        return {
            "cells_per_s": (tally.rate(), "cells/s"),
            "compile_ms_p50": (tally.ms("compile", 0.50), "ms"),
            "compile_ms_p90": (tally.ms("compile", 0.90), "ms"),
            "verify_ms_p50": (tally.ms("verify", 0.50), "ms"),
            "makespan_cycles": (first["scheduling.makespan_cycles"],
                                "cycles"),
            "sv_bytes": (first["hls.sv_bytes"], "bytes"),
        }


# -- fuzz ---------------------------------------------------------------------
class FuzzWorkload(Workload):
    name = "fuzz"

    def setup(self) -> None:
        """Draw the corpus: ``FUZZ_POOL`` candidates per slot, sorted by
        source length, one pick per stratum, strata interleaved so that
        any prefix of the slice spans the size range."""
        from repro.fuzz.campaign import run_campaign
        from repro.fuzz.generator import generate_program

        self.out_dir = os.path.join(self.work_dir, "fuzz-out")
        shutil.rmtree(self.out_dir, ignore_errors=True)
        rng = random.Random(f"fuzz-corpus:{FUZZ_CORPUS_SEED}")
        pool = sorted({rng.randrange(1 << 20, 1 << 31)
                       for _ in range(FUZZ_SLICE * FUZZ_POOL)})
        pool.sort(key=lambda s: (len(generate_program(s).source), s))
        strata = [pool[i * len(pool) // FUZZ_SLICE:
                       (i + 1) * len(pool) // FUZZ_SLICE]
                  for i in range(FUZZ_SLICE)]
        picks = [rng.choice(stratum) for stratum in strata]
        self.slice = [picks[i] for i in _bit_reversed(FUZZ_SLICE)]
        # Warm-up on a seed below the corpus (its seeds are >= 2**20).
        run_campaign(self._config(7, 0))

    def _config(self, fuzz_seed: int, cosim_seed: int):
        from repro.fuzz.campaign import FuzzConfig

        return FuzzConfig(seeds=1, seed_start=fuzz_seed,
                          cosim_seed=cosim_seed, sim_engine="batched",
                          workers=1, out_dir=self.out_dir, reduce=False)

    def run_round(self, index, tally, tracer):
        from repro.fuzz.campaign import run_campaign

        cosim_seed = random.Random(
            f"fuzz:{self.seed}:{index}").randrange(1 << 31)
        for fuzz_seed in self.slice:
            ident = f"fuzz/r{index}/seed{fuzz_seed}"
            with _span(tracer, "fuzz.program", ident):
                start = time.perf_counter()
                result = run_campaign(self._config(fuzz_seed, cosim_seed))
                seconds = time.perf_counter() - start
            tally.busy(seconds)
            outcome = result.outcomes[0]
            tally.op(seconds, result.ok,
                     f"{ident}: {outcome.status} {outcome.detail}"
                     f"{outcome.failures[:1]}")
            tally.between_ops()
            if index == 0:
                tally.rows.append({
                    "id": ident, "seed": fuzz_seed, "status": outcome.status,
                    "cosim_seed": cosim_seed, "ms": round(seconds * 1e3, 3),
                    "source_bytes": len(outcome.source),
                })
        return len(self.slice)

    def named_metrics(self, tally):
        return {
            "programs_per_s": (tally.rate(), "programs/s"),
            "program_ms_p90": (tally.ms("op", 0.90), "ms"),
        }


# -- discover -----------------------------------------------------------------
class DiscoverWorkload(Workload):
    name = "discover"

    def setup(self) -> None:
        from repro.discover.search import DiscoveryConfig, discover

        self.kernels: List[Tuple[str, Dict[str, int]]] = []
        discover(DiscoveryConfig(kernel="array_sum", budget=2))

    def prepare_round(self, index: int) -> None:
        super().prepare_round(index)
        rng = random.Random(f"discover:{self.seed}:{index}")
        self.kernels = [("array_sum", {}), ("audio_ml", {})] + [
            ("random", {"seed": rng.randrange(100_000),
                        "size": DISCOVER_RANDOM_SIZE})
            for _ in range(DISCOVER_RANDOM)
        ]

    def run_round(self, index, tally, tracer):
        from repro.discover.kernel import resolve_kernel, run_reference
        from repro.discover.search import DiscoveryConfig, discover

        counts: Counter = collections.Counter()
        log_speedups: List[float] = []
        variants = 0
        for kernel, params in self.kernels:
            ident = f"discover/r{index}/{kernel}{params.get('seed', '')}"
            with _span(tracer, "discover.search", ident):
                start = time.perf_counter()
                report = discover(DiscoveryConfig(kernel=kernel,
                                                  params=params))
                seconds = time.perf_counter() - start
            tally.busy(seconds)
            reference = run_reference(resolve_kernel(kernel, **params))
            # Each priced variant is one operation; its latency is the
            # executor's wall time for it, and the search's remaining time
            # (enumeration, Pareto selection) is spread evenly over them.
            records = report.records
            priced = sum(r.get("seconds", 0.0) for r in records)
            extra = max(0.0, seconds - priced) / max(1, len(records))
            for record in records:
                wrong = (record.get("failed_gate") in DISCOVER_FAILURE_GATES
                         or (record.get("ok")
                             and record.get("result") != reference))
                tally.op(record.get("seconds", 0.0) + extra, not wrong,
                         f"{ident}/{record.get('label')}: "
                         f"{record.get('failed_gate')} {record.get('error')}")
            variants += len(records)
            tally.between_ops()
            verified = len(report.verified)
            counts["discover.candidates"] += report.candidates_enumerated
            counts["discover.verified"] += verified
            counts["discover.rejected"] += len(records) - verified
            if report.winner is not None:
                log_speedups.append(math.log(report.winner["speedup"]))
            if index == 0:
                tally.rows.append({
                    "id": ident, "kernel": kernel, "params": params,
                    "candidates": report.candidates_enumerated,
                    "priced": len(records), "verified": verified,
                    "winner_speedup": (report.winner or {}).get("speedup"),
                    "ms": round(seconds * 1e3, 3),
                })
        if log_speedups:
            counts["discover.winner_speedup"] = math.exp(
                sum(log_speedups) / len(log_speedups))
        self._counts = counts
        return variants

    def named_metrics(self, tally):
        return {
            "variants_per_s": (tally.rate(), "variants/s"),
            "winner_speedup": (
                tally.round_counts[0]["discover.winner_speedup"], "x"),
        }


# -- serve --------------------------------------------------------------------
class ServeWorkload(Workload):
    name = "serve"

    loop: Optional[asyncio.AbstractEventLoop] = None
    #: Rounds sent so far; keeps write nonces fresh when a traced run
    #: sends one round index twice.
    rounds_sent = 0

    def setup(self) -> None:
        from repro.isaxes import ALL_ISAXES
        from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES

        self.close()
        self.cells = [(isax, core) for isax in sorted(ALL_ISAXES)
                      for core in (*CORES, *EXPERIMENTAL_CORES)]
        self.sources = dict(ALL_ISAXES)
        self.cache_dir = os.path.join(self.work_dir, "serve-cache")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.observed: Dict[Tuple[str, str], set] = {}
        self.app = None
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        from repro.server import (CompileServer, CompileServerApp,
                                  CompileServerClient)
        from repro.service.cache import ShardedArtifactCache

        core = CompileServer(
            workers=1, backend="thread",
            disk_cache=ShardedArtifactCache(self.cache_dir, shards=8),
            memory_entries=SERVE_MEMORY_ENTRIES, job_history=SERVE_ROUND)
        self.app = CompileServerApp(core)
        host, port = await self.app.start("127.0.0.1", 0)
        self.client = CompileServerClient(f"http://{host}:{port}")
        # Warm-up: touch every cell once, so reads are warm hits.
        for isax, core_name in self.cells:
            job = await self.client.compile(isax=isax, core=core_name,
                                            include_result=False)
            if job["state"] != "ok":
                raise RuntimeError(f"warm-up {isax}@{core_name}: "
                                   f"{job.get('error')}")

    def prepare_round(self, index: int) -> None:
        """Writes go through the cells in a seeded order, so every round
        compiles the same mix; reads pick cells at random, so about half
        find their cell in the 20-entry memory tier."""
        rng = random.Random(f"serve:{self.seed}:{index}")
        writes = rng.sample(self.cells, len(self.cells))
        self.plan = []
        for number in range(SERVE_ROUND):
            write = number % SERVE_WRITE_EVERY == SERVE_WRITE_EVERY - 1
            if write:
                cell = writes[(number // SERVE_WRITE_EVERY) % len(writes)]
            else:
                cell = self.cells[rng.randrange(len(self.cells))]
            self.plan.append((number, cell, write))

    def run_round(self, index, tally, tracer):
        return self.loop.run_until_complete(
            self._round(index, tally, tracer))

    async def _round(self, index, tally, tracer):
        self.rounds_sent += 1
        before = (await self.client.metrics())["server"]["counters"]
        queue: collections.deque = collections.deque()

        async def client_loop(lane: int) -> None:
            if tracer is not None:
                tracer.set_lane(lane)
            while queue:
                number, (isax, core), write = queue.popleft()
                await self._request(index, number, isax, core, write,
                                    tally, tracer)

        busy = 0.0
        for first in range(0, len(self.plan), SERVE_BATCH):
            queue.extend(self.plan[first:first + SERVE_BATCH])
            start = time.perf_counter()
            await asyncio.gather(*[client_loop(lane)
                                   for lane in range(1, SERVE_CLIENTS + 1)])
            seconds = time.perf_counter() - start
            busy += seconds
            tally.busy(seconds)
            tally.between_ops()
        after = (await self.client.metrics())["server"]["counters"]
        self._counts = collections.Counter({
            f"server.{name}": after[key] - before[key]
            for key, name in SERVER_COUNTERS.items()
        })
        tally.rows.append({"id": f"serve/r{index}",
                           "requests": len(self.plan),
                           "seconds": round(busy, 6), **self._counts})
        return len(self.plan)

    async def _request(self, index, number, isax, core, write, tally,
                       tracer) -> None:
        from repro.server import CompileServerError

        ident = f"serve/r{index}/q{number}"
        source = None
        if write:
            source = (self.sources[isax]
                      + f"\n// perfbench nonce {self.seed}-{self.rounds_sent}-{number}\n")
        with _span(tracer, "server.request", ident) as span_index:
            start = time.perf_counter()
            try:
                job = await self.client.compile(
                    isax=isax, core=core, source=source)
                error = None
            except CompileServerError as err:
                job, error = {}, f"HTTP {err.status}: {err}"
            seconds = time.perf_counter() - start
        # A read must be a warm hit, a write a fresh execution.
        ok = (error is None and job.get("state") == "ok"
              and (job.get("cached") is None) == write)
        if ok and not write:
            result = job.get("result") or {}
            self.observed.setdefault((isax, core), set()).add(
                (result.get("verilog"), result.get("config_yaml")))
        tally.op(seconds, ok, f"{ident} {isax}@{core} write={write}: "
                 f"{error or job.get('state')} cached={job.get('cached')}")
        total = job.get("total_s") or 0.0
        queued = job.get("queue_wait_s") or 0.0
        run = job.get("run_s") or 0.0
        tally.jobs.append((seconds, total, queued, run))
        if tracer is not None:
            # The server reports durations, not times: lay them out inside
            # the client's request span, HTTP share first.
            cursor = start + max(0.0, seconds - total)
            tracer.record("server.http", start, cursor, span_index,
                          adopt=False)
            tracer.record("server.queue_wait", cursor, cursor + queued,
                          span_index, adopt=False)
            tracer.record("server.exec", cursor + queued,
                          cursor + queued + run, span_index, adopt=False)

    def finish(self, tally: Tally) -> None:
        """Every read response must be byte-identical to what
        ``run_compile_payload`` produces for the same cell (checked after
        the timed rounds, so the reference compiles are not timed)."""
        from repro.service.executor import run_compile_payload
        from repro.service.jobs import CompileJob

        for (isax, core), seen in sorted(self.observed.items()):
            local = run_compile_payload(CompileJob(
                isax=isax, source=self.sources[isax], core=core).to_payload())
            tally.check(seen == {(local["verilog"], local["config_yaml"])},
                        f"serve parity {isax}@{core}: {len(seen)} distinct "
                        "responses differ from the batch output")

    def named_metrics(self, tally):
        return {
            "requests_per_s": (tally.rate(), "req/s"),
            "request_ms_p50": (tally.ms("op", 0.50), "ms"),
            "request_ms_p99": (tally.ms("op", 0.99), "ms"),
        }

    def close(self) -> None:
        if self.loop is None:
            return
        if self.app is not None:
            self.loop.run_until_complete(self.app.close(drain=True))
            self.app = None
        self.loop.close()
        self.loop = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in
             (GridWorkload, FuzzWorkload, DiscoverWorkload, ServeWorkload)}


# -- layer hooks of the traced run ----------------------------------------------
#: compile_isax phases (``repro.hls.longnail.PHASES``) -> span names.
PHASE_SPANS = {
    "parse": "frontend.parse", "lint": "analysis.lint",
    "lower": "lowering.lower", "opt": "opt.opt",
    "schedule": "scheduling.schedule", "hwgen": "hls.hwgen",
    "verify": "analysis.irverify", "emit": "hls.emit",
}


def install_layer_hooks(tracer: Tracer) -> Counter:
    """Wrap each layer's public entry points in spans.

    Returns the counter the hooks fill: schedule components and cache hits
    from ``ScheduleResult.stats``, optimizer node counts from the
    ``OptimizerReport``, batched and scalar cosim trials from each
    ``VerificationReport``.  ``tracer.restore()`` removes every hook.
    """
    from repro.analysis import absint, verifier
    from repro.discover import codegen, emit, pricing
    from repro.discover import enumerate as enumeration
    from repro.eval import asic
    from repro.frontend import elaboration
    from repro.fuzz import campaign, generator, oracles
    from repro.hls import longnail, verilog
    from repro.opt import pipeline
    from repro.scaiev.config import IsaxConfig
    from repro.service.cache import ArtifactCache
    from repro.sim import compile as sim_compile
    from repro.sim import cosim
    from repro.sim.coredsl_interp import CoreDSLInterpreter

    counters: Counter = collections.Counter()

    def compile_around(original, args, kwargs):
        parent = tracer.current
        user_hook = kwargs.get("phase_hook")
        milp = kwargs.get("engine") == "milp"
        schedule_spans: List[int] = []

        def hook(phase: str, seconds: float) -> None:
            end = time.perf_counter()
            name = ("scheduling.milp" if milp and phase == "schedule"
                    else PHASE_SPANS.get(phase, f"hls.{phase}"))
            index = tracer.record(name, end - seconds, end, parent)
            if phase == "schedule":
                schedule_spans.append(index)
            if user_hook is not None:
                user_hook(phase, seconds)

        kwargs["phase_hook"] = hook
        artifact = original(*args, **kwargs)
        functionalities = list(artifact.functionalities.values())
        for index, functionality in zip(schedule_spans, functionalities):
            stats = functionality.schedule.stats
            if stats is None:
                continue
            counters["scheduling.components"] += stats.components
            counters["sched.hits"] += stats.cache_hits
            counters["sched.misses"] += stats.cache_misses
            if not milp:
                span = tracer.spans[index]
                solve = min(stats.solve_seconds, span.end - span.start)
                tracer.record("scheduling.solve", span.end - solve,
                              span.end, index, adopt=False)
        if artifact.optimizer is not None:
            counters["opt.nodes_before"] += artifact.optimizer.nodes_before
            counters["opt.nodes_after"] += artifact.optimizer.nodes_after
        return artifact

    def cosim_around(original, args, kwargs):
        report = original(*args, **kwargs)
        counters["sim.batched_trials"] += report.batched_trials
        counters["sim.scalar_fallbacks"] += report.scalar_fallbacks
        return report

    tracer.wrap_function(longnail, "compile_isax", "hls.compile",
                         around=compile_around)
    tracer.wrap_function(elaboration, "elaborate", "frontend.parse")
    tracer.wrap_function(absint, "analyze_graph", "analysis.absint")
    tracer.wrap_function(verifier, "verify_artifact_ir", "analysis.irverify")
    for name in pipeline.PASS_ORDER:
        tracer.wrap_attribute(pipeline._PASS_FUNCS, name, f"opt.{name}")
    tracer.wrap_function(verilog, "emit_modules", "hls.emit")
    tracer.wrap_attribute(IsaxConfig, "to_yaml", "hls.emit")
    tracer.wrap_function(cosim, "verify_artifact", "sim.cosim",
                         around=cosim_around)
    tracer.wrap_attribute(CoreDSLInterpreter, "execute_instruction",
                          "sim.golden")
    tracer.wrap_attribute(CoreDSLInterpreter, "execute_always", "sim.golden")
    tracer.wrap_function(sim_compile, "_codegen_scalar", "sim.codegen")
    tracer.wrap_function(sim_compile, "_codegen_batch", "sim.codegen")
    tracer.wrap_function(sim_compile, "crosscheck_engines", "sim.crosscheck")
    tracer.wrap_function(codegen, "run_program", "sim.core_model")
    tracer.wrap_function(generator, "generate_program", "fuzz.generate")
    tracer.wrap_function(oracles, "run_oracles", "fuzz.oracles")
    tracer.wrap_function(campaign, "run_fuzz_payload", "fuzz.seed")
    tracer.wrap_function(enumeration, "enumerate_candidates",
                         "discover.enumerate")
    tracer.wrap_function(emit, "emit_candidate", "discover.emit")
    tracer.wrap_function(pricing, "price_candidates", "discover.pricing")
    tracer.wrap_function(pricing, "run_pricing_payload", "discover.price")
    tracer.wrap_function(asic, "evaluate_combination", "eval.asic")
    tracer.wrap_attribute(ArtifactCache, "get", "service.cache_get")
    tracer.wrap_attribute(ArtifactCache, "put", "service.cache_put")
    return counters
