"""Candidate pricing through the real toolchain.

One mined candidate becomes one :class:`~repro.service.executor.TaskSpec`
whose runner (:func:`run_pricing_payload`) rebuilds the kernel from its
registry name, re-derives the candidate from its covered node set, and
then walks the full Longnail flow:

1. **emit** CoreDSL (:mod:`repro.discover.emit`) and **compile** it with
   ``compile_isax`` at ``-O2`` on the target core;
2. **gate** it through the whole verification stack — lint errors, the
   IR verifier, and the interpreter-vs-RTL cosim oracle — so only
   born-verified candidates reach the Pareto front;
3. **price** it: schedule length from the fastpath scheduler, µm² and
   frequency of that same compiled artifact from the Table 4
   area/integration model (:func:`repro.eval.asic.measure_artifacts`),
   and the rewritten kernel loop's *measured* cycles on the
   cycle-accurate core model;
4. check the rewritten program still computes the kernel's reference
   result bit-for-bit.

Candidate-level failures are part of the result record (``ok: false``
with the failing gate), never runner exceptions — a candidate that dies
in the toolchain is a data point, not a batch failure.

:func:`price_candidates` fans the specs out through the executor it is
given: a :class:`~repro.service.executor.BatchExecutor` (workers +
artifact cache: warm re-runs are pure cache hits) or a
:class:`~repro.server.client.RemoteExecutor` (a long-lived compile server
via ``POST /v1/tasks``).  The software baseline depends only on the
kernel and the core, so :func:`price_candidates` runs it once per
distinct (kernel, params, core) in the calling process, checks it
against the kernel's reference result, and writes ``baseline_cycles`` and
``speedup`` into every record that passed its own gates.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

from repro.discover import codegen
from repro.discover.emit import EmitError, emit_candidate
from repro.discover.enumerate import (Candidate, canonical_digest,
                                      classify_io, describe)
from repro.discover.kernel import Kernel, resolve_kernel, run_reference
from repro.service.executor import BatchExecutor, TaskSpec
from repro.service.jobs import digest

if TYPE_CHECKING:
    from repro.server.client import RemoteExecutor

#: Runner reference for one candidate pricing task.
DISCOVER_RUNNER = "repro.discover.pricing:run_pricing_payload"

#: Runner reference for a whole discovery search (``POST /v1/discover``).
DISCOVER_SEARCH_RUNNER = "repro.discover.pricing:run_discover_payload"

#: Part of every pricing cache key; bump when the record shape or the
#: evaluation pipeline changes.  ``discover-2``: cosim gate runs on the
#: batched simulation engine (lane-per-trial) by default.  ``discover-3``:
#: area and frequency measure the priced ``-O2`` artifact, not an ``-O0``
#: recompile.  ``discover-4``: the cosim gate runs the default engine, and
#: the payload and record carry no ``sim_engine``.  ``discover-5``: the
#: runner's record carries no ``baseline_cycles`` or ``speedup``.
#: ``discover-6``: the key names the request's kernel and params, which
#: the candidate's structural digest leaves out.
_DISCOVER_CACHE_VERSION = "discover-6"


@dataclasses.dataclass(frozen=True)
class PricingRequest:
    """One (candidate, fold) variant headed for the executor."""

    kernel: str
    params: Dict[str, int]
    candidate: Candidate
    fold: bool
    core: str
    opt: int = 2
    trials: int = 5
    seed: int = 0

    def payload(self) -> dict:
        return {
            "kernel": self.kernel,
            "params": dict(self.params),
            "nodes": list(self.candidate.nodes),
            "fold": self.fold,
            "core": self.core,
            "opt": self.opt,
            "trials": self.trials,
            "seed": self.seed,
        }

    def cache_key(self, kernel_fingerprint: str) -> str:
        return digest(
            _DISCOVER_CACHE_VERSION, kernel_fingerprint, self.kernel,
            repr(sorted(self.params.items())), self.candidate.digest,
            repr(self.fold), self.core, repr(self.opt), repr(self.trials),
            repr(self.seed))

    def label(self) -> str:
        fold = "+zol" if self.fold else ""
        return f"{self.kernel}/{self.candidate.label()}{fold}@{self.core}"


def rebuild_candidate(kernel: Kernel, nodes: Sequence[int]) -> Candidate:
    """Candidate from its covered node set (interface re-derived, never
    trusted from the wire)."""
    subset = frozenset(int(n) for n in nodes)
    inputs, outputs, promoted, loads = classify_io(kernel, subset)
    if len(outputs) > 1:
        raise ValueError(f"node set has {len(outputs)} outputs")
    return Candidate(
        nodes=tuple(sorted(subset)),
        inputs=tuple(inputs),
        output=outputs[0] if outputs else None,
        carries=tuple(promoted),
        loads=tuple(loads),
        digest=canonical_digest(kernel, subset, inputs, promoted),
    )


def _failure(record: dict, gate: str, detail: str) -> dict:
    record["ok"] = False
    record["failed_gate"] = gate
    record["error"] = detail
    return record


def run_pricing_payload(payload: dict) -> dict:
    """Executor runner: price one candidate variant, JSON in / JSON out."""
    from repro.analysis.verifier import verify_artifact_ir
    from repro.eval.asic import measure_artifacts
    from repro.hls.longnail import compile_isax
    from repro.sim.cosim import verify_artifact

    kernel = resolve_kernel(payload["kernel"], **payload.get("params", {}))
    candidate = rebuild_candidate(kernel, payload["nodes"])
    fold = bool(payload.get("fold", False))
    core = payload.get("core", "VexRiscv")
    opt = int(payload.get("opt", 2))
    trials = int(payload.get("trials", 5))
    seed = int(payload.get("seed", 0))

    record: dict = {
        "kernel": payload["kernel"],
        "params": dict(payload.get("params", {})),
        "label": candidate.label() + ("+zol" if fold else ""),
        "digest": candidate.digest,
        "nodes": list(candidate.nodes),
        "ops": describe(kernel, candidate),
        "fold": fold,
        "core": core,
        "opt": opt,
        "ok": True,
        "failed_gate": None,
        "error": None,
    }

    try:
        emitted = emit_candidate(kernel, candidate, fold_loop=fold)
    except EmitError as err:
        return _failure(record, "emit", str(err))
    record["source"] = emitted.source
    record["instructions"] = [s.mnemonic for s in emitted.setups] + [
        name for name in (emitted.step, emitted.get, emitted.loop) if name]

    try:
        artifact = compile_isax(emitted.source, core, opt=opt)
    except Exception as err:  # toolchain rejection is a gate, not a crash
        return _failure(record, "compile", f"{type(err).__name__}: {err}")

    lint_errors = [d for d in artifact.diagnostics
                   if getattr(d, "severity", "") == "error"]
    record["lint_warnings"] = sum(
        1 for d in artifact.diagnostics
        if getattr(d, "severity", "") == "warning")
    if lint_errors:
        return _failure(record, "lint",
                        "; ".join(str(d) for d in lint_errors[:3]))

    ir_diagnostics = verify_artifact_ir(artifact)
    if ir_diagnostics:
        return _failure(record, "irverify",
                        "; ".join(str(d) for d in ir_diagnostics[:3]))

    cosim = verify_artifact(artifact, trials=trials, seed=seed)
    if not cosim.passed:
        return _failure(record, "cosim",
                        f"{len(cosim.failures)} mismatching trials")

    record["makespan"] = max(
        f.schedule.makespan for f in artifact.functionalities.values())

    try:
        asic = measure_artifacts(artifact.datasheet, [artifact])
    except Exception as err:
        return _failure(record, "area", f"{type(err).__name__}: {err}")
    record["area_um2"] = asic.extension_area_um2
    record["area_overhead_pct"] = asic.area_overhead_pct
    record["freq_mhz"] = asic.freq_mhz

    reference = run_reference(kernel)
    try:
        cand_program = codegen.candidate_program(kernel, candidate, emitted)
        cand_report, cand_result = codegen.run_program(
            kernel, cand_program, core, artifacts=[artifact])
    except codegen.CodegenError as err:
        return _failure(record, "codegen", str(err))
    if cand_result != reference:
        return _failure(
            record, "result",
            f"candidate computed 0x{cand_result:08x}, "
            f"reference 0x{reference:08x}")

    record["cycles"] = cand_report.cycles
    record["isax_busy_cycles"] = cand_report.isax_busy_cycles
    record["loop_body_words"] = cand_program.loop_body_words
    record["result"] = cand_result
    return record


def _run_baseline(kernel_name: str, params: Dict[str, int],
                  core: str) -> tuple:
    """Run the kernel's software baseline on ``core`` and check its result
    against :func:`run_reference`: ``(cycles, None)``, or ``(None, (gate,
    detail))`` with gate ``codegen`` or ``baseline-result``."""
    kernel = resolve_kernel(kernel_name, **params)
    reference = run_reference(kernel)
    try:
        report, result = codegen.run_program(
            kernel, codegen.baseline_program(kernel), core)
    except codegen.CodegenError as err:
        return None, ("codegen", str(err))
    if result != reference:
        return None, ("baseline-result",
                      f"baseline computed 0x{result:08x}, "
                      f"reference 0x{reference:08x}")
    return report.cycles, None


def build_specs(requests: Sequence[PricingRequest],
                kernel_fingerprint: str) -> List[TaskSpec]:
    return [
        TaskSpec(
            runner=DISCOVER_RUNNER,
            payload=request.payload(),
            key=request.cache_key(kernel_fingerprint),
            label=request.label(),
        )
        for request in requests
    ]


def price_candidates(
        requests: Sequence[PricingRequest],
        kernel_fingerprint: str,
        executor: Union[BatchExecutor, RemoteExecutor, None] = None,
) -> Tuple[List[dict], dict]:
    """Fan all pricing requests out; returns ``(records, stats)``.

    Records keep request order.  A request that failed at the transport
    level (worker death, server error) yields a synthetic ``ok: false``
    record with gate ``"transport"``.  Every record that passed its own
    gates, executed or served from a cache, gets ``baseline_cycles`` and
    ``speedup`` from one :func:`_run_baseline` per distinct (kernel,
    params, core); a baseline that fails fails those records with its
    gate.  ``stats`` reports executed vs cache-served counts — the
    warm-re-run story of the benchmark.
    """
    specs = build_specs(requests, kernel_fingerprint)
    outcomes = (executor or BatchExecutor(workers=1)).run_specs(specs)

    baselines: Dict[tuple, tuple] = {}
    records: List[dict] = []
    cached = executed = failed = 0
    for request, outcome in zip(requests, outcomes):
        if outcome.ok and outcome.result is not None:
            record = dict(outcome.result)
            if record.get("ok"):
                key = (request.kernel, tuple(sorted(request.params.items())),
                       request.core)
                if key not in baselines:
                    baselines[key] = _run_baseline(
                        request.kernel, request.params, request.core)
                baseline_cycles, baseline_failure = baselines[key]
                if baseline_failure is not None:
                    _failure(record, *baseline_failure)
                else:
                    record["baseline_cycles"] = baseline_cycles
                    record["speedup"] = baseline_cycles / record["cycles"]
            record["cached"] = outcome.cached
            record["seconds"] = outcome.seconds
            cached += 1 if outcome.cached else 0
            executed += 0 if outcome.cached else 1
            if not record.get("ok"):
                failed += 1
        else:
            failed += 1
            record = {
                "kernel": request.kernel,
                "label": request.label(),
                "digest": request.candidate.digest,
                "nodes": list(request.candidate.nodes),
                "fold": request.fold,
                "core": request.core,
                "ok": False,
                "failed_gate": "transport",
                "error": outcome.error,
                "cached": False,
                "seconds": outcome.seconds,
            }
        records.append(record)
    stats = {
        "requested": len(requests),
        "executed": executed,
        "cached": cached,
        "failed": failed,
    }
    return records, stats


def run_discover_payload(payload: dict) -> dict:
    """Executor runner for a whole discovery search (the ``/v1/discover``
    server task): build the config, run the search in-process, return the
    report as JSON."""
    from repro.discover.search import DiscoveryConfig, discover

    config = DiscoveryConfig.from_payload(payload)
    report = discover(config)
    return report.to_dict()
