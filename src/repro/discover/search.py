"""Discovery orchestration: enumerate -> price -> Pareto -> report.

:func:`discover` is the one entry point behind the ``repro-longnail
discover`` CLI subcommand, the server's ``POST /v1/discover`` task and
the ``benchmarks/bench_discovery.py`` artifact: it enumerates candidate
instructions from a registered kernel, prices every (candidate,
fold-variant) through the real toolchain on the executor it is given (a
local :class:`~repro.service.executor.BatchExecutor` or a compile
server's :class:`~repro.server.client.RemoteExecutor`), keeps the
verified survivors, and selects the Pareto front on *measured speedup
vs. silicon area* — the same two axes the paper's Section 7 outlook names
for automated design-space exploration.

The winner (highest speedup; area breaks ties) is written to disk as a
ready-to-use ``.core_desc`` next to the JSON report.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.discover.enumerate import enumerate_candidates
from repro.discover.kernel import resolve_kernel
from repro.discover.pricing import PricingRequest, price_candidates
from repro.service.executor import BatchExecutor

if TYPE_CHECKING:
    from repro.server.client import RemoteExecutor


@dataclasses.dataclass
class DiscoveryConfig:
    """The inputs of one discovery search (JSON-able end to end).  Where
    the candidates are priced is the caller's choice of executor."""

    kernel: str
    params: Dict[str, int] = dataclasses.field(default_factory=dict)
    core: str = "VexRiscv"
    opt: int = 2
    trials: int = 5
    seed: int = 0
    max_nodes: int = 32
    max_inputs: int = 2
    max_outputs: int = 1
    max_mem: int = 1
    promote_state: bool = True
    try_fold: bool = True
    budget: int = 24                    # max priced variants
    enum_budget: int = 4000

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "DiscoveryConfig":
        """Config from a JSON payload; unknown keys (including the
        execution settings older clients send) are ignored."""
        if "kernel" not in payload:
            raise ValueError("discover payload needs a 'kernel' name")
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        params = kwargs.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object")
        kwargs["params"] = {str(k): int(v) for k, v in params.items()}
        return cls(**kwargs)


def dominates(a: dict, b: dict) -> bool:
    """Pareto dominance on (speedup up, area down)."""
    no_worse = (a["speedup"] >= b["speedup"]
                and a["area_um2"] <= b["area_um2"])
    better = (a["speedup"] > b["speedup"]
              or a["area_um2"] < b["area_um2"])
    return no_worse and better


def pareto_front(records: Sequence[dict]) -> List[dict]:
    """Non-dominated verified records, fastest first."""
    priced = [r for r in records if r.get("ok") and "speedup" in r]
    front = [r for r in priced
             if not any(dominates(q, r) for q in priced if q is not r)]
    return sorted(front, key=lambda r: (-r["speedup"], r["area_um2"]))


@dataclasses.dataclass
class DiscoveryReport:
    """Outcome of one :func:`discover` run."""

    config: DiscoveryConfig
    kernel_fingerprint: str
    candidates_enumerated: int
    variants_priced: int
    records: List[dict]
    pareto: List[dict]
    winner: Optional[dict]
    pricing_stats: dict
    elapsed_s: float

    @property
    def verified(self) -> List[dict]:
        return [r for r in self.records if r.get("ok")]

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_payload(),
            "kernel_fingerprint": self.kernel_fingerprint,
            "candidates_enumerated": self.candidates_enumerated,
            "variants_priced": self.variants_priced,
            "records": self.records,
            "pareto": self.pareto,
            "winner": self.winner,
            "pricing_stats": self.pricing_stats,
            "elapsed_s": self.elapsed_s,
        }


def discover(config: DiscoveryConfig,
             executor: Union[BatchExecutor, RemoteExecutor, None] = None
             ) -> DiscoveryReport:
    """Run one full discovery search, pricing on ``executor`` (default:
    in-process, uncached)."""
    import time

    start = time.perf_counter()
    kernel = resolve_kernel(config.kernel, **config.params)
    candidates = enumerate_candidates(
        kernel,
        max_nodes=config.max_nodes,
        max_inputs=config.max_inputs,
        max_outputs=config.max_outputs,
        max_mem=config.max_mem,
        promote_state=config.promote_state,
        enum_budget=config.enum_budget,
    )

    requests: List[PricingRequest] = []
    for candidate in candidates:
        folds: Tuple[bool, ...] = (True, False) if config.try_fold else (
            False,)
        for fold in folds:
            requests.append(PricingRequest(
                kernel=config.kernel,
                params=config.params,
                candidate=candidate,
                fold=fold,
                core=config.core,
                opt=config.opt,
                trials=config.trials,
                seed=config.seed,
            ))
    requests = requests[:max(0, config.budget)]

    records, stats = price_candidates(requests, kernel.fingerprint(),
                                      executor=executor)

    front = pareto_front(records)
    winner = front[0] if front else None
    return DiscoveryReport(
        config=config,
        kernel_fingerprint=kernel.fingerprint(),
        candidates_enumerated=len(candidates),
        variants_priced=len(requests),
        records=records,
        pareto=front,
        winner=winner,
        pricing_stats=stats,
        elapsed_s=time.perf_counter() - start,
    )


def write_report(report: DiscoveryReport,
                 out_dir: pathlib.Path) -> Dict[str, pathlib.Path]:
    """Persist the JSON report and the winning CoreDSL; returns paths."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, pathlib.Path] = {}

    report_path = out_dir / f"discover_{report.config.kernel}.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2,
                                      sort_keys=True))
    paths["report"] = report_path

    if report.winner is not None and report.winner.get("source"):
        winner_path = out_dir / f"{report.config.kernel}_winner.core_desc"
        winner_path.write_text(report.winner["source"])
        paths["winner"] = winner_path
    return paths


def render_report(report: DiscoveryReport) -> str:
    """Human-readable ranking table for the CLI."""
    lines = [
        f"# discover {report.config.kernel} on {report.config.core}: "
        f"{report.candidates_enumerated} candidates, "
        f"{report.variants_priced} variants priced, "
        f"{len(report.verified)} verified, "
        f"{len(report.pareto)} on the Pareto front "
        f"({report.elapsed_s:.1f}s)",
        f"{'label':<24} {'ops':<14} {'speedup':>8} {'area um2':>9} "
        f"{'cycles':>7} {'mkspan':>6} {'pareto':>7}",
    ]
    chosen = {r["digest"] + str(r["fold"]) for r in report.pareto}
    ranked = sorted(report.verified,
                    key=lambda r: -r.get("speedup", 0.0))
    for record in ranked:
        ops = record.get("ops", "")
        ops_short = ops.split(" ")[0][:14]
        mark = "*" if record["digest"] + str(record["fold"]) in chosen \
            else ""
        lines.append(
            f"{record['label']:<24} {ops_short:<14} "
            f"{record.get('speedup', 0.0):>8.2f} "
            f"{record.get('area_um2', 0.0):>9.0f} "
            f"{record.get('cycles', 0):>7} "
            f"{record.get('makespan', 0):>6} {mark:>7}")
    failed = [r for r in report.records if not r.get("ok")]
    if failed:
        lines.append(f"# {len(failed)} variants rejected: " + ", ".join(
            sorted({str(r.get('failed_gate')) for r in failed})))
    stats = report.pricing_stats
    lines.append(
        f"# pricing: {stats.get('executed', 0)} executed, "
        f"{stats.get('cached', 0)} from cache, "
        f"{stats.get('failed', 0)} failed")
    return "\n".join(lines)
