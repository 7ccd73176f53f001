"""Optimizer pass manager: ordered, configurable pipeline with metrics.

The -O levels select pass subsets of :data:`PASS_ORDER`:

======  =======================================================
level   pipeline
======  =======================================================
``O0``  (nothing — the optimizer is not run)
``O1``  canonicalize, propagate, cse, dce
``O2``  canonicalize, propagate, cse, strength, range-narrow, share, dce
======  =======================================================

Individual passes toggle via ``--opt-pass NAME`` / ``--no-opt-pass NAME``
on the CLI or ``opt_passes`` on :class:`repro.service.jobs.CompileJob`; the
resulting configuration is part of the artifact-cache content digest, so
cached artifacts never cross -O levels; -O levels share schedule-cache
entries, whose fingerprint covers every input of the fast path's optimum.

Every pass reports a :class:`PassStats` record (runs, ops removed and
rewritten, wall time) which is aggregated into an :class:`OptimizerReport`
and flows through ``service/metrics.py`` into batch/server metrics JSON
under ``"optimizer"``.  With ``REPRO_IR_VERIFY=1`` the graph checks
(IV001–IV004, IV010 and the range findings) run after every pass
application, pinpointing the offending pass by stage name
(``opt:<pass>:<graph>``).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.analysis.verifier import require_valid, verify_graph
from repro.ir.core import Graph
from repro.opt.narrow import range_narrow_pass
from repro.opt.passes import (
    canonicalize_pass,
    cse_pass,
    dce_pass,
    propagate_pass,
    share_pass,
    strength_pass,
)
from repro.opt.share import pool_cross_isax

#: Every pass, in pipeline order.  ``range-narrow`` runs after ``strength``
#: (its singleton-operand pinning feeds the constant-shift and div/mod
#: folders on the next round) and before ``share`` (narrowed graphs expose
#: more mutually exclusive arms to mux-pushing).
PASS_ORDER = ("canonicalize", "propagate", "cse", "strength",
              "range-narrow", "share", "dce")

_PASS_FUNCS = {
    "canonicalize": canonicalize_pass,
    "propagate": propagate_pass,
    "cse": cse_pass,
    "strength": strength_pass,
    "range-narrow": range_narrow_pass,
    "share": share_pass,
    "dce": dce_pass,
}

#: -O level presets.
LEVEL_PIPELINES = {
    0: (),
    1: ("canonicalize", "propagate", "cse", "dce"),
    2: PASS_ORDER,
}

#: Upper bound on pipeline rounds per graph; the pass manager stops
#: earlier once a round changes nothing.
MAX_ROUNDS = 4


@dataclasses.dataclass(frozen=True)
class OptOptions:
    """Optimizer configuration: a level plus per-pass overrides."""

    level: int = 0
    enable: Tuple[str, ...] = ()
    disable: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.level not in LEVEL_PIPELINES:
            raise ValueError(f"unknown -O level: {self.level}")
        for name in (*self.enable, *self.disable):
            if name not in PASS_ORDER:
                raise ValueError(f"unknown optimizer pass: {name!r}")

    @classmethod
    def coerce(cls, value: Union["OptOptions", int, None]) -> "OptOptions":
        if value is None:
            return cls()
        if isinstance(value, OptOptions):
            return value
        return cls(level=int(value))

    @classmethod
    def from_flags(cls, level: int, passes: Sequence[str] = ()) -> "OptOptions":
        """Build from CLI-style pass specs: ``name`` enables, ``-name``
        disables (the ``--no-opt-pass`` spelling)."""
        enable = tuple(p for p in passes if not p.startswith("-"))
        disable = tuple(p[1:] for p in passes if p.startswith("-"))
        return cls(level=level, enable=enable, disable=disable)

    def pipeline(self) -> Tuple[str, ...]:
        """The effective ordered pass list."""
        selected = set(LEVEL_PIPELINES[self.level])
        selected.update(self.enable)
        selected.difference_update(self.disable)
        return tuple(name for name in PASS_ORDER if name in selected)

    def fingerprint(self) -> str:
        """Stable cache-key component describing this configuration."""
        parts = [f"O{self.level}"]
        parts.extend(f"+{name}" for name in sorted(self.enable))
        parts.extend(f"-{name}" for name in sorted(self.disable))
        return "".join(parts)


@dataclasses.dataclass
class PassStats:
    """Accounting for one pass across every graph and round of a compile."""

    name: str
    runs: int = 0
    ops_removed: int = 0
    ops_rewritten: int = 0
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "ops_removed": self.ops_removed,
            "ops_rewritten": self.ops_rewritten,
            "seconds": round(self.seconds, 6),
        }


@dataclasses.dataclass
class OptimizerReport:
    """Aggregated optimizer accounting for one compile."""

    level: int
    pipeline: Tuple[str, ...]
    passes: Dict[str, PassStats] = dataclasses.field(default_factory=dict)
    graphs: int = 0
    nodes_before: int = 0
    nodes_after: int = 0
    seconds: float = 0.0
    cross_isax: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def ops_removed(self) -> int:
        return sum(s.ops_removed for s in self.passes.values())

    @property
    def ops_rewritten(self) -> int:
        return sum(s.ops_rewritten for s in self.passes.values())

    @property
    def node_reduction_pct(self) -> float:
        if self.nodes_before <= 0:
            return 0.0
        return 100.0 * (1.0 - self.nodes_after / self.nodes_before)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "level": self.level,
            "pipeline": list(self.pipeline),
            "graphs": self.graphs,
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "node_reduction_pct": round(self.node_reduction_pct, 2),
            "ops_removed": self.ops_removed,
            "ops_rewritten": self.ops_rewritten,
            "seconds": round(self.seconds, 6),
            "passes": {name: stats.to_dict()
                       for name, stats in self.passes.items()},
            "cross_isax": self.cross_isax,
        }


class PassManager:
    """Runs the configured pipeline over graphs, collecting statistics."""

    def __init__(self, options: Optional[OptOptions] = None,
                 verify: bool = False) -> None:
        self.options = options or OptOptions()
        self.verify = verify
        self.report = OptimizerReport(
            level=self.options.level, pipeline=self.options.pipeline())

    def run(self, graph: Graph) -> OptimizerReport:
        """Optimize one graph in place (up to ``MAX_ROUNDS`` rounds)."""
        pipeline = self.options.pipeline()
        if not pipeline:
            return self.report
        started = time.perf_counter()
        self.report.graphs += 1
        self.report.nodes_before += len(graph.operations)
        # Dirty tracking: ``version`` counts changes applied to the graph
        # so far, and each pass records the version it last ran at (after
        # its own changes — every pass drives itself to a local fixpoint).
        # A pass re-runs only when some other pass changed the graph
        # after its last run, so the global fixpoint is unchanged but
        # quiescent passes drop out of later rounds instead of paying a
        # full confirmation sweep each.
        version = 0
        ran_at: Dict[str, int] = {}
        for _round in range(MAX_ROUNDS):
            changed = 0
            for name in pipeline:
                if ran_at.get(name) == version:
                    continue
                stats = self.report.passes.setdefault(name, PassStats(name))
                pass_started = time.perf_counter()
                removed, rewritten = _PASS_FUNCS[name](graph)
                stats.seconds += time.perf_counter() - pass_started
                stats.runs += 1
                stats.ops_removed += removed
                stats.ops_rewritten += rewritten
                version += removed + rewritten
                ran_at[name] = version
                changed += removed + rewritten
                if self.verify:
                    require_valid(f"opt:{name}:{graph.name}",
                                  verify_graph(graph))
            if not changed:
                break
        self.report.nodes_after += len(graph.operations)
        self.report.seconds += time.perf_counter() - started
        return self.report


def optimize_graphs(named_graphs: Iterable[Tuple[str, str, Graph]],
                    options: Optional[OptOptions] = None,
                    verify: bool = False) -> OptimizerReport:
    """Optimize a set of ``(name, kind, graph)`` triples from one compile.

    Runs the per-graph pipeline on each graph, then — when the ``share``
    pass is enabled and at least two instruction graphs exist — the
    cross-ISAX pooling pass that annotates shareable units.
    """
    manager = PassManager(options, verify=verify)
    triples = list(named_graphs)
    for _name, _kind, graph in triples:
        manager.run(graph)
    pipeline = manager.options.pipeline()
    if "share" in pipeline:
        instruction_graphs = [t for t in triples if t[1] == "instruction"]
        if len(instruction_graphs) >= 2:
            started = time.perf_counter()
            manager.report.cross_isax = pool_cross_isax(triples)
            manager.report.seconds += time.perf_counter() - started
            if verify:
                for name, _kind, graph in triples:
                    require_valid(f"opt:cross-isax:{name}",
                                  verify_graph(graph))
    return manager.report
