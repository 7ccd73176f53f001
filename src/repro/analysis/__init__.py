"""Static analysis: CoreDSL lint rules and the IR verifier.

Tier A (:mod:`repro.analysis.lint`) walks the typed AST of an elaborated
ISA and reports structured :class:`~repro.utils.diagnostics.Diagnostic`
records with stable ``LNxxx`` codes.  Tier B (:mod:`repro.analysis.verifier`)
checks the ``lil``/``comb``/``hw`` graphs and solved schedules that the
lowering stages produce (``IVxxx`` codes); it runs between pipeline phases
under ``REPRO_IR_VERIFY=1``, inside the fuzz oracle stack, and on demand
via ``repro-longnail lint``.

Both tiers, the ``range-narrow`` optimizer pass, and the simulators'
lane-kind bound selection are backed by one abstract-interpretation
engine (:mod:`repro.analysis.absint`): interval + known-bits dataflow
over the CDFG, kept on each hardware module it analyses.
"""

from repro.analysis.absint import (
    ABSINT_COUNTS,
    AbsVal,
    IntRange,
    RangeFacts,
    absint_cache_stats,
    analyze_graph,
    analyze_module,
    clear_facts_cache,
    slice_source,
)
from repro.analysis.lint import (
    LINT_RULES,
    LintContext,
    LintRule,
    lint_cross_isa,
    lint_source,
    run_lints,
)
from repro.analysis.verifier import (
    IR_CHECKS,
    IRVerifyError,
    ir_verify_enabled,
    require_valid,
    verify_artifact_ir,
    verify_graph,
    verify_module,
    verify_schedule,
)

__all__ = [
    "ABSINT_COUNTS",
    "AbsVal",
    "IntRange",
    "RangeFacts",
    "absint_cache_stats",
    "analyze_graph",
    "analyze_module",
    "clear_facts_cache",
    "slice_source",
    "LINT_RULES",
    "LintContext",
    "LintRule",
    "lint_cross_isa",
    "lint_source",
    "run_lints",
    "IR_CHECKS",
    "IRVerifyError",
    "ir_verify_enabled",
    "require_valid",
    "verify_artifact_ir",
    "verify_graph",
    "verify_module",
    "verify_schedule",
]
