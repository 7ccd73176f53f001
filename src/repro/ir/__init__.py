"""A compact MLIR-like intermediate representation.

Longnail is built on MLIR/CIRCT (paper Section 4); this package provides the
corresponding infrastructure for the reproduction: SSA values, operations
with attributes and nested regions, blocks, a builder, a generic textual
printer, one worklist rewrite driver (:mod:`repro.ir.rewrite`), and
lowering's ``-O0`` cleanup on it (constant folding, dedup and DCE).

Dialects (:mod:`repro.dialects`) register operation definitions (result
count, verifier, folder) against the global registry defined here.
"""

from repro.ir.core import (
    Block,
    Graph,
    OpDef,
    Operation,
    Region,
    Value,
    register_op,
    lookup_op,
)
from repro.ir.builder import Builder
from repro.ir.printer import print_graph, print_operation

__all__ = [
    "Block",
    "Graph",
    "OpDef",
    "Operation",
    "Region",
    "Value",
    "register_op",
    "lookup_op",
    "Builder",
    "print_graph",
    "print_operation",
]
