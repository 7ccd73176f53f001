"""Resource-sharing graph transforms.

Two layers, both extending the cost-model-only analysis of
:mod:`repro.hls.sharing` into actual IR rewrites:

* :func:`mux_push` (the ``share`` pass) rewrites ``mux(c, f(a, b), f(d, e))``
  into ``f(mux(c, a, d), mux(c, b, e))`` for expensive operator kinds —
  the two mutually-exclusive units collapse into one physical unit fed by
  input muxes.  This is sound for any pure ``f`` and depth-neutral (a mux
  before the unit replaces the mux after it).
* :func:`pool_cross_isax` pools same-shaped expensive units across the
  *instruction* graphs of one compile (instructions issue one at a time on
  the host cores, paper Section 7), assigning each instance a stable
  ``shared_unit`` attribute: instances in different instructions with the
  same unit id time-share one physical unit.  Downstream consumers
  (:func:`repro.hls.sharing.shared_unit_assignments`, the area model, the
  metrics JSON) read the annotation; the IR verifier ignores unknown
  attributes, and hardware generation carries them into the module.

No imports from ``repro.hls`` at module level — ``hls.longnail`` imports
this package, and ``hls.sharing`` imports ``hls.longnail``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

from repro.ir.core import Graph, Operation
from repro.ir.rewrite import apply_rules

#: Operator kinds expensive enough that steering muxes are profitable.
#: Wiring/bitwise ops are cheaper than the muxes sharing them would need.
SHARE_KINDS = (
    "comb.mul", "comb.divu", "comb.divs", "comb.modu", "comb.mods",
    "comb.rom", "lil.rom",
)


def _is_shareable(op: Operation) -> bool:
    return (op.name in SHARE_KINDS and not op.opdef.has_side_effects
            and not op.opdef.is_terminator and not op.regions
            and len(op.results) == 1)


def _attrs_key(op: Operation) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, repr(v)) for k, v in op.attributes.items()
                        if k != "shared_unit"))


# ---------------------------------------------------------------------------
# Intra-graph: push muxes through mutually exclusive expensive ops
# ---------------------------------------------------------------------------

def _only_use_is(value_op: Operation, user: Operation) -> bool:
    uses = value_op.result.uses
    return len(uses) >= 1 and all(use_op is user for use_op, _ in uses)


def _push_mux(graph: Graph, op: Operation) -> bool:
    """Rewrite ``mux(c, f(..), f(..))`` to ``f(mux(c, ..), ..)`` when both
    arms are single-use instances of the same expensive operator shape."""
    cond, t_val, f_val = op.operands
    t_op, f_op = t_val.owner, f_val.owner
    if (t_op is None or f_op is None or t_op is f_op
            or not (_is_shareable(t_op) and _is_shareable(f_op))
            or t_op.name != f_op.name
            or _attrs_key(t_op) != _attrs_key(f_op)
            or len(t_op.operands) != len(f_op.operands)
            or any(a.width != b.width
                   for a, b in zip(t_op.operands, f_op.operands))
            or not (_only_use_is(t_op, op) and _only_use_is(f_op, op))
            or cond.owner is t_op or cond.owner is f_op):
        return False
    shared_operands = []
    for a, b in zip(t_op.operands, f_op.operands):
        if a is b:
            shared_operands.append(a)
        else:
            steer = Operation("comb.mux", [cond, a, b], [(a.width, None)])
            graph.block.insert_before(op, steer)
            shared_operands.append(steer.result)
    shared = Operation(
        t_op.name, shared_operands, [(op.result.width, op.result.signed)],
        dict(t_op.attributes))
    graph.block.insert_before(op, shared)
    op.result.replace_all_uses_with(shared.result)
    op.erase()
    t_op.erase()
    f_op.erase()
    return True


def mux_push(graph: Graph) -> Tuple[int, int]:
    """Push every mux whose arms can share one unit (see :func:`_push_mux`).

    Returns ``(removed, rewritten)``: both arm units and the outer mux are
    erased, one shared unit plus per-operand steering muxes are created.
    """
    pushed = apply_rules(graph, {"comb.mux": (_push_mux,)})
    return 2 * pushed, pushed


# ---------------------------------------------------------------------------
# Cross-ISAX: pool same-shaped units across instruction graphs
# ---------------------------------------------------------------------------

def shape_of(op: Operation) -> Tuple[Any, ...]:
    """Operator kind plus operand widths (``op_widths`` when set) and
    result width: two differently-sized units cannot share one.  The
    grouping key of :mod:`repro.hls.sharing` as well."""
    widths = tuple(o.width for o in op.operands)
    op_widths = op.attr("op_widths")
    if op_widths:
        widths = tuple(op_widths)
    result = op.results[0].width if op.results else 0
    return (op.name, widths, result)


def _shape_key(op: Operation) -> Tuple[Any, ...]:
    """:func:`shape_of` plus the attribute payload (two ROMs only share
    if their tables match)."""
    return shape_of(op) + (_attrs_key(op),)


def _unit_id(key: Tuple[Any, ...], slot: int) -> str:
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:8]
    return f"{key[0]}#{digest}#{slot}"


def pool_cross_isax(named_graphs: List[Tuple[str, str, Graph]]) -> Dict[str, Any]:
    """Annotate expensive ops shared across instruction graphs.

    ``named_graphs`` is ``(name, kind, graph)`` triples; only
    ``kind == "instruction"`` graphs participate (always-blocks run every
    cycle and cannot time-share).  For each operator shape the pool needs
    ``max(count per graph)`` physical units while the spatial design
    instantiates ``sum(count per graph)``; every instance is tagged with a
    deterministic ``shared_unit`` id so instances with the same id (in
    different, mutually exclusive instructions) map to one unit.
    """
    per_graph: Dict[str, Dict[Tuple[Any, ...], List[Operation]]] = {}
    for name, kind, graph in named_graphs:
        if kind != "instruction":
            continue
        shapes: Dict[Tuple[Any, ...], List[Operation]] = {}
        for op in graph.operations:
            if _is_shareable(op):
                shapes.setdefault(_shape_key(op), []).append(op)
        per_graph[name] = shapes

    all_keys = sorted({key for shapes in per_graph.values() for key in shapes},
                      key=repr)
    groups = []
    instances_total = 0
    units_total = 0
    for key in all_keys:
        counts = {name: len(shapes.get(key, []))
                  for name, shapes in per_graph.items() if shapes.get(key)}
        instances = sum(counts.values())
        units = max(counts.values())
        if len(counts) >= 2:
            for name, shapes in per_graph.items():
                for slot, op in enumerate(shapes.get(key, [])):
                    op.attributes["shared_unit"] = _unit_id(key, slot)
        groups.append({
            "kind": key[0],
            "widths": list(key[1]),
            "result_width": key[2],
            "instances": instances,
            "units": units,
            "graphs": sorted(counts),
        })
        instances_total += instances
        units_total += units
    return {
        "groups": groups,
        "instances": instances_total,
        "units": units_total,
        "units_saved": instances_total - units_total,
    }
