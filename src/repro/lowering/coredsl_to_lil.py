"""coredsl/hwarith -> lil/comb conversion (paper Figure 5, step b->c).

Performs:

* **type erasure** — ui/si types become signless ``iN`` values; every
  arithmetic operand is explicitly zero-/sign-extended to the result width
  (the ``comb`` convention), reproducing the extract/replicate/concat idiom
  visible in the paper's Figure 5c,
* **interface pattern matching** — architectural-state accesses become
  explicit ``lil`` sub-interface operations: reads of the main register file
  indexed by the ``rs1``/``rs2`` encoding fields map to ``lil.read_rs1/_rs2``,
  writes indexed by ``rd`` to ``lil.write_rd``, PC and address-space accesses
  to the corresponding ops, custom registers to ``lil.read/write_custreg``,
  and constant registers are internalized as ``lil.rom`` lookups,
* **spawn flattening** — operations from a ``coredsl.spawn`` region are
  flattened into the surrounding graph, with interface ops marked
  ``spawn: true`` to preserve their provenance (Section 4.1c),
* **legalization checks** — each SCAIE-V sub-interface may be used at most
  once per instruction (Section 3.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dialects import lil
from repro.frontend.elaboration import ElaboratedISA, Encoding
from repro.ir.builder import Builder
from repro.ir.core import Graph, Operation, Value
from repro.ir.passes import canonicalize
from repro.scaiev.interfaces import address_width
from repro.utils.diagnostics import CoreDSLError

XLEN = 32


class _LilConverter:
    def __init__(self, isa: ElaboratedISA, container: Operation):
        self.isa = isa
        self.container = container
        kind = ("instruction" if container.name == "coredsl.instruction"
                else "always")
        attrs = {}
        if kind == "instruction":
            attrs["pattern"] = container.attr("pattern")
            attrs["fields"] = container.attr("fields")
        self.graph = lil.make_graph(container.attr("name"), kind, **attrs)
        self.builder = Builder.at(self.graph)
        self.mapping: Dict[Value, Value] = {}
        self.instr_word: Optional[Value] = None
        self.in_spawn = False
        self.encoding: Optional[Encoding] = None
        if kind == "instruction":
            instr = isa.instructions[container.attr("name")]
            self.encoding = instr.encoding

    # ------------------------------------------------------------- helpers
    def value(self, typed: Value) -> Value:
        mapped = self.mapping.get(typed)
        if mapped is None:
            raise CoreDSLError(
                f"internal: operand of '{typed.owner.name if typed.owner else '?'}' "
                "not yet converted"
            )
        return mapped

    def const(self, value: int, width: int) -> Value:
        return self.builder.constant(value, width)

    def truncate(self, value: Value, width: int) -> Value:
        if value.width == width:
            return value
        return self.builder.create(
            "comb.extract", [value], [(width, None)], {"low": 0}
        ).result

    def zext(self, value: Value, width: int) -> Value:
        if value.width == width:
            return value
        if value.width > width:
            return self.truncate(value, width)
        zero = self.const(0, width - value.width)
        return self.builder.create(
            "comb.concat", [zero, value], [(width, None)]
        ).result

    def sext(self, value: Value, width: int) -> Value:
        if value.width == width:
            return value
        if value.width > width:
            return self.truncate(value, width)
        msb = self.builder.create(
            "comb.extract", [value], [(1, None)], {"low": value.width - 1}
        ).result
        extension = width - value.width
        if extension == 1:
            rep = msb
        else:
            rep = self.builder.create(
                "comb.replicate", [msb], [(extension, None)]
            ).result
        return self.builder.create(
            "comb.concat", [rep, value], [(width, None)]
        ).result

    def adapt(self, typed: Value, width: int) -> Value:
        """Bring a converted operand to ``width`` honoring its signedness."""
        value = self.value(typed)
        if typed.signed:
            return self.sext(value, width)
        return self.zext(value, width)

    def pred_operand(self, op: Operation, data_count: int) -> Value:
        """Extract the optional trailing predicate; default constant 1."""
        if op.attr("has_pred"):
            return self.value(op.operands[-1])
        return self.const(1, 1)

    def get_instr_word(self) -> Value:
        if self.instr_word is None:
            instr_op = Operation("lil.instr_word", [], [(XLEN, None)])
            # Keep the instruction word at the top of the graph.
            block = self.graph.block
            if block.operations:
                block.insert_before(block.operations[0], instr_op)
            else:
                block.append(instr_op)
            self.instr_word = instr_op.result
        return self.instr_word

    # -------------------------------------------------------------- fields
    def convert_field(self, op: Operation) -> Value:
        name = op.attr("name")
        assert self.encoding is not None
        field = self.encoding.fields.get(name)
        if field is None:
            raise CoreDSLError(
                f"instruction '{self.graph.name}' has no encoding field "
                f"'{name}'"
            )
        word = self.get_instr_word()
        placements = sorted(field.placements, key=lambda p: p.field_hi,
                            reverse=True)
        parts: List[Value] = []
        next_bit = field.width - 1
        for pl in placements:
            if pl.field_hi < next_bit:
                parts.append(self.const(0, next_bit - pl.field_hi))
            piece_width = pl.field_hi - pl.field_lo + 1
            parts.append(
                self.builder.create(
                    "comb.extract", [word], [(piece_width, None)],
                    {"low": pl.instr_lo},
                ).result
            )
            next_bit = pl.field_lo - 1
        if next_bit >= 0:
            parts.append(self.const(0, next_bit + 1))
        if len(parts) == 1:
            return parts[0]
        return self.builder.create(
            "comb.concat", parts, [(field.width, None)]
        ).result

    # -------------------------------------------------------- state access
    def _field_name_of_index(self, index_typed: Value) -> Optional[str]:
        owner = index_typed.owner
        if owner is not None and owner.name == "coredsl.field":
            return owner.attr("name")
        return None

    def _spawn_attrs(self, extra: Optional[dict] = None) -> dict:
        attrs = dict(extra or {})
        if self.in_spawn:
            attrs["spawn"] = True
        return attrs

    def convert_get(self, op: Operation) -> Value:
        info = self.isa.state[op.attr("reg")]
        count = op.attr("count", 1)
        if info.is_main_reg:
            field = self._field_name_of_index(op.operands[0])
            if field == "rs1":
                return self.builder.create(
                    "lil.read_rs1", [], [(XLEN, None)], self._spawn_attrs()
                ).result
            if field == "rs2":
                return self.builder.create(
                    "lil.read_rs2", [], [(XLEN, None)], self._spawn_attrs()
                ).result
            raise CoreDSLError(
                "reads of the main register file must be indexed by the "
                "'rs1' or 'rs2' encoding field (SCAIE-V RdRS1/RdRS2)"
            )
        if info.is_pc:
            return self.builder.create(
                "lil.read_pc", [], [(XLEN, None)], self._spawn_attrs()
            ).result
        if info.is_main_mem:
            size_bits = info.element.width * count
            if size_bits not in (8, 16, 32):
                raise CoreDSLError(
                    f"memory access of {size_bits} bits is not supported "
                    "(SCAIE-V RdMem handles 8/16/32-bit accesses)"
                )
            addr = self.adapt(op.operands[0], XLEN)
            pred = self.pred_operand(op, 1)
            return self.builder.create(
                "lil.read_mem", [addr, pred], [(size_bits, None)],
                self._spawn_attrs({"size_bits": size_bits}),
            ).result
        if info.kind == "rom":
            index = self.value(op.operands[0])
            return self.builder.create(
                "lil.rom", [index], [(info.element.width * count, None)],
                {"reg": info.name, "values": list(info.init_values or []),
                 "count": count},
            ).result
        # Custom register (scalar or array).
        has_index = info.kind == "array_reg"
        operands: List[Value] = []
        if has_index:
            aw = address_width(info.size or 1)
            operands.append(self.adapt(op.operands[0], aw))
        operands.append(self.const(1, 1))
        return self.builder.create(
            "lil.read_custreg", operands, [(info.element.width, None)],
            self._spawn_attrs({"reg": info.name, "has_index": has_index}),
        ).result

    def convert_set(self, op: Operation) -> None:
        info = self.isa.state[op.attr("reg")]
        count = op.attr("count", 1)
        has_index = bool(op.attr("has_index"))
        value_typed = op.operands[0]
        index_typed = op.operands[1] if has_index else None
        if info.is_main_reg:
            field = (self._field_name_of_index(index_typed)
                     if index_typed is not None else None)
            if field != "rd":
                raise CoreDSLError(
                    "writes to the main register file must be indexed by the "
                    "'rd' encoding field (SCAIE-V WrRD)"
                )
            value = self.adapt(value_typed, XLEN)
            pred = self.pred_operand(op, 1)
            self.builder.create(
                "lil.write_rd", [value, pred], [], self._spawn_attrs()
            )
            return
        if info.is_pc:
            value = self.adapt(value_typed, XLEN)
            pred = self.pred_operand(op, 1)
            self.builder.create(
                "lil.write_pc", [value, pred], [], self._spawn_attrs()
            )
            return
        if info.is_main_mem:
            size_bits = info.element.width * count
            if size_bits not in (8, 16, 32):
                raise CoreDSLError(
                    f"memory store of {size_bits} bits is not supported"
                )
            assert index_typed is not None
            addr = self.adapt(index_typed, XLEN)
            value = self.adapt(value_typed, size_bits)
            pred = self.pred_operand(op, 2)
            self.builder.create(
                "lil.write_mem", [addr, value, pred], [],
                self._spawn_attrs({"size_bits": size_bits}),
            )
            return
        if info.kind == "rom":
            raise CoreDSLError(f"cannot write constant register '{info.name}'")
        operands = []
        custom_index = info.kind == "array_reg"
        if custom_index:
            assert index_typed is not None
            aw = address_width(info.size or 1)
            operands.append(self.adapt(index_typed, aw))
        operands.append(self.adapt(value_typed, info.element.width))
        operands.append(self.pred_operand(op, 2 if custom_index else 1))
        self.builder.create(
            "lil.write_custreg", operands, [],
            self._spawn_attrs({"reg": info.name, "has_index": custom_index}),
        )

    # --------------------------------------------------------- computation
    def convert_compute(self, op: Operation) -> Value:
        name = op.name
        width = op.results[0].width
        if name == "hwarith.constant":
            return self.const(op.attr("value"), width)
        if name == "coredsl.cast":
            src = op.operands[0]
            value = self.value(src)
            if width <= src.width:
                return self.truncate(value, width)
            return self.sext(value, width) if src.signed else self.zext(value, width)
        if name in ("hwarith.add", "hwarith.sub", "hwarith.mul"):
            comb_name = {"hwarith.add": "comb.add", "hwarith.sub": "comb.sub",
                         "hwarith.mul": "comb.mul"}[name]
            lhs = self.adapt(op.operands[0], width)
            rhs = self.adapt(op.operands[1], width)
            attrs = {}
            if name == "hwarith.mul":
                # Record the pre-extension operand widths: synthesis infers
                # a w1 x w2 multiplier, not a width x width one, and the
                # technology library sizes it accordingly.
                attrs["op_widths"] = [op.operands[0].width,
                                      op.operands[1].width]
            return self.builder.create(
                comb_name, [lhs, rhs], [(width, None)], attrs
            ).result
        if name in ("hwarith.div", "hwarith.mod"):
            any_signed = bool(op.operands[0].signed or op.operands[1].signed)
            comb_name = {
                ("hwarith.div", False): "comb.divu",
                ("hwarith.div", True): "comb.divs",
                ("hwarith.mod", False): "comb.modu",
                ("hwarith.mod", True): "comb.mods",
            }[(name, any_signed)]
            lhs = self.adapt(op.operands[0], width)
            rhs = self.adapt(op.operands[1], width)
            return self.builder.create(
                comb_name, [lhs, rhs], [(width, None)]
            ).result
        if name == "hwarith.icmp":
            return self.convert_icmp(op)
        if name in ("coredsl.and", "coredsl.or", "coredsl.xor"):
            comb_name = "comb." + name.split(".")[1]
            lhs = self.adapt(op.operands[0], width)
            rhs = self.adapt(op.operands[1], width)
            return self.builder.create(
                comb_name, [lhs, rhs], [(width, None)]
            ).result
        if name == "coredsl.not":
            return self.builder.create(
                "comb.not", [self.value(op.operands[0])], [(width, None)]
            ).result
        if name == "coredsl.neg":
            operand = self.adapt(op.operands[0], width)
            zero = self.const(0, width)
            return self.builder.create(
                "comb.sub", [zero, operand], [(width, None)]
            ).result
        if name == "coredsl.shl":
            lhs = self.adapt(op.operands[0], width)
            amount = self.zext(self.value(op.operands[1]), width)
            return self.builder.create(
                "comb.shl", [lhs, amount], [(width, None)]
            ).result
        if name == "coredsl.shr":
            return self.convert_shr(op)
        if name == "coredsl.concat":
            lhs = self.value(op.operands[0])
            rhs = self.value(op.operands[1])
            return self.builder.create(
                "comb.concat", [lhs, rhs], [(width, None)]
            ).result
        if name == "coredsl.extract":
            operand = self.value(op.operands[0])
            return self.builder.create(
                "comb.extract", [operand], [(width, None)],
                {"low": op.attr("lo")},
            ).result
        if name == "coredsl.mux":
            cond = self.value(op.operands[0])
            true_value = self.adapt(op.operands[1], width)
            false_value = self.adapt(op.operands[2], width)
            return self.builder.create(
                "comb.mux", [cond, true_value, false_value], [(width, None)]
            ).result
        if name == "coredsl.field":
            return self.convert_field(op)
        raise CoreDSLError(f"cannot convert '{name}' to lil/comb")

    def convert_icmp(self, op: Operation) -> Value:
        lhs_t, rhs_t = op.operands
        pred = op.attr("predicate")
        if lhs_t.signed == rhs_t.signed:
            width = max(lhs_t.width, rhs_t.width)
            signed = bool(lhs_t.signed)
        else:
            unsigned_w = lhs_t.width if not lhs_t.signed else rhs_t.width
            signed_w = lhs_t.width if lhs_t.signed else rhs_t.width
            width = max(unsigned_w + 1, signed_w)
            signed = True
        lhs = self.adapt(lhs_t, width)
        rhs = self.adapt(rhs_t, width)
        if pred in ("eq", "ne"):
            comb_pred = pred
        else:
            comb_pred = ("s" if signed else "u") + {"lt": "lt", "le": "le",
                                                    "gt": "gt", "ge": "ge"}[pred]
        return self.builder.create(
            "comb.icmp", [lhs, rhs], [(1, None)], {"predicate": comb_pred}
        ).result

    def convert_shr(self, op: Operation) -> Value:
        width = op.results[0].width
        lhs_t, amt_t = op.operands
        lhs = self.value(lhs_t)
        shr_name = "comb.shrs" if lhs_t.signed else "comb.shru"
        if amt_t.width <= width:
            amount = self.zext(self.value(amt_t), width)
            return self.builder.create(
                shr_name, [lhs, amount], [(width, None)]
            ).result
        # Shift amount wider than the value: guard against overshift.
        amt = self.value(amt_t)
        limit = self.const(width, amt_t.width)
        overflow = self.builder.create(
            "comb.icmp", [amt, limit], [(1, None)], {"predicate": "uge"}
        ).result
        small = self.truncate(amt, width)
        shifted = self.builder.create(
            shr_name, [lhs, small], [(width, None)]
        ).result
        if lhs_t.signed:
            max_shift = self.const(width - 1, width)
            fill = self.builder.create(
                "comb.shrs", [lhs, max_shift], [(width, None)]
            ).result
        else:
            fill = self.const(0, width)
        return self.builder.create(
            "comb.mux", [overflow, fill, shifted], [(width, None)]
        ).result

    # -------------------------------------------------------------- driver
    def convert_block(self, block) -> None:
        for op in list(block.operations):
            if op.name == "coredsl.end":
                continue
            if op.name == "coredsl.spawn":
                self.in_spawn = True
                self.convert_block(op.regions[0].entry)
                self.in_spawn = False
                continue
            if op.name in ("coredsl.get", "coredsl.get_range"):
                self.mapping[op.results[0]] = self.convert_get(op)
            elif op.name in ("coredsl.set", "coredsl.set_range"):
                self.convert_set(op)
            elif op.results:
                self.mapping[op.results[0]] = self.convert_compute(op)
            else:
                raise CoreDSLError(f"cannot convert '{op.name}'")

    def check_single_use(self) -> None:
        counts: Dict[str, int] = {}
        for op in self.graph.operations:
            name = lil.interface_name(op)
            if name is not None:
                counts[name] = counts.get(name, 0) + 1
        violations = sorted(n for n, c in counts.items() if c > 1)
        if violations:
            raise CoreDSLError(
                f"'{self.graph.name}' uses sub-interface(s) "
                f"{', '.join(violations)} more than once; each SCAIE-V "
                "sub-interface may be used once per instruction"
            )

    def run(self) -> Graph:
        self.convert_block(self.container.regions[0].entry)
        self.builder.create("lil.sink", [], [])
        canonicalize(self.graph)
        # Fields used only to *select* a sub-interface (rs1/rs2/rd) leave no
        # consumer behind; drop the instruction-word read if nothing uses it.
        for op in list(self.graph.operations):
            if op.name == "lil.instr_word" and not op.has_uses:
                op.erase()
        self.check_single_use()
        self.graph.verify()
        return self.graph


def convert_to_lil(isa: ElaboratedISA, container: Operation) -> Graph:
    """Convert one lowered coredsl.instruction/always op to a lil graph."""
    return _LilConverter(isa, container).run()
