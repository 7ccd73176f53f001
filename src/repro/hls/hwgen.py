"""Hardware generation: scheduled lil graph -> pipelined hw module
(paper Section 4.5).

For each lil graph Longnail constructs an individual hardware module in
which the graph's interface operations become input/output ports, with
numerical suffixes indicating the stage each port is active in (Figure 5d).
Stallable pipeline registers for intermediate results are inserted into the
data path where needed.  No controller circuit is inferred: the
SCAIE-V-generated logic tracks the progress of custom instructions in the
pipeline and commits their results at the appropriate time.
"""

from __future__ import annotations

from typing import Dict

from repro.dialects import comb, lil
from repro.dialects.hw import HWModule
from repro.ir.core import Graph, IRError, Operation, Value
from repro.scheduling.scheduler import ScheduleResult


class _ValueInfo:
    """Tracks one SSA value across pipeline stages."""

    def __init__(self, value: Value, avail_stage: int, is_constant: bool):
        self.at_stage: Dict[int, Value] = {avail_stage: value}
        self.avail_stage = avail_stage
        self.is_constant = is_constant

    def base(self) -> Value:
        return self.at_stage[self.avail_stage]


class _Recipe:
    """A wiring-only operation (extract/concat/replicate) that is
    re-materialized in whatever stage its consumers live, so only its
    (narrower) source operands are piped across cycle boundaries."""

    def __init__(self, op: Operation):
        self.op = op
        self.instances: Dict[int, Value] = {}


class _ModuleBuilder:
    def __init__(self, graph: Graph, schedule: ScheduleResult):
        self.graph = graph
        self.schedule = schedule
        self.module = HWModule(graph.name)
        self.values: Dict[Value, _ValueInfo] = {}
        self.recipes: Dict[Value, _Recipe] = {}
        self.stall_inputs: Dict[int, Value] = {}
        self.enables: Dict[int, Value] = {}
        self.reg_counter = 0

    # ------------------------------------------------------------- plumbing
    def _append(self, name: str, operands, result_types, attrs=None) -> Operation:
        # ``Operation`` copies ``attrs``: callers pass a source op's own.
        op = Operation(name, operands, result_types, attrs)
        self.module.body.append(op)
        return op

    def enable_for(self, stage: int) -> Value:
        """Register enable between ``stage`` and ``stage+1``: not stalled."""
        enable = self.enables.get(stage)
        if enable is not None:
            return enable
        stall = self.module.add_input(f"stall_in_{stage}", 1, stage=stage,
                                      role="stall")
        enable = self._append("comb.not", [stall], [(1, None)]).result
        self.stall_inputs[stage] = stall
        self.enables[stage] = enable
        return enable

    def pipe_to(self, info: _ValueInfo, stage: int) -> Value:
        """Return ``info``'s value as seen in ``stage``, inserting stallable
        pipeline registers across each crossed cycle boundary."""
        if info.is_constant:
            return info.base()
        if stage < info.avail_stage:
            raise IRError(
                f"module '{self.module.name}': value consumed in stage "
                f"{stage} before it is available in stage {info.avail_stage}"
            )
        cached = info.at_stage.get(stage)
        if cached is not None:
            return cached
        previous = self.pipe_to(info, stage - 1)
        enable = self.enable_for(stage - 1)
        self.reg_counter += 1
        reg = self._append(
            "seq.compreg", [previous, enable], [(previous.width, None)],
            {"name": f"pipe_{self.reg_counter}_{stage}"},
        ).result
        info.at_stage[stage] = reg
        return reg

    def operand_at(self, operand: Value, stage: int) -> Value:
        recipe = self.recipes.get(operand)
        if recipe is not None:
            return self.materialize(recipe, stage)
        info = self.values.get(operand)
        if info is None:
            raise IRError("operand has no recorded value info")
        return self.pipe_to(info, stage)

    def materialize(self, recipe: _Recipe, stage: int) -> Value:
        cached = recipe.instances.get(stage)
        if cached is not None:
            return cached
        operands = [self.operand_at(o, stage) for o in recipe.op.operands]
        new = self._append(
            recipe.op.name, operands,
            [(r.width, None) for r in recipe.op.results],
            recipe.op.attributes,
        )
        recipe.instances[stage] = new.result
        return new.result

    def record(self, old: Value, new: Value, avail_stage: int,
               is_constant: bool = False) -> None:
        self.values[old] = _ValueInfo(new, avail_stage, is_constant)

    # ---------------------------------------------------------- conversion
    def convert(self) -> HWModule:
        for op in self.graph.operations:
            if op.name == "lil.sink":
                continue
            stage = self.schedule.stage_of(op)
            if lil.is_interface_op(op):
                self.convert_interface(op, stage)
            elif op.name == "comb.constant":
                new = self._append(
                    "comb.constant", [], [(op.result.width, None)],
                    op.attributes,
                )
                self.record(op.result, new.result, stage, is_constant=True)
            elif op.name in comb.WIRING_OPS:
                # Pure wiring: re-materialize per consuming stage so only
                # the source operands are registered across boundaries.
                self.recipes[op.result] = _Recipe(op)
            elif op.name == "lil.rom":
                index = self.operand_at(op.operands[0], stage)
                rom_attrs = {"values": op.attr("values"),
                             "name": op.attr("reg")}
                if op.attr("shared_unit") is not None:
                    rom_attrs["shared_unit"] = op.attr("shared_unit")
                new = self._append(
                    "comb.rom", [index], [(op.result.width, None)],
                    rom_attrs,
                )
                self.record(op.result, new.result, stage)
            else:
                operands = [self.operand_at(o, stage) for o in op.operands]
                new = self._append(
                    op.name, operands,
                    [(r.width, None) for r in op.results],
                    op.attributes,
                )
                for old, fresh in zip(op.results, new.results):
                    self.record(old, fresh, stage)
        self.module.attributes["makespan"] = self.schedule.makespan
        self.module.attributes["pipeline_registers"] = self.reg_counter
        self.module.verify()
        return self.module

    def convert_interface(self, op: Operation, stage: int) -> None:
        name = op.name
        if name == "lil.instr_word":
            value = self.module.add_input(
                f"instr_word_{stage}", 32, stage=stage, role="RdInstr"
            )
            self.record(op.result, value, stage)
        elif name in ("lil.read_rs1", "lil.read_rs2", "lil.read_pc"):
            port = {"lil.read_rs1": "rs1_data", "lil.read_rs2": "rs2_data",
                    "lil.read_pc": "pc_data"}[name]
            role = lil.INTERFACE_OF[name]
            value = self.module.add_input(
                f"{port}_{stage}", 32, stage=stage, role=role
            )
            self.record(op.result, value, stage)
        elif name == "lil.read_mem":
            addr = self.operand_at(op.operands[0], stage)
            pred = self.operand_at(op.operands[1], stage)
            self.module.add_output(f"mem_raddr_{stage}", addr, stage=stage,
                                   role="RdMem")
            self.module.add_output(f"mem_rvalid_{stage}", pred, stage=stage,
                                   role="RdMem")
            latency = self.schedule.problem.linked_operator_type(op).latency
            avail = stage + latency
            data = self.module.add_input(
                f"mem_rdata_{avail}", op.result.width, stage=avail,
                role="RdMem",
            )
            self.record(op.result, data, avail)
        elif name == "lil.write_rd":
            value = self.operand_at(op.operands[0], stage)
            pred = self.operand_at(op.operands[1], stage)
            self.module.add_output(f"wrrd_data_{stage}", value, stage=stage,
                                   role="WrRD")
            self.module.add_output(f"wrrd_valid_{stage}", pred, stage=stage,
                                   role="WrRD")
        elif name == "lil.write_pc":
            value = self.operand_at(op.operands[0], stage)
            pred = self.operand_at(op.operands[1], stage)
            self.module.add_output(f"wrpc_data_{stage}", value, stage=stage,
                                   role="WrPC")
            self.module.add_output(f"wrpc_valid_{stage}", pred, stage=stage,
                                   role="WrPC")
        elif name == "lil.write_mem":
            addr = self.operand_at(op.operands[0], stage)
            value = self.operand_at(op.operands[1], stage)
            pred = self.operand_at(op.operands[2], stage)
            self.module.add_output(f"mem_waddr_{stage}", addr, stage=stage,
                                   role="WrMem")
            self.module.add_output(f"mem_wdata_{stage}", value, stage=stage,
                                   role="WrMem")
            self.module.add_output(f"mem_wvalid_{stage}", pred, stage=stage,
                                   role="WrMem")
        elif name == "lil.read_custreg":
            reg = op.attr("reg")
            operands = list(op.operands)
            if op.attr("has_index"):
                index = self.operand_at(operands[0], stage)
                self.module.add_output(f"rd{reg}_addr_{stage}", index,
                                       stage=stage, role=f"Rd{reg}")
            latency = self.schedule.problem.linked_operator_type(op).latency
            avail = stage + latency
            data = self.module.add_input(
                f"rd{reg}_data_{avail}", op.result.width, stage=avail,
                role=f"Rd{reg}",
            )
            self.record(op.result, data, avail)
        elif name == "lil.write_custreg":
            reg = op.attr("reg")
            operands = list(op.operands)
            cursor = 0
            if op.attr("has_index"):
                index = self.operand_at(operands[0], stage)
                self.module.add_output(f"wr{reg}_addr_{stage}", index,
                                       stage=stage, role=f"Wr{reg}.addr")
                cursor = 1
            value = self.operand_at(operands[cursor], stage)
            pred = self.operand_at(operands[cursor + 1], stage)
            self.module.add_output(f"wr{reg}_data_{stage}", value,
                                   stage=stage, role=f"Wr{reg}.data")
            self.module.add_output(f"wr{reg}_valid_{stage}", pred,
                                   stage=stage, role=f"Wr{reg}.data")
        else:  # pragma: no cover
            raise IRError(f"unhandled interface operation '{name}'")


def generate_module(graph: Graph, schedule: ScheduleResult) -> HWModule:
    """Generate the pipelined hardware module for one scheduled lil graph."""
    return _ModuleBuilder(graph, schedule).convert()
