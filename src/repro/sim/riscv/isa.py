"""Functional RV32I instruction-set simulator with ISAX support.

Implements the RV32I base instruction set (decode + execute) over the shared
:class:`~repro.sim.coredsl_interp.ArchState`.  Instruction words that do not
decode as RV32I are matched against the elaborated ISAX's encodings and
executed through the CoreDSL golden model, exactly mirroring how the
extended core executes them.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.frontend.elaboration import ElaboratedISA
from repro.sim.coredsl_interp import ArchState, CoreDSLInterpreter, Effect
from repro.utils.bits import extract_bits, sign_extend, to_signed, to_unsigned


class SimError(Exception):
    """Raised on illegal instructions or simulator misuse."""


@dataclasses.dataclass
class ExecutedInstr:
    """Retired-instruction record consumed by the timing models."""

    pc: int
    word: int
    mnemonic: str
    kind: str                 # alu | load | store | branch | jump | system | isax
    rd: Optional[int] = None
    rs_used: List[int] = dataclasses.field(default_factory=list)
    taken: bool = False
    isax: Optional[str] = None
    effects: List[Effect] = dataclasses.field(default_factory=list)
    next_pc: int = 0


def _imm_i(word: int) -> int:
    return to_signed(extract_bits(word, 31, 20), 12)


def _imm_s(word: int) -> int:
    value = (extract_bits(word, 31, 25) << 5) | extract_bits(word, 11, 7)
    return to_signed(value, 12)


def _imm_b(word: int) -> int:
    value = (
        (extract_bits(word, 31, 31) << 12)
        | (extract_bits(word, 7, 7) << 11)
        | (extract_bits(word, 30, 25) << 5)
        | (extract_bits(word, 11, 8) << 1)
    )
    return to_signed(value, 13)


def _imm_u(word: int) -> int:
    return extract_bits(word, 31, 12) << 12


def _imm_j(word: int) -> int:
    value = (
        (extract_bits(word, 31, 31) << 20)
        | (extract_bits(word, 19, 12) << 12)
        | (extract_bits(word, 20, 20) << 11)
        | (extract_bits(word, 30, 21) << 1)
    )
    return to_signed(value, 21)


class RV32ISimulator:
    """Functional simulator: RV32I base plus an optional ISAX."""

    def __init__(self, isa: Optional[ElaboratedISA] = None,
                 state: Optional[ArchState] = None):
        if state is None:
            if isa is None:
                raise SimError("need an ElaboratedISA or an ArchState")
            state = ArchState(isa)
        self.state = state
        self.isax_isas: List[ElaboratedISA] = []
        self.interpreters: List[CoreDSLInterpreter] = []
        if isa is not None:
            self.add_isax(isa)
        self.halted = False
        self.instret = 0

    def add_isax(self, isa: ElaboratedISA) -> None:
        self.isax_isas.append(isa)
        self.interpreters.append(CoreDSLInterpreter(isa))
        self.state.add_custom_state(isa)

    # ------------------------------------------------------------- memory
    def load_words(self, words: List[int], base: int = 0) -> None:
        for i, word in enumerate(words):
            self.state.write_mem(base + 4 * i, to_unsigned(word, 32), 4)

    # ------------------------------------------------------------- stepping
    def step(self) -> ExecutedInstr:
        if self.halted:
            raise SimError("simulator is halted")
        state = self.state
        pc = state.pc
        word = state.read_mem(pc, 4)
        record = self.execute(word, pc)
        state.pc = record.next_pc
        self.instret += 1
        return record

    def run(self, max_steps: int = 1_000_000) -> int:
        steps = 0
        while not self.halted and steps < max_steps:
            self.step()
            steps += 1
        return steps

    # ------------------------------------------------------------- execute
    def execute(self, word: int, pc: int) -> ExecutedInstr:
        state = self.state
        opcode = word & 0x7F
        rd = extract_bits(word, 11, 7)
        rs1 = extract_bits(word, 19, 15)
        rs2 = extract_bits(word, 24, 20)
        funct3 = extract_bits(word, 14, 12)
        funct7 = extract_bits(word, 31, 25)
        next_pc = to_unsigned(pc + 4, 32)

        def rec(mnemonic, kind, rd_=None, rs=(), taken=False, npc=None):
            return ExecutedInstr(
                pc=pc, word=word, mnemonic=mnemonic, kind=kind, rd=rd_,
                rs_used=[r for r in rs if r], taken=taken,
                next_pc=npc if npc is not None else next_pc,
            )

        if opcode == 0x37:  # LUI
            state.write_x(rd, _imm_u(word))
            return rec("lui", "alu", rd)
        if opcode == 0x17:  # AUIPC
            state.write_x(rd, pc + _imm_u(word))
            return rec("auipc", "alu", rd)
        if opcode == 0x6F:  # JAL
            state.write_x(rd, pc + 4)
            return rec("jal", "jump", rd, taken=True,
                       npc=to_unsigned(pc + _imm_j(word), 32))
        if opcode == 0x67 and funct3 == 0:  # JALR
            target = to_unsigned(state.read_x(rs1) + _imm_i(word), 32) & ~1
            state.write_x(rd, pc + 4)
            return rec("jalr", "jump", rd, rs=(rs1,), taken=True, npc=target)
        if opcode == 0x63:  # branches
            lhs, rhs = state.read_x(rs1), state.read_x(rs2)
            slhs, srhs = to_signed(lhs, 32), to_signed(rhs, 32)
            taken = {
                0: lhs == rhs, 1: lhs != rhs,
                4: slhs < srhs, 5: slhs >= srhs,
                6: lhs < rhs, 7: lhs >= rhs,
            }.get(funct3)
            if taken is None:
                raise SimError(f"illegal branch funct3={funct3}")
            names = {0: "beq", 1: "bne", 4: "blt", 5: "bge", 6: "bltu",
                     7: "bgeu"}
            npc = to_unsigned(pc + _imm_b(word), 32) if taken else next_pc
            return rec(names[funct3], "branch", rs=(rs1, rs2), taken=taken,
                       npc=npc)
        if opcode == 0x03:  # loads
            address = to_unsigned(state.read_x(rs1) + _imm_i(word), 32)
            if funct3 == 0:
                value = sign_extend(state.read_mem(address, 1), 8, 32)
                name = "lb"
            elif funct3 == 1:
                value = sign_extend(state.read_mem(address, 2), 16, 32)
                name = "lh"
            elif funct3 == 2:
                value = state.read_mem(address, 4)
                name = "lw"
            elif funct3 == 4:
                value = state.read_mem(address, 1)
                name = "lbu"
            elif funct3 == 5:
                value = state.read_mem(address, 2)
                name = "lhu"
            else:
                raise SimError(f"illegal load funct3={funct3}")
            state.write_x(rd, value)
            return rec(name, "load", rd, rs=(rs1,))
        if opcode == 0x23:  # stores
            address = to_unsigned(state.read_x(rs1) + _imm_s(word), 32)
            value = state.read_x(rs2)
            if funct3 == 0:
                state.write_mem(address, value & 0xFF, 1)
                name = "sb"
            elif funct3 == 1:
                state.write_mem(address, value & 0xFFFF, 2)
                name = "sh"
            elif funct3 == 2:
                state.write_mem(address, value, 4)
                name = "sw"
            else:
                raise SimError(f"illegal store funct3={funct3}")
            return rec(name, "store", rs=(rs1, rs2))
        if opcode == 0x13:  # OP-IMM
            value = self._op_imm(state.read_x(rs1), funct3, funct7, word)
            state.write_x(rd, value)
            return rec("op-imm", "alu", rd, rs=(rs1,))
        if opcode == 0x33:  # OP (incl. the M extension)
            if funct7 == 0x01:
                value = self._op_m(state.read_x(rs1), state.read_x(rs2),
                                   funct3)
                state.write_x(rd, value)
                kind = "mul" if funct3 < 4 else "div"
                return rec("op-m", kind, rd, rs=(rs1, rs2))
            value = self._op(state.read_x(rs1), state.read_x(rs2), funct3,
                             funct7)
            state.write_x(rd, value)
            return rec("op", "alu", rd, rs=(rs1, rs2))
        if opcode == 0x0F:  # FENCE
            return rec("fence", "system")
        if opcode == 0x73:  # SYSTEM: ecall/ebreak halt the simulation
            self.halted = True
            return rec("ecall" if extract_bits(word, 20, 20) == 0 else "ebreak",
                       "system")

        # Not base RV32I: try the ISAX encodings.
        for isa, interp in zip(self.isax_isas, self.interpreters):
            name = interp.match_instruction(word)
            if name is None:
                continue
            saved_pc = self.state.pc
            self.state.pc = pc
            effects = interp.execute_instruction(self.state, name, word)
            npc = self.state.pc if self.state.pc != pc else next_pc
            taken = npc != next_pc
            self.state.pc = saved_pc
            instr = isa.instructions[name]
            rs_used = []
            if "rs1" in instr.fields:
                rs_used.append(rs1)
            if "rs2" in instr.fields:
                rs_used.append(rs2)
            rd_out = rd if any(
                e.kind == "gpr" for e in effects
            ) else None
            record = ExecutedInstr(
                pc=pc, word=word, mnemonic=name, kind="isax", rd=rd_out,
                rs_used=[r for r in rs_used if r], taken=taken, isax=name,
                effects=effects, next_pc=npc,
            )
            return record
        raise SimError(f"illegal instruction {word:#010x} at pc={pc:#010x}")

    # -------------------------------------------------------------- ALU ops
    @staticmethod
    def _op_imm(a: int, funct3: int, funct7: int, word: int) -> int:
        imm = _imm_i(word)
        shamt = extract_bits(word, 24, 20)
        if funct3 == 0:
            return to_unsigned(a + imm, 32)
        if funct3 == 2:
            return int(to_signed(a, 32) < imm)
        if funct3 == 3:
            return int(a < to_unsigned(imm, 32))
        if funct3 == 4:
            return to_unsigned(a ^ imm, 32)
        if funct3 == 6:
            return to_unsigned(a | imm, 32)
        if funct3 == 7:
            return to_unsigned(a & imm, 32)
        if funct3 == 1:
            return to_unsigned(a << shamt, 32)
        if funct3 == 5:
            if funct7 & 0x20:
                return to_unsigned(to_signed(a, 32) >> shamt, 32)
            return a >> shamt
        raise SimError(f"illegal op-imm funct3={funct3}")

    @staticmethod
    def _op_m(a: int, b: int, funct3: int) -> int:
        """RV32M: mul/mulh/mulhsu/mulhu/div/divu/rem/remu."""
        sa, sb = to_signed(a, 32), to_signed(b, 32)
        if funct3 == 0:
            return to_unsigned(sa * sb, 32)
        if funct3 == 1:
            return to_unsigned((sa * sb) >> 32, 32)
        if funct3 == 2:
            return to_unsigned((sa * b) >> 32, 32)
        if funct3 == 3:
            return to_unsigned((a * b) >> 32, 32)
        if funct3 == 4:
            if sb == 0:
                return 0xFFFFFFFF
            quotient = abs(sa) // abs(sb)
            return to_unsigned(-quotient if (sa < 0) != (sb < 0) else quotient,
                               32)
        if funct3 == 5:
            return a // b if b else 0xFFFFFFFF
        if funct3 == 6:
            if sb == 0:
                return a
            quotient = abs(sa) // abs(sb)
            quotient = -quotient if (sa < 0) != (sb < 0) else quotient
            return to_unsigned(sa - quotient * sb, 32)
        if funct3 == 7:
            return a % b if b else a
        raise SimError(f"illegal M funct3={funct3}")

    @staticmethod
    def _op(a: int, b: int, funct3: int, funct7: int) -> int:
        shamt = b & 0x1F
        if funct3 == 0:
            if funct7 & 0x20:
                return to_unsigned(a - b, 32)
            return to_unsigned(a + b, 32)
        if funct3 == 1:
            return to_unsigned(a << shamt, 32)
        if funct3 == 2:
            return int(to_signed(a, 32) < to_signed(b, 32))
        if funct3 == 3:
            return int(a < b)
        if funct3 == 4:
            return a ^ b
        if funct3 == 5:
            if funct7 & 0x20:
                return to_unsigned(to_signed(a, 32) >> shamt, 32)
            return a >> shamt
        if funct3 == 6:
            return a | b
        if funct3 == 7:
            return a & b
        raise SimError(f"illegal op funct3={funct3}")
