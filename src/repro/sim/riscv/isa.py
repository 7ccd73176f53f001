"""Functional RV32IM instruction-set simulator with ISAX support.

Implements the RV32IM base instruction set (decode + execute) over the
shared :class:`~repro.sim.coredsl_interp.ArchState`.  Instruction words that
do not decode as RV32IM are matched against the elaborated ISAX's encodings
and executed through the CoreDSL golden model, exactly mirroring how the
extended core executes them.

Each simulator decodes a word once: the first time a word executes, it
becomes a handler that holds the word's fields and immediates, kept in a
table keyed by the word.  Data words are never decoded, and every simulator
starts with an empty table.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

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


#: A decoded word: executes it at the given pc and returns its record.
Handler = Callable[[int], ExecutedInstr]

M32 = 0xFFFFFFFF


def _s32(value: int) -> int:
    """``to_signed(value, 32)``."""
    return ((value & M32) ^ 0x80000000) - 0x80000000


def _word(memory: Dict[int, int], address: int) -> int:
    """``ArchState.read_mem(address, 4)``: a little-endian word, with each
    byte address wrapped at 2**32."""
    return (memory.get(address & M32, 0)
            | memory.get((address + 1) & M32, 0) << 8
            | memory.get((address + 2) & M32, 0) << 16
            | memory.get((address + 3) & M32, 0) << 24)


def _div(a: int, b: int) -> int:
    sa, sb = _s32(a), _s32(b)
    if sb == 0:
        return M32
    quotient = abs(sa) // abs(sb)
    return (-quotient if (sa < 0) != (sb < 0) else quotient) & M32


def _rem(a: int, b: int) -> int:
    sa, sb = _s32(a), _s32(b)
    if sb == 0:
        return a
    quotient = abs(sa) // abs(sb)
    quotient = -quotient if (sa < 0) != (sb < 0) else quotient
    return (sa - quotient * sb) & M32


#: ALU results on unsigned 32-bit operands, by ``(funct3, funct7 & 0x20)``;
#: OP-IMM passes its immediate as an unsigned ``b``, or the shift amount.
_ALU = {
    (0, 0): lambda a, b: (a + b) & M32,
    (0, 0x20): lambda a, b: (a - b) & M32,
    (1, 0): lambda a, b: (a << (b & 0x1F)) & M32,
    (2, 0): lambda a, b: int(_s32(a) < _s32(b)),
    (3, 0): lambda a, b: int(a < b),
    (4, 0): lambda a, b: a ^ b,
    (5, 0): lambda a, b: a >> (b & 0x1F),
    (5, 0x20): lambda a, b: (_s32(a) >> (b & 0x1F)) & M32,
    (6, 0): lambda a, b: a | b,
    (7, 0): lambda a, b: a & b,
}

#: RV32M results by funct3: mul/mulh/mulhsu/mulhu/div/divu/rem/remu.
_MUL_DIV = {
    0: lambda a, b: (_s32(a) * _s32(b)) & M32,
    1: lambda a, b: ((_s32(a) * _s32(b)) >> 32) & M32,
    2: lambda a, b: ((_s32(a) * b) >> 32) & M32,
    3: lambda a, b: ((a * b) >> 32) & M32,
    4: _div,
    5: lambda a, b: a // b if b else M32,
    6: _rem,
    7: lambda a, b: a % b if b else a,
}

#: Branches by funct3: mnemonic and condition.
_BRANCHES = {
    0: ("beq", lambda a, b: a == b),
    1: ("bne", lambda a, b: a != b),
    4: ("blt", lambda a, b: _s32(a) < _s32(b)),
    5: ("bge", lambda a, b: _s32(a) >= _s32(b)),
    6: ("bltu", lambda a, b: a < b),
    7: ("bgeu", lambda a, b: a >= b),
}

#: Loads by funct3: mnemonic, bytes, and the width to sign-extend from.
_LOADS = {0: ("lb", 1, 8), 1: ("lh", 2, 16), 2: ("lw", 4, 0),
          4: ("lbu", 1, 0), 5: ("lhu", 2, 0)}

#: Stores by funct3: mnemonic and bytes.
_STORES = {0: ("sb", 1), 1: ("sh", 2), 2: ("sw", 4)}


class RV32ISimulator:
    """Functional simulator: RV32IM base plus optional ISAXes."""

    def __init__(self, isa: Optional[ElaboratedISA] = None,
                 state: Optional[ArchState] = None):
        if state is None:
            if isa is None:
                raise SimError("need an ElaboratedISA or an ArchState")
            state = ArchState(isa)
        self.state = state
        self.isax_isas: List[ElaboratedISA] = []
        self.interpreters: List[CoreDSLInterpreter] = []
        #: word -> its handler, filled as words first execute
        self._handlers: Dict[int, Handler] = {}
        if isa is not None:
            self.add_isax(isa)
        self.halted = False
        self.instret = 0

    def add_isax(self, isa: ElaboratedISA) -> None:
        self.isax_isas.append(isa)
        self.interpreters.append(CoreDSLInterpreter(isa))
        self.state.add_custom_state(isa)
        # A word decoded as illegal may be this ISAX's.
        self._handlers.clear()

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
        record = self.execute(_word(state.memory, pc), pc)
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
        handler = self._handlers.get(word)
        if handler is None:
            handler = self._handlers[word] = self._decode(word)
        return handler(pc)

    def _decode(self, word: int) -> Handler:
        """The handler of ``word``, with its fields extracted once."""
        state = self.state
        opcode = word & 0x7F
        rd = extract_bits(word, 11, 7)
        rs1 = extract_bits(word, 19, 15)
        rs2 = extract_bits(word, 24, 20)
        funct3 = extract_bits(word, 14, 12)
        funct7 = extract_bits(word, 31, 25)
        # Registers a record lists as read: x0 never is.
        reads1 = (rs1,) if rs1 else ()
        reads2 = tuple(r for r in (rs1, rs2) if r)

        if opcode in (0x37, 0x17):  # LUI, AUIPC
            upper = _imm_u(word)
            mnemonic = "lui" if opcode == 0x37 else "auipc"
            relative = opcode == 0x17

            def upper_immediate(pc: int) -> ExecutedInstr:
                if rd:
                    state.xregs[rd] = ((pc if relative else 0) + upper) & M32
                return ExecutedInstr(pc, word, mnemonic, "alu", rd, [], False,
                                     None, [], (pc + 4) & M32)
            return upper_immediate
        if opcode == 0x6F:  # JAL
            offset = _imm_j(word)

            def jal(pc: int) -> ExecutedInstr:
                if rd:
                    state.xregs[rd] = (pc + 4) & M32
                return ExecutedInstr(pc, word, "jal", "jump", rd, [], True,
                                     None, [], (pc + offset) & M32)
            return jal
        if opcode == 0x67 and funct3 == 0:  # JALR
            offset = _imm_i(word)

            def jalr(pc: int) -> ExecutedInstr:
                xregs = state.xregs
                base = xregs[rs1] if rs1 else 0
                if rd:
                    xregs[rd] = (pc + 4) & M32
                return ExecutedInstr(pc, word, "jalr", "jump", rd,
                                     list(reads1), True, None, [],
                                     ((base + offset) & M32) & ~1)
            return jalr
        if opcode == 0x63:  # branches
            if funct3 not in _BRANCHES:
                return _raises(f"illegal branch funct3={funct3}")
            mnemonic, condition = _BRANCHES[funct3]
            offset = _imm_b(word)

            def branch(pc: int) -> ExecutedInstr:
                xregs = state.xregs
                taken = condition(xregs[rs1] if rs1 else 0,
                                  xregs[rs2] if rs2 else 0)
                return ExecutedInstr(pc, word, mnemonic, "branch", None,
                                     list(reads2), taken, None, [],
                                     (pc + offset if taken else pc + 4)
                                     & M32)
            return branch
        if opcode == 0x03:  # loads
            if funct3 not in _LOADS:
                return _raises(f"illegal load funct3={funct3}")
            mnemonic, size, signed = _LOADS[funct3]
            offset = _imm_i(word)

            def load(pc: int) -> ExecutedInstr:
                xregs = state.xregs
                address = ((xregs[rs1] if rs1 else 0) + offset) & M32
                if size == 4:
                    value = _word(state.memory, address)
                else:
                    value = state.read_mem(address, size)
                    if signed:
                        value = sign_extend(value, signed, 32)
                if rd:
                    xregs[rd] = value
                return ExecutedInstr(pc, word, mnemonic, "load", rd,
                                     list(reads1), False, None, [],
                                     (pc + 4) & M32)
            return load
        if opcode == 0x23:  # stores
            if funct3 not in _STORES:
                return _raises(f"illegal store funct3={funct3}")
            mnemonic, size = _STORES[funct3]
            offset = _imm_s(word)
            keep = (1 << (8 * size)) - 1

            def store(pc: int) -> ExecutedInstr:
                xregs = state.xregs
                address = ((xregs[rs1] if rs1 else 0) + offset) & M32
                state.write_mem(address, (xregs[rs2] if rs2 else 0) & keep,
                                size)
                return ExecutedInstr(pc, word, mnemonic, "store", None,
                                     list(reads2), False, None, [],
                                     (pc + 4) & M32)
            return store
        if opcode == 0x13:  # OP-IMM
            operation = _ALU[funct3, funct7 & 0x20 if funct3 == 5 else 0]
            operand = rs2 if funct3 in (1, 5) else _imm_i(word) & M32

            def op_imm(pc: int) -> ExecutedInstr:
                xregs = state.xregs
                value = operation(xregs[rs1] if rs1 else 0, operand)
                if rd:
                    xregs[rd] = value & M32
                return ExecutedInstr(pc, word, "op-imm", "alu", rd,
                                     list(reads1), False, None, [],
                                     (pc + 4) & M32)
            return op_imm
        if opcode == 0x33:  # OP (incl. the M extension)
            if funct7 == 0x01:
                operation = _MUL_DIV[funct3]
                mnemonic, kind = "op-m", "mul" if funct3 < 4 else "div"
            else:
                operation = _ALU[
                    funct3, funct7 & 0x20 if funct3 in (0, 5) else 0]
                mnemonic, kind = "op", "alu"

            def op(pc: int) -> ExecutedInstr:
                xregs = state.xregs
                value = operation(xregs[rs1] if rs1 else 0,
                                  xregs[rs2] if rs2 else 0)
                if rd:
                    xregs[rd] = value & M32
                return ExecutedInstr(pc, word, mnemonic, kind, rd,
                                     list(reads2), False, None, [],
                                     (pc + 4) & M32)
            return op
        if opcode == 0x0F:  # FENCE
            def fence(pc: int) -> ExecutedInstr:
                return ExecutedInstr(pc, word, "fence", "system", None, [],
                                     False, None, [], (pc + 4) & M32)
            return fence
        if opcode == 0x73:  # SYSTEM: ecall/ebreak halt the simulation
            mnemonic = "ecall" if extract_bits(word, 20, 20) == 0 else "ebreak"

            def system(pc: int) -> ExecutedInstr:
                self.halted = True
                return ExecutedInstr(pc, word, mnemonic, "system", None, [],
                                     False, None, [], (pc + 4) & M32)
            return system

        # Not base RV32IM: try the ISAX encodings.
        for isa, interp in zip(self.isax_isas, self.interpreters):
            name = interp.match_instruction(word)
            if name is not None:
                fields = isa.instructions[name].fields
                reads = tuple(reg for reg, field in ((rs1, "rs1"), (rs2, "rs2"))
                              if field in fields and reg)
                return self._isax(word, interp, name, rd, reads)

        def illegal(pc: int) -> ExecutedInstr:
            raise SimError(f"illegal instruction {word:#010x} at pc={pc:#010x}")
        return illegal

    def _isax(self, word: int, interp: CoreDSLInterpreter, name: str,
              rd: int, reads: Tuple[int, ...]) -> Handler:
        """Handler of an ISAX word: the golden model runs it every time."""
        state = self.state

        def isax(pc: int) -> ExecutedInstr:
            saved_pc = state.pc
            state.pc = pc
            effects = interp.execute_instruction(state, name, word)
            # The next pc is the written PC, even where that is this
            # instruction's own address.
            kinds = {effect.kind for effect in effects}
            jumped = "pc" in kinds
            next_pc = state.pc if jumped else (pc + 4) & M32
            state.pc = saved_pc
            return ExecutedInstr(pc, word, name, "isax",
                                 rd if "gpr" in kinds else None, list(reads),
                                 jumped, name, effects, next_pc)
        return isax


def _raises(message: str) -> Handler:
    """Handler of a word that is illegal with ``message``."""
    def illegal(pc: int) -> ExecutedInstr:
        raise SimError(message)
    return illegal
