"""Functional RV32IM instruction-set simulator with ISAX support.

The base instruction set is the CoreDSL description
:data:`~repro.frontend.stdlib.RV32IM_CORE_DESC`, elaborated and translated
once per process (:func:`base_isa`).  A word decodes against the base
encodings first, with one dict lookup per distinct encoding mask, and then
against each ISAX's encodings.  Either way its behavior runs through the
CoreDSL golden model, so base and ISAX instructions take one path.

Each simulator decodes a word once: the first time a word executes, it
becomes a handler that holds the word's decoded fields, kept in a table
keyed by the word.  Data words are never decoded, and every simulator
starts with an empty table.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.frontend.elaboration import ElabInstruction, ElaboratedISA, elaborate
from repro.frontend.stdlib import RV32IM_CORE_DESC
from repro.sim.coredsl_interp import ArchState, CoreDSLInterpreter, Effect


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


#: A decoded word: executes it at the given pc and returns its record.
Handler = Callable[[int], ExecutedInstr]

M32 = 0xFFFFFFFF

#: The timing class of each base instruction; the rest are "alu".
BASE_KINDS = {
    **dict.fromkeys(("lb", "lh", "lw", "lbu", "lhu"), "load"),
    **dict.fromkeys(("sb", "sh", "sw"), "store"),
    **dict.fromkeys(("beq", "bne", "blt", "bge", "bltu", "bgeu"), "branch"),
    **dict.fromkeys(("jal", "jalr"), "jump"),
    **dict.fromkeys(("mul", "mulh", "mulhsu", "mulhu"), "mul"),
    **dict.fromkeys(("div", "divu", "rem", "remu"), "div"),
    **dict.fromkeys(("fence", "ecall", "ebreak"), "system"),
}

#: Base instructions that halt the simulator.
_HALTS = ("ecall", "ebreak")


class BaseISA(NamedTuple):
    """The RV32IM description, elaborated and translated."""

    isa: ElaboratedISA
    #: instruction name -> its compiled behavior
    behaviors: Dict[str, Callable]
    #: ``(mask, {match: instruction name})`` per distinct encoding mask
    decoders: Tuple[Tuple[int, Dict[int, str]], ...]


@functools.lru_cache(maxsize=None)
def base_isa() -> BaseISA:
    """The base instruction set, built once per process.  It holds no
    per-run state, so every simulator and assembler shares it."""
    isa = elaborate(RV32IM_CORE_DESC, filename="RV32IM.core_desc")
    interp = CoreDSLInterpreter(isa)
    decoders: Dict[int, Dict[int, str]] = {}
    for name, instr in isa.instructions.items():
        decoders.setdefault(instr.encoding.mask, {})[instr.encoding.match] = name
    return BaseISA(isa, {name: interp.behavior(name) for name in isa.instructions},
                   tuple(decoders.items()))


def _word(memory: Dict[int, int], address: int) -> int:
    """``ArchState.read_mem(address, 4)``: a little-endian word, with each
    byte address wrapped at 2**32."""
    return (memory.get(address & M32, 0)
            | memory.get((address + 1) & M32, 0) << 8
            | memory.get((address + 2) & M32, 0) << 16
            | memory.get((address + 3) & M32, 0) << 24)


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
        """Store ``words`` little-endian from ``base``, each byte address
        wrapped at 2**32."""
        data = b"".join((word & M32).to_bytes(4, "little") for word in words)
        self.state.memory.update(((base + i) & M32, byte)
                                 for i, byte in enumerate(data))

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
        """The handler of ``word``: a base instruction's, else an ISAX's."""
        base = base_isa()
        for mask, matches in base.decoders:
            name = matches.get(word & mask)
            if name is not None:
                return self._handler(word, base.isa.instructions[name],
                                     base.behaviors[name],
                                     BASE_KINDS.get(name, "alu"), None)
        for isa, interp in zip(self.isax_isas, self.interpreters):
            name = interp.match_instruction(word)
            if name is not None:
                return self._handler(word, isa.instructions[name],
                                     interp.behavior(name), "isax", name)

        def illegal(pc: int) -> ExecutedInstr:
            raise SimError(f"illegal instruction {word:#010x} at pc={pc:#010x}")
        return illegal

    def _handler(self, word: int, instr: ElabInstruction, behavior: Callable,
                 kind: str, isax: Optional[str]) -> Handler:
        """Handler of a word of ``instr``: the fields decode once, and the
        behavior runs every time.  The record lists ``rd`` if the behavior
        wrote a GPR, reads the nonzero ``rs1``/``rs2`` the encoding has, and
        takes the written PC as the next pc, even where that is the
        instruction's own address."""
        state = self.state
        name = instr.name
        fields = instr.encoding.decode(word)
        rd = (word >> 7) & 0x1F
        reads = tuple(reg for reg, field in (((word >> 15) & 0x1F, "rs1"),
                                             ((word >> 20) & 0x1F, "rs2"))
                      if field in fields and reg)
        halts = isax is None and name in _HALTS

        def run(pc: int) -> ExecutedInstr:
            saved_pc = state.pc
            state.pc = pc
            effects: List[Effect] = []
            behavior(state, effects, fields)
            written = None
            next_pc = (pc + 4) & M32
            jumped = False
            for effect in effects:
                if effect.kind == "gpr":
                    written = rd
                elif effect.kind == "pc":
                    jumped, next_pc = True, state.pc
            state.pc = saved_pc
            if halts:
                self.halted = True
            return ExecutedInstr(pc, word, name, kind, written, list(reads),
                                 jumped, isax, effects, next_pc)
        return run
