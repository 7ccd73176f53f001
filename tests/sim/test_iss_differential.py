"""The ISS, which runs the RV32IM CoreDSL description, against a
hand-written decoder.

``_Reference`` keeps the hand-written decoder: it fetches through
``ArchState.read_mem`` and extracts every field of every word on every
call.  ``_Lockstep`` runs each step of the real simulator next to the
reference on a copy of the state, and compares every ``ExecutedInstr``
field and the whole architectural state after it.  The reference names
OP, OP-IMM and M words by family and records no base effects, so a
record's mnemonic is checked against the instruction the test derives from
the word, and its effects against the state change of the step.  Where
both reject a word, both raise :class:`SimError`; the texts may differ.
The reference keeps the old ISAX next-pc rule ("did ``state.pc``
change"), so no program here jumps to an ISAX's own address;
``test_riscv.py`` covers that case.
"""

import dataclasses
import inspect
import random

import pytest

from repro.discover.search import DiscoveryConfig, discover
from repro.sim.coredsl_interp import ArchState
from repro.sim.riscv import assemble, core_model
from repro.sim.riscv.isa import ExecutedInstr, RV32ISimulator, SimError
from repro.utils.bits import extract_bits, sign_extend, to_signed, to_unsigned
from repro.workloads import run_array_sum, run_audio_ml
from tests.sim import test_riscv, test_riscv_m_and_shared


def _imm_i(word):
    return to_signed(extract_bits(word, 31, 20), 12)


def _imm_s(word):
    value = (extract_bits(word, 31, 25) << 5) | extract_bits(word, 11, 7)
    return to_signed(value, 12)


def _imm_b(word):
    value = (
        (extract_bits(word, 31, 31) << 12)
        | (extract_bits(word, 7, 7) << 11)
        | (extract_bits(word, 30, 25) << 5)
        | (extract_bits(word, 11, 8) << 1)
    )
    return to_signed(value, 13)


def _imm_u(word):
    return extract_bits(word, 31, 12) << 12


def _imm_j(word):
    value = (
        (extract_bits(word, 31, 31) << 20)
        | (extract_bits(word, 19, 12) << 12)
        | (extract_bits(word, 20, 20) << 11)
        | (extract_bits(word, 30, 21) << 1)
    )
    return to_signed(value, 21)


class _Reference(RV32ISimulator):
    """The per-call decoder, as the oracle."""

    def step(self):
        if self.halted:
            raise SimError("simulator is halted")
        state = self.state
        pc = state.pc
        record = self.execute(state.read_mem(pc, 4), pc)
        state.pc = record.next_pc
        self.instret += 1
        return record

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


def _copy(state):
    copy = ArchState()
    copy.xregs = list(state.xregs)
    copy.pc = state.pc
    copy.memory = dict(state.memory)
    copy.custom = {name: list(values) for name, values in state.custom.items()}
    copy.custom_widths = state.custom_widths
    return copy


def _outcome(sim, action):
    """``(record or the SimError raised, state, halted)``."""
    try:
        record = action()
    except SimError as err:
        record = err
    return record, sim.state.snapshot(), sim.halted


_OP_IMM = {0: "addi", 1: "slli", 2: "slti", 3: "sltiu", 4: "xori",
           6: "ori", 7: "andi"}
_OP = {(0, 0): "add", (0, 0x20): "sub", (1, 0): "sll", (2, 0): "slt",
       (3, 0): "sltu", (4, 0): "xor", (5, 0): "srl", (5, 0x20): "sra",
       (6, 0): "or", (7, 0): "and"}
_OP_M = ("mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu")


def _name(record):
    """The instruction a reference record ran: its mnemonic, or the member
    of its family that the word's funct3 and funct7 select."""
    funct3, funct7 = (record.word >> 12) & 7, record.word >> 25
    if record.mnemonic == "op-imm":
        if funct3 == 5:
            return "srai" if funct7 & 0x20 else "srli"
        return _OP_IMM[funct3]
    if record.mnemonic == "op":
        return _OP[funct3, funct7]
    if record.mnemonic == "op-m":
        return _OP_M[funct3]
    return record.mnemonic


def _replayed(before, record, stepped):
    """The state ``before`` with the record's effects applied, and the pc
    moved on if the simulator stepped."""
    for effect in record.effects:
        if effect.kind == "gpr":
            before.write_x(effect.index, effect.value)
        elif effect.kind == "mem":
            before.write_mem(effect.index, effect.value, effect.width // 8)
        elif effect.kind == "custom":
            before.write_custom(effect.name, effect.value, effect.index)
        else:
            assert effect.kind == "pc" and record.taken
    if stepped:
        before.pc = record.next_pc
    return before.snapshot()


def _check(before, outcome, expected, stepped, context=None):
    """``outcome`` of the simulator against ``expected`` of the reference,
    both from the state ``before``."""
    (record, state, halted), (reference, reference_state, reference_halted) \
        = outcome, expected
    assert (state, halted) == (reference_state, reference_halted), context
    if isinstance(reference, SimError) or isinstance(record, SimError):
        assert (type(record), type(reference)) == (SimError, SimError), \
            (context, record, reference)
        return
    plain = ("mnemonic", "effects")
    assert ({k: v for k, v in dataclasses.asdict(record).items()
             if k not in plain}
            == {k: v for k, v in dataclasses.asdict(reference).items()
                if k not in plain}), context
    assert record.mnemonic == _name(reference), context
    if reference.isax is not None:
        assert record.effects == reference.effects, context
    assert _replayed(before, record, stepped) == state, context


def _reference_of(sim):
    reference = _Reference(state=_copy(sim.state))
    reference.isax_isas = sim.isax_isas
    reference.interpreters = sim.interpreters
    reference.halted = sim.halted
    return reference


class _Lockstep(RV32ISimulator):
    """Checks every step against the reference on a copy of the state."""

    checked = 0

    def step(self):
        reference = _reference_of(self)
        expected = _outcome(reference, reference.step)
        before = _copy(self.state)
        outcome = _outcome(self, lambda: RV32ISimulator.step(self))
        _check(before, outcome, expected, stepped=True)
        _Lockstep.checked += 1
        if isinstance(outcome[0], SimError):
            raise outcome[0]
        return outcome[0]


@pytest.fixture
def lockstep(monkeypatch):
    """Runs every core timing model on the lockstep simulator; yields a
    function that counts the steps checked so far."""
    monkeypatch.setattr(core_model, "RV32ISimulator", _Lockstep)
    before = _Lockstep.checked
    yield lambda: _Lockstep.checked - before


# -- random words ---------------------------------------------------------------
_CORNERS = (0, 1, 2, 0x7FF, 0x800, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE,
            0xFFFFFFFF)


def _random_word(rng):
    """A random RV32IM word; one in twenty is an undefined funct3."""
    word = rng.getrandbits(32)
    if rng.random() < 0.15:
        word &= ~(0x1F << 7)                      # rd = x0
    opcode = rng.choice((0x37, 0x17, 0x6F, 0x67, 0x63, 0x03, 0x23, 0x13,
                         0x33, 0x0F, 0x73))
    funct3 = (word >> 12) & 7
    funct7 = (word >> 25) & 0x7F
    undefined = rng.random() < 0.05
    if opcode == 0x67:
        funct3 = 0
    elif opcode == 0x63 and not undefined:
        funct3 = rng.choice((0, 1, 4, 5, 6, 7))
    elif opcode == 0x03 and not undefined:
        funct3 = rng.choice((0, 1, 2, 4, 5))
    elif opcode == 0x23 and not undefined:
        funct3 = rng.choice((0, 1, 2))
    elif opcode == 0x13 and funct3 in (1, 5):
        funct7 = rng.choice((0, 0x20)) if funct3 == 5 else 0
    elif opcode == 0x33:
        funct7 = rng.choice((0, 0x01, 0x20 if funct3 in (0, 5) else 0))
    elif opcode == 0x73:
        return rng.choice((0x00000073, 0x00100073))
    word = (word & ~0x7F & ~(7 << 12) & ~(0x7F << 25)) | opcode \
        | (funct3 << 12) | (funct7 << 25)
    return word


def _random_state(rng, sim):
    for index in range(1, 32):
        sim.state.xregs[index] = (rng.choice(_CORNERS) if rng.random() < 0.4
                                  else rng.getrandbits(32))
    for _ in range(16):
        address = (rng.choice(_CORNERS) + rng.randrange(-8, 8)) & 0xFFFFFFFF
        sim.state.write_mem(address, rng.getrandbits(32), 4)
    sim.state.pc = (rng.choice(_CORNERS) if rng.random() < 0.3
                    else rng.getrandbits(32)) & ~1


def _check_word(sim, word, pc=None):
    """Execute ``word`` on both decoders from ``sim``'s state, through
    ``execute`` and through a fetch from memory."""
    pc = sim.state.pc if pc is None else pc
    for via_memory in (False, True):
        new = RV32ISimulator(state=_copy(sim.state))
        reference = _reference_of(new)
        for each in (new, reference):
            each.state.pc = pc
            if via_memory:
                each.state.write_mem(pc, word, 4)
        action = (lambda s: s.step) if via_memory else \
            (lambda s: lambda: s.execute(word, pc))
        before = _copy(new.state)
        _check(before, _outcome(new, action(new)),
               _outcome(reference, action(reference)), via_memory,
               (hex(word), hex(pc)))


def test_random_words_on_random_states():
    rng = random.Random(20261020)
    sim = RV32ISimulator(state=ArchState())
    for _ in range(3000):
        _random_state(rng, sim)
        _check_word(sim, _random_word(rng))


@pytest.mark.parametrize("funct3", range(8))
def test_m_extension_corners(funct3):
    sim = RV32ISimulator(state=ArchState())
    word = (0x01 << 25) | (2 << 20) | (1 << 15) | (funct3 << 12) | (3 << 7) \
        | 0x33
    for a in _CORNERS:
        for b in _CORNERS:
            sim.state.xregs[1], sim.state.xregs[2] = a, b
            _check_word(sim, word, pc=0x100)


def test_fetch_and_memory_wrap_at_2_32():
    sim = RV32ISimulator(state=ArchState())
    sim.state.xregs[5] = 0xFFFFFFFE
    sim.state.write_mem(0xFFFFFFFE, 0x11223344, 4)
    for text in ("lw a0, 0(t0)", "lhu a0, 1(t0)", "sw t0, 1(t0)",
                 "lb a0, 3(t0)", "jalr ra, 8(t0)", "addi a0, t0, 4"):
        (word,) = assemble(text)
        for pc in (0xFFFFFFFC, 0xFFFFFFFE, 0xFFFFFFFF):
            _check_word(sim, word, pc=pc)


# -- programs -------------------------------------------------------------------
def test_self_modifying_code(lockstep):
    """A store rewrites an instruction that already ran; the next run of
    that address executes the new word."""
    new_word, = assemble("addi a0, a0, 100")
    program = assemble(
        f"li a1, 2\nli t1, {new_word}\n"
        "target:\naddi a0, a0, 1\nsw t1, 12(x0)\naddi a1, a1, -1\n"
        "bne a1, x0, target\necall")
    sim = _Lockstep(state=ArchState())
    sim.load_words(program)
    sim.run(100)
    assert sim.halted and sim.state.read_x(10) == 101
    assert lockstep() == sim.instret == 12


@pytest.mark.parametrize("n", [8, 33])
def test_section_55_programs(lockstep, n):
    result = run_array_sum(n)
    assert result.baseline_cycles > result.isax_cycles
    assert lockstep() > 7 * n      # both programs, every iteration


def test_section_56_programs(lockstep):
    run_audio_ml()
    assert lockstep() > 0


@pytest.mark.parametrize("kernel, params", [
    ("array_sum", {}), ("audio_ml", {}),
    ("random", {"seed": 4101, "size": 6}),
])
def test_discovery_programs(lockstep, kernel, params):
    """The baseline and every priced candidate program of a search."""
    report = discover(DiscoveryConfig(kernel=kernel, params=params))
    assert report.verified and lockstep() > 0


def _iss_tests():
    """The ISS tests that run programs, less the two on an ISAX jump to its
    own address (the reference keeps the old next-pc rule there)."""
    skip = {"test_isax_jump_to_its_own_address",
            "test_isax_jump_costs_a_redirect",
            # these run no program
            "test_wrong_core_artifact_rejected",
            "test_integration_accepts_shared_register",
            "test_arbitration_plans_shared_write_mux"}
    for module in (test_riscv, test_riscv_m_and_shared):
        for cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if not cls_name.startswith("Test") or "Assembler" in cls_name:
                continue
            for name, method in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("test_") and name not in skip:
                    yield pytest.param(module, cls, name,
                                       id=f"{cls_name}::{name}")


@pytest.mark.parametrize("module, cls, name", list(_iss_tests()))
def test_iss_test_programs(lockstep, monkeypatch, module, cls, name):
    monkeypatch.setattr(module, "RV32ISimulator", _Lockstep)
    getattr(cls(), name)()
    assert lockstep() > 0
