"""The RV32IM CoreDSL description that the ISS runs and the assembler
encodes (``RV32IM_CORE_DESC``)."""

import pytest

from repro.analysis.lint import run_lints
from repro.frontend import elaborate
from repro.frontend.stdlib import BUILTIN_SOURCES
from repro.isaxes import ALL_ISAXES
from repro.sim.coredsl_interp import ArchState
from repro.sim.riscv.isa import BASE_KINDS, RV32ISimulator, SimError, base_isa
from repro.utils.diagnostics import Severity
from tests.sim.test_iss_differential import _Reference


def test_all_48_instructions_and_not_importable():
    instructions = base_isa().isa.instructions
    assert len(instructions) == 48
    assert set(BASE_KINDS) <= set(instructions)
    assert "RV32IM.core_desc" not in BUILTIN_SOURCES


def test_lints_report_nothing_above_note():
    assert [(d.code, d.message) for d in run_lints(base_isa().isa)
            if d.severity is not Severity.NOTE] == []


def test_no_encodings_overlap():
    assert run_lints(base_isa().isa, enable=["LN010"]) == []


@pytest.mark.parametrize("isax", sorted(ALL_ISAXES))
def test_no_table3_isax_overlaps_a_base_encoding(isax):
    """The ISS tries base encodings first: an overlap would hide the ISAX
    instruction."""
    base = base_isa().isa.instructions.values()
    assert [(instr.name, each.name)
            for instr in elaborate(ALL_ISAXES[isax]).instructions.values()
            for each in base if instr.encoding.overlaps(each.encoding)] == []


def _r(opcode, funct3, funct7, rs2=2):
    return (funct7 << 25) | (rs2 << 20) | (1 << 15) | (funct3 << 12) \
        | (3 << 7) | opcode


#: Words the hand-written decoder ran by ignoring funct7 bits, one per
#: class: each decodes exactly now, so each is illegal.
BECAME_ILLEGAL = {
    # OP: a funct7 other than 0x00, 0x01 and 0x20
    "add/funct7=0x40": _r(0x33, 0, 0x40),
    "and/funct7=0x7f": _r(0x33, 7, 0x7F),
    "srl/funct7=0x21": _r(0x33, 5, 0x21),
    # OP: funct7 0x20 where funct3 is neither ADD/SUB nor SRL/SRA
    **{f"{name}/funct7=0x20": _r(0x33, funct3, 0x20)
       for funct3, name in ((1, "sll"), (2, "slt"), (3, "sltu"), (4, "xor"),
                            (6, "or"), (7, "and"))},
    # OP-IMM: SLLI with a nonzero funct7
    "slli/funct7=0x20": _r(0x13, 1, 0x20),
    "slli/funct7=0x01": _r(0x13, 1, 0x01),
    # OP-IMM: SRLI/SRAI with a funct7 other than 0x00 and 0x20
    "srli/funct7=0x01": _r(0x13, 5, 0x01),
    "srai/funct7=0x60": _r(0x13, 5, 0x60),
}


@pytest.mark.parametrize("word", BECAME_ILLEGAL.values(),
                         ids=BECAME_ILLEGAL.keys())
def test_words_that_became_illegal(word):
    _Reference(state=ArchState()).execute(word, 0x100)
    with pytest.raises(SimError, match=f"illegal instruction {word:#010x} "
                                       "at pc=0x00000100"):
        RV32ISimulator(state=ArchState()).execute(word, 0x100)
