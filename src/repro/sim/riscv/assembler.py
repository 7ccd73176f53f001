"""A small two-pass RV32IM assembler with ISAX support.

Supports the subset needed to write the paper's evaluation programs
(Section 5.3/5.5): labels, ``.word`` data, the ``li``/``mv``/``j``/``nop``
/``ret`` pseudo-instructions, and every instruction of the RV32IM
description (:func:`~repro.sim.riscv.isa.base_isa`) and of the given ISAXes.
An instruction is written with its CoreDSL name and encoded with its
``Encoding``; its operands bind to the encoding fields:

* ``off(reg)`` binds ``imm`` and ``rs1``;
* register operands bind ``rd``, ``rs1`` and ``rs2`` in that order,
  skipping any already bound;
* ``name=value`` binds a named field (labels resolve to their address);
* a remaining plain value binds the one other field; a label there is
  PC-relative for branches and ``jal``.

::

    sw       a0, -4(sp)
    beq      a0, a1, loop
    dotp     x5, x3, x4
    setup_zol uimmS=loop_end, uimmL=7

A base instruction's ``imm`` is signed, with any unencoded low bits zero;
its ``uimm`` and ``shamt`` are unsigned.  An ISAX field takes any value of
its width, signed or unsigned.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.frontend.elaboration import ElabInstruction, ElaboratedISA, EncodingField
from repro.sim.riscv.isa import BASE_KINDS, base_isa
from repro.utils.bits import to_unsigned


class AssemblerError(Exception):
    pass


ABI_NAMES = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7, "s0": 8, "fp": 8, "s1": 9,
    "a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15,
    "a6": 16, "a7": 17, "s2": 18, "s3": 19, "s4": 20, "s5": 21,
    "s6": 22, "s7": 23, "s8": 24, "s9": 25, "s10": 26, "s11": 27,
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
}

#: Every register name: ABI names and x0..x31.
_REGISTER_NAMES = {**ABI_NAMES, **{f"x{i}": i for i in range(32)}}

_REGISTERS = ("rd", "rs1", "rs2")

#: What each unsigned base field is called in range errors.
_UNSIGNED = {"uimm": "upper immediate", "shamt": "shift amount"}

#: The fields every base instruction that has them must be given.
_REQUIRED = frozenset((*_REGISTERS, "imm", *_UNSIGNED))

#: ``off(reg)``
_MEMORY = re.compile(r"(.*)\(([^)]+)\)")


def _fit(mnemonic: str, what: str, value: int, low: int, high: int,
         step: int = 1) -> int:
    """``value``, or an :class:`AssemblerError` if it lies outside
    ``low..high`` (or is not a multiple of ``step``)."""
    if not low <= value <= high or value % step:
        parity = {1: "", 2: "an even value in "}.get(
            step, f"a multiple of {step} in ")
        raise AssemblerError(
            f"'{mnemonic}': {what} {value} is outside {parity}{low}..{high}")
    return value


def _register(token: str) -> Optional[int]:
    """The register ``token`` names, or None."""
    return _REGISTER_NAMES.get(token.strip().lower())


def _reg(token: str) -> int:
    register = _register(token)
    if register is None:
        raise AssemblerError(f"invalid register {token.strip().lower()!r}")
    return register


def _expand(mnemonic: str, ops: List[str]) -> Tuple[str, List[str]]:
    """The instruction and operands a pseudo-instruction stands for."""
    if mnemonic == "nop":
        return "addi", ["x0", "x0", "0"]
    if mnemonic == "ret":
        return "jalr", ["x0", "0(ra)"]
    if mnemonic == "mv":
        return "addi", [*ops, "0"]
    if mnemonic == "j":
        return "jal", ["x0", *ops]
    if mnemonic == "jal" and len(ops) == 1:
        return "jal", ["ra", *ops]
    return mnemonic, ops


class Assembler:
    def __init__(self, isaxes: Optional[List[ElaboratedISA]] = None,
                 base: int = 0):
        self.base = base
        self.base_instructions = base_isa().isa.instructions
        self.isax_instructions: Dict[str, ElabInstruction] = {}
        for isa in (isaxes or []):
            for name, instr in isa.instructions.items():
                self.isax_instructions[name.lower()] = instr

    # ------------------------------------------------------------- helpers
    def _imm(self, token: str, labels: Dict[str, int], pc: int,
             relative: bool = False) -> int:
        token = token.strip()
        if token in labels:
            return labels[token] - pc if relative else labels[token]
        try:
            return int(token, 0)
        except ValueError:
            raise AssemblerError(f"invalid immediate or label {token!r}")

    def _parse_lines(self, text: str) -> List[Tuple[str, List[str]]]:
        items: List[Tuple[str, List[str]]] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].split("//", 1)[0].strip()
            if not line:
                continue
            while ":" in line.split()[0] if line else False:
                label, _colon, rest = line.partition(":")
                items.append(("label", [label.strip()]))
                line = rest.strip()
                if not line:
                    break
            if line:
                parts = line.split(None, 1)
                mnemonic = parts[0].lower()
                operands = (
                    [p.strip() for p in parts[1].split(",")]
                    if len(parts) > 1 else []
                )
                items.append((mnemonic, operands))
        return items

    def _size_of(self, mnemonic: str, operands: List[str]) -> int:
        if mnemonic == "li":
            try:
                value = int(operands[1], 0)
            except ValueError:
                return 8  # label: use the full lui+addi form
            if -2048 <= value < 2048:
                return 4
            return 8
        return 4

    # --------------------------------------------------------------- passes
    def assemble(self, text: str) -> Tuple[List[int], Dict[str, int]]:
        items = self._parse_lines(text)
        labels: Dict[str, int] = {}
        pc = self.base
        for mnemonic, operands in items:
            if mnemonic == "label":
                if operands[0] in labels:
                    raise AssemblerError(f"duplicate label {operands[0]!r}")
                labels[operands[0]] = pc
            else:
                pc += self._size_of(mnemonic, operands)
        words: List[int] = []
        pc = self.base
        for mnemonic, operands in items:
            if mnemonic == "label":
                continue
            encoded = self._encode(mnemonic, operands, labels, pc)
            words.extend(encoded)
            pc += 4 * len(encoded)
        return words, labels

    # -------------------------------------------------------------- encode
    def _encode(self, mnemonic: str, ops: List[str],
                labels: Dict[str, int], pc: int) -> List[int]:
        if mnemonic in (".word", "li"):
            # A value a 32-bit register can hold, read signed or unsigned.
            value = _fit(mnemonic, "value" if mnemonic == ".word" else "immediate",
                         self._imm(ops[-1], labels, pc), -(1 << 31), (1 << 32) - 1)
            if mnemonic == ".word":
                return [to_unsigned(value, 32)]
            rd = ops[0]
            if ops[1].strip() not in labels and -2048 <= value < 2048:
                return [self._bind(mnemonic, "addi", [rd, "x0", str(value)],
                                   labels, pc)]
            upper = (value + 0x800) >> 12
            return [self._bind(mnemonic, "lui", [rd, str(to_unsigned(upper, 20))],
                               labels, pc),
                    self._bind(mnemonic, "addi", [rd, rd, str(value - (upper << 12))],
                               labels, pc)]
        name, ops = _expand(mnemonic, ops)
        return [self._bind(mnemonic, name, ops, labels, pc)]

    def _bind(self, mnemonic: str, name: str, ops: List[str],
              labels: Dict[str, int], pc: int) -> int:
        """The word of instruction ``name`` with ``ops`` bound to its fields;
        errors name the ``mnemonic`` as written."""
        instr = self.base_instructions.get(name)
        is_base = instr is not None
        if instr is None:
            instr = self.isax_instructions.get(name)
            if instr is None:
                raise AssemblerError(f"unknown mnemonic {mnemonic!r}")
        fields = instr.encoding.fields
        values: Dict[str, int] = {}
        offsets = set()       # fields whose value is an offset
        plain = []
        for op in ops:
            memory = _MEMORY.fullmatch(op.strip()) if "(" in op else None
            if "=" in op:
                field, _eq, text = (part.strip() for part in op.partition("="))
                if field not in fields:
                    raise AssemblerError(
                        f"'{mnemonic}' has no encoding field '{field}'")
                register = _register(text) if field in _REGISTERS else None
                values[field] = (register if register is not None
                                 else self._imm(text, labels, pc))
            elif memory and "imm" in fields and "rs1" in fields:
                values["imm"] = self._imm(memory.group(1).strip() or "0",
                                          labels, pc)
                values["rs1"] = _reg(memory.group(2))
                offsets.add("imm")
            else:
                plain.append(op)
        registers = [field for field in _REGISTERS
                     if field in fields and field not in values]
        others = [field for field in fields
                  if field not in values and field not in _REGISTERS]
        for op in plain:
            register = _register(op)
            if register is not None:
                if not registers:
                    raise AssemblerError(
                        f"too many register operands for '{mnemonic}'")
                values[registers.pop(0)] = register
                continue
            if not others:
                raise AssemblerError(f"invalid register {op.strip().lower()!r}")
            if len(others) > 1:
                raise AssemblerError(
                    f"'{mnemonic}': give {op!r} as name=value, for one of "
                    f"{', '.join(others)}")
            field = others.pop()
            relative = is_base and (BASE_KINDS.get(name) == "branch"
                                    or name == "jal")
            values[field] = self._imm(op, labels, pc, relative)
            if relative:
                offsets.add(field)
        if is_base:
            missing = [field for field in fields
                       if field not in values and field in _REQUIRED]
            if missing:
                raise AssemblerError(
                    f"'{mnemonic}': missing operand {', '.join(missing)}")
        return instr.encoding.encode({
            field: self._field(mnemonic, field, value, fields[field],
                               is_base, field in offsets)
            for field, value in values.items()})

    @staticmethod
    def _field(mnemonic: str, name: str, value: int, field: EncodingField,
               is_base: bool, offset: bool) -> int:
        """``value`` as the bits of ``field``, if it fits the field's rule."""
        width = field.width
        if is_base and name == "imm":
            step = 1 << min(placement.field_lo for placement in field.placements)
            _fit(mnemonic, "offset" if offset else "immediate", value,
                 -(1 << (width - 1)), (1 << (width - 1)) - step, step)
        elif is_base and name in _UNSIGNED:
            _fit(mnemonic, _UNSIGNED[name], value, 0, (1 << width) - 1)
        else:
            _fit(mnemonic, f"field {name}", value, -(1 << (width - 1)),
                 (1 << width) - 1)
        return value & ((1 << width) - 1)


def assemble(text: str, isaxes: Optional[List[ElaboratedISA]] = None,
             base: int = 0) -> List[int]:
    """Assemble a program; returns the list of 32-bit instruction words."""
    words, _labels = Assembler(isaxes, base).assemble(text)
    return words
