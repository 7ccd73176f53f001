"""A small two-pass RV32I assembler with ISAX support.

Supports the subset needed to write the paper's evaluation programs
(Section 5.3/5.5): the RV32I base instructions, labels, ``li``/``mv``/``j``
/``nop``/``ret`` pseudo-instructions, ``.word`` data, and custom ISAX
instructions.  An ISAX instruction is written with its CoreDSL name; operand
registers bind to the ``rd``/``rs1``/``rs2`` encoding fields in that order,
and any other encoding field is given as ``name=value`` (labels are allowed
as values and resolve to their address):

    dotp     x5, x3, x4
    setup_ai x3
    setup_zol uimmS=loop_end, uimmL=7
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.frontend.elaboration import ElaboratedISA
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

_R_TYPE = {
    "add": (0, 0x00), "sub": (0, 0x20), "sll": (1, 0x00), "slt": (2, 0x00),
    "sltu": (3, 0x00), "xor": (4, 0x00), "srl": (5, 0x00), "sra": (5, 0x20),
    "or": (6, 0x00), "and": (7, 0x00),
    # RV32M
    "mul": (0, 0x01), "mulh": (1, 0x01), "mulhsu": (2, 0x01),
    "mulhu": (3, 0x01), "div": (4, 0x01), "divu": (5, 0x01),
    "rem": (6, 0x01), "remu": (7, 0x01),
}
_I_TYPE = {
    "addi": 0, "slti": 2, "sltiu": 3, "xori": 4, "ori": 6, "andi": 7,
}
_SHIFT_TYPE = {"slli": (1, 0x00), "srli": (5, 0x00), "srai": (5, 0x20)}
_LOAD_TYPE = {"lb": 0, "lh": 1, "lw": 2, "lbu": 4, "lhu": 5}
_STORE_TYPE = {"sb": 0, "sh": 1, "sw": 2}
_BRANCH_TYPE = {"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}


def _fit(mnemonic: str, what: str, value: int, low: int, high: int,
         even: bool = False) -> int:
    """``value``, or an :class:`AssemblerError` if it lies outside
    ``low..high`` (or is odd where an even value is required)."""
    if not low <= value <= high or (even and value % 2):
        parity = "an even value in " if even else ""
        raise AssemblerError(
            f"'{mnemonic}': {what} {value} is outside {parity}{low}..{high}")
    return value


def _reg(token: str) -> int:
    token = token.strip().lower()
    if token in ABI_NAMES:
        return ABI_NAMES[token]
    if re.fullmatch(r"x([0-9]|[12][0-9]|3[01])", token):
        return int(token[1:])
    raise AssemblerError(f"invalid register {token!r}")


class Assembler:
    def __init__(self, isaxes: Optional[List[ElaboratedISA]] = None,
                 base: int = 0):
        self.base = base
        self.isax_instructions = {}
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
        if mnemonic == ".word":
            return [to_unsigned(self._imm(ops[0], labels, pc), 32)]
        if mnemonic == "nop":
            return [0x00000013]
        if mnemonic == "ecall":
            return [0x00000073]
        if mnemonic == "ebreak":
            return [0x00100073]
        if mnemonic == "ret":
            return [self._i_type(0x67, 0, 0, 1, 0)]
        if mnemonic == "mv":
            return [self._i_type(0x13, _reg(ops[0]), 0, _reg(ops[1]), 0)]
        if mnemonic == "li":
            rd = _reg(ops[0])
            value = self._imm(ops[1], labels, pc)
            is_label = ops[1].strip() in labels
            if not is_label and -2048 <= value < 2048:
                return [self._i_type(0x13, rd, 0, 0, value)]
            upper = (value + 0x800) >> 12
            lower = value - (upper << 12)
            return [
                (to_unsigned(upper, 20) << 12) | (rd << 7) | 0x37,
                self._i_type(0x13, rd, 0, rd, lower),
            ]
        if mnemonic in ("lui", "auipc"):
            rd = _reg(ops[0])
            upper = _fit(mnemonic, "upper immediate",
                         self._imm(ops[1], labels, pc), 0, 0xFFFFF)
            return [(upper << 12) | (rd << 7)
                    | (0x37 if mnemonic == "lui" else 0x17)]
        if mnemonic in ("j", "jal"):
            rd = 0 if mnemonic == "j" else 1
            if mnemonic == "jal" and len(ops) > 1:
                rd, ops = _reg(ops[0]), ops[1:]
            offset = _fit(mnemonic, "offset",
                          self._imm(ops[0], labels, pc, True),
                          -(1 << 20), (1 << 20) - 2, even=True)
            return [self._jal(rd, offset)]
        if mnemonic == "jalr":
            rd = _reg(ops[0])
            base, offset = self._mem_operand(mnemonic, ops[1], labels, pc)
            return [self._i_type(0x67, rd, 0, base, offset)]
        if mnemonic in _R_TYPE:
            funct3, funct7 = _R_TYPE[mnemonic]
            rd, rs1, rs2 = _reg(ops[0]), _reg(ops[1]), _reg(ops[2])
            return [(funct7 << 25) | (rs2 << 20) | (rs1 << 15)
                    | (funct3 << 12) | (rd << 7) | 0x33]
        if mnemonic in _I_TYPE:
            rd, rs1 = _reg(ops[0]), _reg(ops[1])
            imm = _fit(mnemonic, "immediate", self._imm(ops[2], labels, pc),
                       -2048, 2047)
            return [self._i_type(0x13, rd, _I_TYPE[mnemonic], rs1, imm)]
        if mnemonic in _SHIFT_TYPE:
            funct3, funct7 = _SHIFT_TYPE[mnemonic]
            rd, rs1 = _reg(ops[0]), _reg(ops[1])
            shamt = _fit(mnemonic, "shift amount",
                         self._imm(ops[2], labels, pc), 0, 31)
            return [(funct7 << 25) | (shamt << 20) | (rs1 << 15)
                    | (funct3 << 12) | (rd << 7) | 0x13]
        if mnemonic in _LOAD_TYPE:
            rd = _reg(ops[0])
            base, offset = self._mem_operand(mnemonic, ops[1], labels, pc)
            return [self._i_type(0x03, rd, _LOAD_TYPE[mnemonic], base, offset)]
        if mnemonic in _STORE_TYPE:
            rs2 = _reg(ops[0])
            base, offset = self._mem_operand(mnemonic, ops[1], labels, pc)
            imm = to_unsigned(offset, 12)
            return [((imm >> 5) << 25) | (rs2 << 20) | (base << 15)
                    | (_STORE_TYPE[mnemonic] << 12) | ((imm & 0x1F) << 7)
                    | 0x23]
        if mnemonic in _BRANCH_TYPE:
            rs1, rs2 = _reg(ops[0]), _reg(ops[1])
            offset = _fit(mnemonic, "offset",
                          self._imm(ops[2], labels, pc, relative=True),
                          -4096, 4094, even=True)
            imm = to_unsigned(offset, 13)
            return [
                (((imm >> 12) & 1) << 31) | (((imm >> 5) & 0x3F) << 25)
                | (rs2 << 20) | (rs1 << 15) | (_BRANCH_TYPE[mnemonic] << 12)
                | (((imm >> 1) & 0xF) << 8) | (((imm >> 11) & 1) << 7) | 0x63
            ]
        if mnemonic in self.isax_instructions:
            return [self._encode_isax(mnemonic, ops, labels, pc)]
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}")

    def _encode_isax(self, mnemonic: str, ops: List[str],
                     labels: Dict[str, int], pc: int) -> int:
        instr = self.isax_instructions[mnemonic]
        field_values: Dict[str, int] = {}
        positional = [f for f in ("rd", "rs1", "rs2")
                      if f in instr.encoding.fields]
        cursor = 0
        for op in ops:
            if "=" in op:
                name, _eq, value = op.partition("=")
                name = name.strip()
                if name not in instr.encoding.fields:
                    raise AssemblerError(
                        f"'{mnemonic}' has no encoding field '{name}'"
                    )
                if name in ("rd", "rs1", "rs2"):
                    try:
                        field_values[name] = _reg(value)
                        continue
                    except AssemblerError:
                        pass
                field_values[name] = self._imm(value, labels, pc)
            else:
                if cursor >= len(positional):
                    raise AssemblerError(
                        f"too many register operands for '{mnemonic}'"
                    )
                field_values[positional[cursor]] = _reg(op)
                cursor += 1
        for name, value in list(field_values.items()):
            width = instr.encoding.fields[name].width
            # A field takes any value of its width, signed or unsigned.
            _fit(mnemonic, f"field {name}", value, -(1 << (width - 1)),
                 (1 << width) - 1)
            field_values[name] = to_unsigned(value, width)
        return instr.encoding.encode(field_values)

    # ------------------------------------------------------------ low-level
    @staticmethod
    def _i_type(opcode: int, rd: int, funct3: int, rs1: int, imm: int) -> int:
        return ((to_unsigned(imm, 12) << 20) | (rs1 << 15) | (funct3 << 12)
                | (rd << 7) | opcode)

    @staticmethod
    def _jal(rd: int, offset: int) -> int:
        imm = to_unsigned(offset, 21)
        return (
            (((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21)
            | (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12)
            | (rd << 7) | 0x6F
        )

    def _mem_operand(self, mnemonic: str, token: str, labels: Dict[str, int],
                     pc: int) -> Tuple[int, int]:
        match = re.fullmatch(r"(.*)\(([^)]+)\)", token.strip())
        if not match:
            raise AssemblerError(f"expected offset(reg), got {token!r}")
        offset_text = match.group(1).strip() or "0"
        offset = _fit(mnemonic, "offset", self._imm(offset_text, labels, pc),
                      -2048, 2047)
        return _reg(match.group(2)), offset


def assemble(text: str, isaxes: Optional[List[ElaboratedISA]] = None,
             base: int = 0) -> List[int]:
    """Assemble a program; returns the list of 32-bit instruction words."""
    words, _labels = Assembler(isaxes, base).assemble(text)
    return words
