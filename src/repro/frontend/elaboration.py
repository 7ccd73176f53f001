"""Elaboration: imports, inheritance, parameters, encodings, type checking.

This is the frontend's main entry point.  :func:`elaborate` takes CoreDSL
source text, resolves ``import`` statements (builtin ``RV32I.core_desc`` or
user-supplied sources/paths), linearizes ``extends``/``provides``
relationships, evaluates ISA *parameters* in the context of the selected top
definition (paper Section 2.2), resolves all state-element and encoding
widths, and type-checks every function, instruction, and always-block.

The result, :class:`ElaboratedISA`, is the "decorated AST" the paper's
Figure 5(a->b) step consumes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import Dict, List, Optional, Tuple

from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_description
from repro.frontend.stdlib import BUILTIN_SOURCES
from repro.frontend.typecheck import (
    FunctionSig,
    StateInfo,
    TypeChecker,
    const_eval,
)
from repro.frontend.types import IntType, unsigned
from repro.utils.bits import extract_bits, mask, to_unsigned
from repro.utils.diagnostics import CoreDSLError, SourceLocation

#: RISC-V instruction word width targeted by this flow.
INSTRUCTION_WIDTH = 32


# ---------------------------------------------------------------------------
# Encodings
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class FieldPlacement:
    """One slice of an operand field, placed in the instruction word:
    instruction bits [instr_hi:instr_lo] hold field bits [field_hi:field_lo]."""

    instr_hi: int
    instr_lo: int
    field_hi: int
    field_lo: int


@dataclasses.dataclass
class EncodingField:
    name: str
    width: int
    placements: List[FieldPlacement] = dataclasses.field(default_factory=list)

    @property
    def type(self) -> IntType:
        return unsigned(self.width)


class Encoding:
    """Resolved encoding of one instruction: constant mask/match plus operand
    field placements.  Renders as the paper's pattern notation, e.g.
    ``"-----------------000-----0010011"`` for ADDI."""

    def __init__(self, components: List[ast.EncodingComponent]):
        self.components = components
        self.mask = 0
        self.match = 0
        self.fields: Dict[str, EncodingField] = {}
        pos = INSTRUCTION_WIDTH
        for comp in components:
            if isinstance(comp, ast.EncBits):
                width = comp.width
                if width <= 0:
                    raise CoreDSLError("encoding literal must have width > 0", comp.loc)
                pos -= width
                if pos < 0:
                    raise CoreDSLError("encoding exceeds 32 bits", comp.loc)
                self.mask |= mask(width) << pos
                self.match |= to_unsigned(comp.value, width) << pos
            else:
                width = comp.hi - comp.lo + 1
                if width <= 0:
                    raise CoreDSLError(
                        f"invalid field slice {comp.name}[{comp.hi}:{comp.lo}]",
                        comp.loc,
                    )
                pos -= width
                if pos < 0:
                    raise CoreDSLError("encoding exceeds 32 bits", comp.loc)
                field = self.fields.setdefault(comp.name, EncodingField(comp.name, 0))
                field.placements.append(
                    FieldPlacement(pos + width - 1, pos, comp.hi, comp.lo)
                )
                field.width = max(field.width, comp.hi + 1)
        if pos != 0:
            raise CoreDSLError(
                f"encoding is {INSTRUCTION_WIDTH - pos} bits, expected "
                f"{INSTRUCTION_WIDTH}",
                components[0].loc if components else None,
            )

    def encode(self, field_values: Optional[Dict[str, int]] = None) -> int:
        """Assemble an instruction word from operand field values."""
        word = self.match
        field_values = field_values or {}
        for name, field in self.fields.items():
            value = field_values.get(name, 0)
            for pl in field.placements:
                piece = extract_bits(value, pl.field_hi, pl.field_lo)
                word |= piece << pl.instr_lo
        return word

    def decode(self, word: int) -> Dict[str, int]:
        """Extract operand field values from an instruction word."""
        values: Dict[str, int] = {}
        for name, field in self.fields.items():
            value = 0
            for pl in field.placements:
                piece = extract_bits(word, pl.instr_hi, pl.instr_lo)
                value |= piece << pl.field_lo
            values[name] = value
        return values

    def matches(self, word: int) -> bool:
        return (word & self.mask) == self.match

    @property
    def pattern(self) -> str:
        """32-character mask/match pattern, MSB first, '-' for operand bits."""
        chars = []
        for bit in range(INSTRUCTION_WIDTH - 1, -1, -1):
            if self.mask & (1 << bit):
                chars.append("1" if self.match & (1 << bit) else "0")
            else:
                chars.append("-")
        return "".join(chars)

    def overlaps(self, other: "Encoding") -> bool:
        """True if some instruction word matches both encodings."""
        common = self.mask & other.mask
        return (self.match & common) == (other.match & common)

    def __repr__(self) -> str:
        return f"Encoding({self.pattern})"


# ---------------------------------------------------------------------------
# Elaborated artifacts
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ElabInstruction:
    name: str
    encoding: Encoding
    behavior: ast.BlockStmt
    fields: Dict[str, IntType]
    has_spawn: bool = False
    origin: str = ""
    loc: Optional[SourceLocation] = None


@dataclasses.dataclass
class ElabAlways:
    name: str
    body: ast.BlockStmt
    origin: str = ""
    loc: Optional[SourceLocation] = None


class ElaboratedISA:
    """A fully resolved, type-checked ISA (base state + ISAX definitions)."""

    def __init__(self, name: str):
        self.name = name
        self.parameters: Dict[str, int] = {}
        self.state: Dict[str, StateInfo] = {}
        self.functions: Dict[str, FunctionSig] = {}
        self.instructions: Dict[str, ElabInstruction] = {}
        self.always_blocks: Dict[str, ElabAlways] = {}

    # -- convenient accessors for the special architectural state -----------
    @property
    def main_reg(self) -> Optional[StateInfo]:
        return next((s for s in self.state.values() if s.is_main_reg), None)

    @property
    def pc(self) -> Optional[StateInfo]:
        return next((s for s in self.state.values() if s.is_pc), None)

    @property
    def main_mem(self) -> Optional[StateInfo]:
        return next((s for s in self.state.values() if s.is_main_mem), None)

    def custom_state(self) -> List[StateInfo]:
        """State elements introduced by the ISAX (not the base core's)."""
        return [
            s for s in self.state.values()
            if s.kind in ("scalar_reg", "array_reg", "rom")
            and not (s.is_main_reg or s.is_pc or s.is_main_mem)
        ]

    def check_encoding_conflicts(self) -> List[Tuple[str, str]]:
        """Return pairs of instructions whose encodings overlap."""
        conflicts = []
        instrs = list(self.instructions.values())
        for i, a in enumerate(instrs):
            for b in instrs[i + 1:]:
                if a.encoding.overlaps(b.encoding):
                    conflicts.append((a.name, b.name))
        return conflicts

    def __repr__(self) -> str:
        return (
            f"ElaboratedISA({self.name}: {len(self.instructions)} instructions, "
            f"{len(self.always_blocks)} always-blocks, "
            f"{len(self.custom_state())} custom state elements)"
        )


# ---------------------------------------------------------------------------
# Elaborator
# ---------------------------------------------------------------------------

class _Elaborator:
    def __init__(self, extra_sources: Optional[Dict[str, str]] = None,
                 import_dirs: Optional[List[str]] = None):
        self.extra_sources = extra_sources or {}
        self.import_dirs = import_dirs or []
        self.sets: Dict[str, ast.InstructionSetDef] = {}
        self.cores: Dict[str, ast.CoreDef] = {}
        self._loaded: set = set()

    # -- import handling ------------------------------------------------------
    def load(self, text: str, filename: str) -> ast.Description:
        desc = parse_description(text, filename)
        for imp in desc.imports:
            self._load_import(imp)
        for iset in desc.instruction_sets:
            self.sets[iset.name] = iset
        for core in desc.cores:
            self.cores[core.name] = core
        return desc

    def _load_import(self, name: str) -> None:
        if name in self._loaded:
            return
        self._loaded.add(name)
        if name in self.extra_sources:
            self.load(self.extra_sources[name], name)
            return
        if name in BUILTIN_SOURCES:
            self.load(BUILTIN_SOURCES[name], name)
            return
        for directory in self.import_dirs:
            path = os.path.join(directory, name)
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as handle:
                    self.load(handle.read(), path)
                return
        raise CoreDSLError(f"cannot resolve import {name!r}")

    # -- inheritance linearization ---------------------------------------------
    def chain_for_set(self, name: str, seen: Optional[List[str]] = None) -> List[ast.ISABody]:
        seen = seen or []
        if name in seen:
            raise CoreDSLError(f"cyclic 'extends' involving '{name}'")
        iset = self.sets.get(name)
        if iset is None:
            raise CoreDSLError(f"unknown instruction set '{name}'")
        bodies: List[ast.ISABody] = []
        if iset.extends:
            bodies.extend(self.chain_for_set(iset.extends, seen + [name]))
        bodies.append((iset.body, name))  # type: ignore[arg-type]
        return bodies

    def bodies_for_top(self, top: str) -> List[Tuple[ast.ISABody, str]]:
        if top in self.cores:
            core = self.cores[top]
            bodies: List[Tuple[ast.ISABody, str]] = []
            seen_sets: set = set()
            for provided in core.provides:
                for body, origin in self.chain_for_set(provided):
                    if origin not in seen_sets:
                        seen_sets.add(origin)
                        bodies.append((body, origin))
            bodies.append((core.body, top))
            return bodies
        return self.chain_for_set(top)  # type: ignore[return-value]

    # -- main elaboration -----------------------------------------------------------
    def elaborate(self, top: str) -> ElaboratedISA:
        isa = ElaboratedISA(top)
        bodies = self.bodies_for_top(top)

        # Pass 1: parameters, in declaration order; later bodies override.
        for body, _origin in bodies:
            for decl in body.state:
                if decl.storage != "param":
                    continue
                if decl.init is None:
                    if decl.name not in isa.parameters:
                        raise CoreDSLError(
                            f"parameter '{decl.name}' has no value", decl.loc
                        )
                    continue
                value = const_eval(decl.init, isa.parameters)
                if value is None:
                    raise CoreDSLError(
                        f"parameter '{decl.name}' must be a compile-time constant",
                        decl.loc,
                    )
                isa.parameters[decl.name] = value

        # Pass 2: storage declarations.
        for body, _origin in bodies:
            for decl in body.state:
                if decl.storage == "param":
                    continue
                self._elaborate_state(isa, decl)

        # Pass 3: function signatures (so calls can be checked in any order).
        for body, _origin in bodies:
            for fn in body.functions:
                isa.functions[fn.name] = self._signature(isa, fn)

        checker = TypeChecker(isa.parameters, isa.state, isa.functions)
        for sig in isa.functions.values():
            checker.check_function(sig)

        # Pass 4: instructions and always-blocks.
        for body, origin in bodies:
            for instr in body.instructions:
                encoding = Encoding(instr.encoding)
                self._check_field_names(isa, encoding, instr)
                fields = {n: f.type for n, f in encoding.fields.items()}
                has_spawn = checker.check_instruction(instr, fields)
                isa.instructions[instr.name] = ElabInstruction(
                    name=instr.name, encoding=encoding, behavior=instr.behavior,
                    fields=fields, has_spawn=has_spawn, origin=origin,
                    loc=instr.loc,
                )
            for always in body.always_blocks:
                checker.check_always(always)
                isa.always_blocks[always.name] = ElabAlways(
                    name=always.name, body=always.body, origin=origin,
                    loc=always.loc,
                )
        return isa

    def _elaborate_state(self, isa: ElaboratedISA, decl: ast.StateDecl) -> None:
        width = const_eval(decl.width_expr, isa.parameters)
        if width is None or width < 1:
            raise CoreDSLError(
                f"state element '{decl.name}' has non-constant or invalid width",
                decl.loc,
            )
        decl.width = width
        element = IntType(width, decl.is_signed)
        size: Optional[int] = None
        if decl.array_size_expr is not None:
            size = const_eval(decl.array_size_expr, isa.parameters)
            if size is None or size < 1:
                raise CoreDSLError(
                    f"array size of '{decl.name}' must be a positive constant",
                    decl.loc,
                )
            decl.array_size = size

        init_values: Optional[List[int]] = None
        if decl.init_list is not None:
            init_values = []
            for item in decl.init_list:
                value = const_eval(item, isa.parameters)
                if value is None:
                    raise CoreDSLError(
                        f"initializer of '{decl.name}' must be constant", item.loc
                    )
                init_values.append(to_unsigned(value, width))
            if size is None:
                size = len(init_values)
                decl.array_size = size
            elif len(init_values) != size:
                raise CoreDSLError(
                    f"'{decl.name}' has {len(init_values)} initializers for "
                    f"{size} elements",
                    decl.loc,
                )
        elif decl.init is not None:
            value = const_eval(decl.init, isa.parameters)
            if value is None:
                raise CoreDSLError(
                    f"initializer of '{decl.name}' must be constant", decl.loc
                )
            init_values = [to_unsigned(value, width)]

        if decl.storage == "register":
            kind = "array_reg" if size is not None else "scalar_reg"
        elif decl.storage == "extern":
            kind = "mem"
        elif decl.storage == "const":
            kind = "rom"
            if init_values is None:
                raise CoreDSLError(
                    f"constant register '{decl.name}' needs an initializer",
                    decl.loc,
                )
        else:  # pragma: no cover - parser restricts storage classes
            raise CoreDSLError(f"unknown storage class '{decl.storage}'", decl.loc)

        if decl.name in isa.state:
            raise CoreDSLError(f"redefinition of state element '{decl.name}'", decl.loc)
        isa.state[decl.name] = StateInfo(
            decl.name, kind, element, size=size,
            attributes=list(decl.attributes), init_values=init_values,
            loc=decl.loc,
        )

    def _signature(self, isa: ElaboratedISA, fn: ast.FunctionDef) -> FunctionSig:
        params: List[Tuple[str, IntType]] = []
        for param in fn.params:
            width = const_eval(param.width_expr, isa.parameters)
            if width is None or width < 1:
                raise CoreDSLError(
                    f"parameter '{param.name}' of '{fn.name}' has invalid width",
                    param.loc,
                )
            params.append((param.name, IntType(width, param.is_signed)))
        return_type: Optional[IntType] = None
        if fn.return_width_expr is not None:
            width = const_eval(fn.return_width_expr, isa.parameters)
            if width is None or width < 1:
                raise CoreDSLError(
                    f"return type of '{fn.name}' has invalid width", fn.loc
                )
            return_type = IntType(width, fn.return_signed)
        return FunctionSig(fn.name, params, return_type, fn)

    def _check_field_names(self, isa: ElaboratedISA, encoding: Encoding,
                           instr: ast.InstructionDef) -> None:
        for name in encoding.fields:
            if name in isa.state or name in isa.parameters:
                raise CoreDSLError(
                    f"encoding field '{name}' of '{instr.name}' shadows an "
                    "architectural state element or parameter",
                    instr.loc,
                )


#: Memoized elaborations, keyed by content digest.  Elaboration is pure in
#: its inputs (unless ``import_dirs`` brings the filesystem in) and the
#: resulting :class:`ElaboratedISA` is only ever read downstream, so a DSE
#: sweep re-compiling the same ISAX per (core, cycle-time) candidate can
#: share one decorated AST.  Bounded; cleared oldest-first.
_ELABORATION_CACHE: Dict[Tuple[str, ...], "ElaboratedISA"] = {}
_ELABORATION_CACHE_MAX = 256


def _elaborate_uncached(
    source: str,
    top: Optional[str],
    extra_sources: Optional[Dict[str, str]],
    import_dirs: Optional[List[str]],
    filename: str,
) -> ElaboratedISA:
    elaborator = _Elaborator(extra_sources, import_dirs)
    desc = elaborator.load(source, filename)
    if top is None:
        if len(desc.cores) == 1:
            top = desc.cores[0].name
        elif desc.instruction_sets:
            top = desc.instruction_sets[-1].name
        else:
            raise CoreDSLError("description defines no InstructionSet or Core")
    return elaborator.elaborate(top)


def elaborate(
    source: str,
    top: Optional[str] = None,
    extra_sources: Optional[Dict[str, str]] = None,
    import_dirs: Optional[List[str]] = None,
    filename: str = "<input>",
) -> ElaboratedISA:
    """Parse, link and type-check a CoreDSL description.

    ``top`` selects the Core or InstructionSet to elaborate; by default the
    single Core in the file, or the last InstructionSet defined.  Repeated
    calls with identical inputs are served from a digest-keyed memo unless
    ``import_dirs`` makes the result depend on the filesystem.
    """
    if import_dirs:
        return _elaborate_uncached(
            source, top, extra_sources, import_dirs, filename
        )
    fields = [source]
    for name, text in sorted((extra_sources or {}).items()):
        fields += [name, text]
    # Length-prefix each field, so that no two inputs share a key.
    digest = hashlib.sha256()
    for field in fields:
        data = field.encode("utf-8")
        digest.update(b"%d:" % len(data) + data)
    key = (digest.hexdigest(), top or "", filename)
    cached = _ELABORATION_CACHE.get(key)
    if cached is not None:
        return cached
    result = _elaborate_uncached(source, top, extra_sources, None, filename)
    while len(_ELABORATION_CACHE) >= _ELABORATION_CACHE_MAX:
        _ELABORATION_CACHE.pop(next(iter(_ELABORATION_CACHE)))
    _ELABORATION_CACHE[key] = result
    return result
