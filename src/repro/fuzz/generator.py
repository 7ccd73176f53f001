"""Seeded generator of well-typed CoreDSL programs.

The generator performs a grammar walk that mirrors the type rules of
:mod:`repro.frontend.types` while it builds source text, so every emitted
program parses and type-checks *by construction*:

* expression nodes carry their :class:`~repro.frontend.types.IntType` and
  combine through the same result-type functions the checker uses
  (``add_result``, ``concat_result``, ...),
* every assignment either declares a variable with the expression's exact
  type or narrows through an explicit cast,
* state accesses respect the SCAIE-V one-use-per-sub-interface rule (at
  most one main-memory access, one read/write per custom register, reads
  of ``X`` only through ``rs1``/``rs2``, writes only through ``rd``),
* shift amounts are either compile-time constants or cast to a small
  unsigned type so result widths stay bounded,
* ``for`` bounds are compile-time constants and range subscripts use
  either constant bounds or the same-variable affine form ``x[i+K:i]``.

Division and modulo are deliberately excluded: the golden model
rejects division by zero while hardware returns a value, so they are not
differential-testable with random operands.
"""

from __future__ import annotations

import dataclasses
from random import Random
from typing import FrozenSet, List, Optional, Tuple

from repro.frontend import types as ty
from repro.frontend.types import IntType

#: Widest intermediate the generator lets an expression grow to before it
#: inserts a narrowing cast (well below ``ty.MAX_SYNTH_WIDTH``).
_WIDTH_CAP = 96

_COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")
_COMPOUND_OPS = ("+=", "-=", "&=", "|=", "^=")


class _Env:
    """Readable values in scope; ``mutable`` excludes read-only names
    (encoding fields), which may appear in expressions but never as
    assignment targets."""

    def __init__(self):
        self.values: List[Tuple[str, IntType]] = []
        self.mutable: List[Tuple[str, IntType]] = []

    def add(self, name: str, t: IntType, mutable: bool = True) -> None:
        self.values.append((name, t))
        if mutable:
            self.mutable.append((name, t))


@dataclasses.dataclass(frozen=True)
class FuzzBudget:
    """Size/feature budget for one generated program."""

    instructions: int = 2       # max instructions per program
    statements: int = 5         # max body statements per behavior
    depth: int = 3              # max expression nesting depth
    functions: int = 1          # max helper functions
    registers: int = 2          # max custom scalar registers
    allow_memory: bool = True
    allow_spawn: bool = True
    allow_always: bool = True
    allow_rom: bool = True

    @classmethod
    def scaled(cls, statements: int) -> "FuzzBudget":
        """Budget from a single knob (the CLI's ``--budget N``)."""
        return cls(
            instructions=max(1, min(4, statements // 3 + 1)),
            statements=max(1, statements),
            depth=3 if statements < 12 else 4,
        )


@dataclasses.dataclass(frozen=True)
class FuzzProgram:
    """One generated program plus its provenance."""

    seed: int
    source: str
    name: str                      # InstructionSet name
    features: FrozenSet[str]       # language features exercised


class _Gen:
    """One seeded generation run (never reused across programs)."""

    def __init__(self, seed: int, budget: FuzzBudget):
        self.rng = Random(seed)
        self.seed = seed
        self.budget = budget
        self.features: set = set()
        self.fresh = 0
        # (name, return type, [param types]) of generated helper functions.
        self.functions: List[Tuple[str, IntType, List[IntType]]] = []
        # (name, element type) of custom scalar registers.
        self.registers: List[Tuple[str, IntType]] = []
        self.rom: Optional[Tuple[str, int, int]] = None   # name, width, size
        self.array_reg: Optional[Tuple[str, int]] = None  # name, size

    # ------------------------------------------------------------- helpers
    def var(self, prefix: str = "v") -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    @staticmethod
    def fmt_type(t: IntType) -> str:
        return f"{'signed' if t.is_signed else 'unsigned'}<{t.width}>"

    def cast(self, text: str, target: IntType) -> Tuple[str, IntType]:
        return f"({self.fmt_type(target)}) ({text})", target

    def capped(self, text: str, t: IntType) -> Tuple[str, IntType]:
        if t.width > _WIDTH_CAP:
            return self.cast(text, ty.unsigned(32))
        return text, t

    # --------------------------------------------------------- expressions
    def literal(self) -> Tuple[str, IntType]:
        if self.rng.random() < 0.4:
            width = self.rng.randint(1, 8)
            value = self.rng.randrange(1 << width)
            return f"{width}'d{value}", ty.unsigned(width)
        value = self.rng.randrange(256)
        return str(value), ty.literal_type(value)

    def leaf(self, env: List[Tuple[str, IntType]]) -> Tuple[str, IntType]:
        if env and self.rng.random() < 0.7:
            return self.rng.choice(env)
        return self.literal()

    def expr(self, depth: int,
             env: List[Tuple[str, IntType]]) -> Tuple[str, IntType]:
        if depth <= 0:
            return self.leaf(env)
        kind = self.rng.choice(
            ("arith", "arith", "bitwise", "shift", "concat", "cond",
             "cast", "unary", "subscript", "call", "leaf")
        )
        if kind == "arith":
            op = self.rng.choice(("+", "-", "*"))
            lt, ltype = self.expr(depth - 1, env)
            rt, rtype = self.expr(depth - 1, env)
            result = {"+": ty.add_result, "-": ty.sub_result,
                      "*": ty.mul_result}[op](ltype, rtype)
            return self.capped(f"({lt} {op} {rt})", result)
        if kind == "bitwise":
            op = self.rng.choice(("&", "|", "^"))
            lt, ltype = self.expr(depth - 1, env)
            rt, rtype = self.expr(depth - 1, env)
            return self.capped(f"({lt} {op} {rt})",
                               ty.bitwise_result(ltype, rtype))
        if kind == "shift":
            return self.shift(depth, env)
        if kind == "concat":
            lt, ltype = self.expr(depth - 1, env)
            rt, rtype = self.expr(depth - 1, env)
            self.features.add("concat")
            if ltype.is_signed or rtype.is_signed:
                self.features.add("signed_concat")
            return self.capped(f"({lt} :: {rt})",
                               ty.concat_result(ltype, rtype))
        if kind == "cond":
            cond, _ = self.compare(depth - 1, env)
            tt, ttype = self.expr(depth - 1, env)
            ft, ftype = self.expr(depth - 1, env)
            self.features.add("cond_expr")
            return self.capped(f"({cond} ? {tt} : {ft})",
                               ty.common_supertype(ttype, ftype))
        if kind == "cast":
            text, _ = self.expr(depth - 1, env)
            width = self.rng.choice((1, 4, 8, 16, 32))
            target = IntType(width, self.rng.random() < 0.4)
            return self.cast(text, target)
        if kind == "unary":
            text, t = self.expr(depth - 1, env)
            if self.rng.random() < 0.5:
                return self.capped(f"(- {text})", ty.neg_result(t))
            return f"(~ {text})", ty.not_result(t)
        if kind == "subscript":
            node = self.subscript(env)
            if node is not None:
                return node
            return self.leaf(env)
        if kind == "call":
            node = self.call(depth, env)
            if node is not None:
                return node
            return self.leaf(env)
        return self.leaf(env)

    def shift(self, depth: int,
              env: List[Tuple[str, IntType]]) -> Tuple[str, IntType]:
        lt, ltype = self.expr(depth - 1, env)
        op = self.rng.choice(("<<", ">>"))
        if self.rng.random() < 0.6:
            amount = self.rng.randint(0, 4)
            if op == "<<":
                result = ty.shl_result(ltype, ty.literal_type(amount),
                                       shift_const=amount)
            else:
                result = ty.shr_result(ltype, ty.literal_type(amount))
            return self.capped(f"({lt} {op} {amount})", result)
        # Dynamic shift amount, cast small so the result width stays bounded.
        raw, _ = self.expr(depth - 1, env)
        rt, rtype = self.cast(raw, ty.unsigned(3))
        self.features.add("dyn_shift")
        if op == "<<":
            result = ty.shl_result(ltype, rtype)
        else:
            result = ty.shr_result(ltype, rtype)
        return self.capped(f"({lt} {op} {rt})", result)

    def compare(self, depth: int,
                env: List[Tuple[str, IntType]]) -> Tuple[str, IntType]:
        lt, _ = self.expr(depth, env)
        rt, _ = self.expr(depth, env)
        text = f"({lt} {self.rng.choice(_COMPARE_OPS)} {rt})"
        if self.rng.random() < 0.2:
            other, _ = self.compare(0, env)
            text = f"({text} {self.rng.choice(('&&', '||'))} {other})"
        return text, ty.BOOL

    def subscript(self,
                  env: List[Tuple[str, IntType]]) -> Optional[Tuple[str, IntType]]:
        candidates = [(n, t) for n, t in env if t.width >= 2]
        if not candidates:
            return None
        name, t = self.rng.choice(candidates)
        mode = self.rng.choice(("bit", "range", "range", "full", "single"))
        if mode == "bit":
            self.features.add("bit_subscript")
            return f"({name}[{self.rng.randrange(t.width)}])", ty.BOOL
        self.features.add("range_subscript")
        if mode == "full":
            hi, lo = t.width - 1, 0
        elif mode == "single":
            hi = lo = self.rng.randrange(t.width)
        else:
            lo = self.rng.randrange(t.width)
            hi = self.rng.randint(lo, t.width - 1)
        return f"({name}[{hi}:{lo}])", ty.slice_result(hi, lo)

    def call(self, depth: int,
             env: List[Tuple[str, IntType]]) -> Optional[Tuple[str, IntType]]:
        if not self.functions:
            return None
        name, ret, params = self.rng.choice(self.functions)
        args = []
        # Functions are inlined by the frontend; a call nested inside the
        # arguments of another call to the same function trips the inliner's
        # recursion guard, so argument expressions never contain calls.
        saved, self.functions = self.functions, []
        try:
            for param in params:
                raw, _ = self.expr(depth - 1, env)
                args.append(self.cast(raw, param)[0])
        finally:
            self.functions = saved
        self.features.add("function")
        return f"{name}({', '.join(args)})", ret

    # ---------------------------------------------------------- statements
    def stmt(self, env: _Env, indent: str) -> List[str]:
        """One statement; may extend ``env`` with a new local."""
        kind = self.rng.choice(
            ("decl", "decl", "assign", "compound", "if", "for")
        )
        if kind == "decl" or not env.mutable:
            text, t = self.expr(self.budget.depth, env.values)
            name = self.var()
            env.add(name, t)
            return [f"{indent}{self.fmt_type(t)} {name} = {text};"]
        if kind == "assign":
            name, t = self.rng.choice(env.mutable)
            text, _ = self.cast(
                self.expr(self.budget.depth, env.values)[0], t)
            return [f"{indent}{name} = {text};"]
        if kind == "compound":
            name, _ = self.rng.choice(env.mutable)
            op = self.rng.choice(_COMPOUND_OPS)
            text, _ = self.expr(self.budget.depth - 1, env.values)
            return [f"{indent}{name} {op} {text};"]
        if kind == "if":
            return self.if_stmt(env, indent)
        return self.for_stmt(env, indent)

    def mutate_stmt(self, env: _Env, indent: str) -> str:
        """An assignment/compound to an existing local (no declarations);
        used inside branch and loop bodies to keep scoping trivial."""
        name, t = self.rng.choice(env.mutable)
        if self.rng.random() < 0.5:
            text, _ = self.cast(
                self.expr(self.budget.depth - 1, env.values)[0], t)
            return f"{indent}{name} = {text};"
        op = self.rng.choice(_COMPOUND_OPS)
        text, _ = self.expr(self.budget.depth - 1, env.values)
        return f"{indent}{name} {op} {text};"

    def if_stmt(self, env: _Env, indent: str) -> List[str]:
        cond, _ = self.compare(self.budget.depth - 1, env.values)
        lines = [f"{indent}if {cond} {{",
                 self.mutate_stmt(env, indent + "  ")]
        if self.rng.random() < 0.5:
            lines += [f"{indent}}} else {{",
                      self.mutate_stmt(env, indent + "  ")]
        lines.append(f"{indent}}}")
        return lines

    def for_stmt(self, env: _Env, indent: str) -> List[str]:
        self.features.add("for_loop")
        ivar = self.var("i")
        trips = self.rng.randint(2, 4)
        acc_name, _ = self.rng.choice(env.mutable)
        # Accumulate a same-variable affine slice ``x[i+K:i]`` when a wide
        # enough operand exists (paper Section 2.4's dotprod idiom).
        wide = [(n, t) for n, t in env.values if t.width >= trips + 4]
        if wide and self.rng.random() < 0.7:
            src, src_t = self.rng.choice(wide)
            span = self.rng.randint(1, min(4, src_t.width - trips))
            term = f"({src}[{ivar}+{span - 1}:{ivar}])"
        else:
            term, _ = self.expr(1, env.values)
        op = self.rng.choice(("+=", "^=", "|="))
        return [
            f"{indent}for (int {ivar} = 0; {ivar} < {trips}; "
            f"{ivar} += 1) {{",
            f"{indent}  {acc_name} {op} {term};",
            f"{indent}}}",
        ]

    # ----------------------------------------------------- top-level parts
    def gen_state(self) -> List[str]:
        lines: List[str] = []
        want = self.rng.randint(0, self.budget.registers)
        if self.budget.allow_always and self.rng.random() < 0.5:
            want = max(want, 1)
        for index in range(want):
            # The first register is 32 bits wide so always-blocks can
            # compare it against the PC (the zol idiom).
            width = 32 if index == 0 else self.rng.choice((5, 8, 12, 16, 32))
            name = f"FR{index}"
            self.registers.append((name, ty.unsigned(width)))
            lines.append(f"    register unsigned<{width}> {name};")
            self.features.add("custom_reg")
        if self.budget.allow_rom and self.rng.random() < 0.3:
            values = ", ".join(
                f"0x{self.rng.randrange(256):02x}" for _ in range(16)
            )
            self.rom = ("FTAB", 8, 16)
            lines.append(
                f"    const unsigned<8> FTAB[16] = {{ {values} }};")
            self.features.add("rom")
        if self.rng.random() < 0.2:
            self.array_reg = ("FARR", 4)
            lines.append("    register unsigned<32> FARR[4];")
            self.features.add("custom_array")
        return lines

    def gen_function(self, index: int) -> List[str]:
        name = f"fzf{index}"
        params = [IntType(self.rng.choice((8, 16, 32)),
                          self.rng.random() < 0.3)
                  for _ in range(self.rng.randint(1, 2))]
        ret = ty.unsigned(self.rng.choice((16, 32)))
        env = [(f"p{k}", t) for k, t in enumerate(params)]
        sig = ", ".join(f"{self.fmt_type(t)} {n}" for n, t in env)
        lines = [f"    {self.fmt_type(ret)} {name}({sig}) {{"]
        for _ in range(self.rng.randint(0, 2)):
            text, t = self.expr(self.budget.depth - 1, env)
            local = self.var()
            env.append((local, t))
            lines.append(f"      {self.fmt_type(t)} {local} = {text};")
        body, _ = self.expr(self.budget.depth, env)
        lines.append(f"      return {self.cast(body, ret)[0]};")
        lines.append("    }")
        self.functions.append((name, ret, params))
        return lines

    def gen_instruction(self, index: int) -> List[str]:
        name = f"fz{self.seed}_{index}"
        itype = self.rng.random() < 0.4          # I-type (immediate) layout
        spawn = self.budget.allow_spawn and self.rng.random() < 0.25
        f7 = self.rng.randrange(128)
        if itype:
            encoding = (f"uimm[11:0] :: rs1[4:0] :: 3'd{index} :: "
                        "rd[4:0] :: 7'b0001011")
            self.features.add("imm_field")
        else:
            encoding = (f"7'd{f7} :: rs2[4:0] :: rs1[4:0] :: 3'd{index} :: "
                        "rd[4:0] :: 7'b0001011")
        lines = [f"    {name} {{",
                 f"      encoding: {encoding};",
                 "      behavior: {"]
        ind = "        "
        env = _Env()

        # Prologue: one read per interface, results bound to locals.
        env.add("va", ty.unsigned(32))
        lines.append(f"{ind}unsigned<32> va = X[rs1];")
        if not itype and self.rng.random() < 0.8:
            env.add("vb", ty.unsigned(32))
            lines.append(f"{ind}unsigned<32> vb = X[rs2];")
        if itype:
            env.add("uimm", ty.unsigned(12), mutable=False)
        env.add("rd", ty.unsigned(5), mutable=False)
        mem_read = mem_write = False
        if not spawn:
            for reg_name, reg_type in self.registers:
                if self.rng.random() < 0.5:
                    local = self.var("vr")
                    env.add(local, reg_type)
                    lines.append(
                        f"{ind}{self.fmt_type(reg_type)} {local} "
                        f"= {reg_name};")
            if self.rom is not None and self.rng.random() < 0.7:
                rom_name, rom_width, rom_size = self.rom
                bits = rom_size.bit_length() - 1
                local = self.var("vt")
                env.add(local, ty.unsigned(rom_width))
                lines.append(
                    f"{ind}unsigned<{rom_width}> {local} = "
                    f"{rom_name}[(va[{bits - 1}:0])];")
            if self.array_reg is not None and self.rng.random() < 0.6:
                local = self.var("vA")
                env.add(local, ty.unsigned(32))
                lines.append(
                    f"{ind}unsigned<32> {local} = "
                    f"{self.array_reg[0]}[(rs1[1:0])];")
            if self.budget.allow_memory and self.rng.random() < 0.35:
                mem_read = True
                self.features.add("mem_read")
                span, width = self.rng.choice(((3, 32), (1, 16), (0, 8)))
                local = self.var("vm")
                env.add(local, ty.unsigned(width))
                source = (f"MEM[va+{span}:va]" if span else "MEM[va]")
                lines.append(
                    f"{ind}unsigned<{width}> {local} = {source};")

        if spawn:
            self.features.add("spawn")
            lines.append(f"{ind}spawn {{")
            ind += "  "

        for _ in range(self.rng.randint(1, self.budget.statements)):
            lines.extend(self.stmt(env, ind))

        # Epilogue: at most one write per interface; X[rd] is always last.
        rd_extra = ""
        if not spawn:
            if self.registers and self.rng.random() < 0.5:
                reg_name, reg_type = self.rng.choice(self.registers)
                text, _ = self.cast(
                    self.expr(self.budget.depth, env.values)[0], reg_type)
                lines.append(f"{ind}{reg_name} = {text};")
                if self.rng.random() < 0.5:
                    # Write-then-read: the shadow environment must forward
                    # the pending value (paper Section 3.1).
                    self.features.add("wr_then_rd")
                    local = self.var("vq")
                    lines.append(
                        f"{ind}{self.fmt_type(reg_type)} {local} "
                        f"= {reg_name};")
                    rd_extra = f"{local} ^ "
            if self.array_reg is not None and self.rng.random() < 0.4:
                text, _ = self.cast(
                    self.expr(self.budget.depth, env.values)[0],
                    ty.unsigned(32))
                lines.append(
                    f"{ind}{self.array_reg[0]}[(rd[1:0])] = {text};")
            if (self.budget.allow_memory and not mem_read
                    and self.rng.random() < 0.25):
                mem_write = True
                self.features.add("mem_write")
                span, width = self.rng.choice(((3, 32), (0, 8)))
                text, _ = self.cast(
                    self.expr(self.budget.depth, env.values)[0],
                    ty.unsigned(width))
                target = (f"MEM[va+{span}:va]" if span else "MEM[va]")
                lines.append(f"{ind}{target} = {text};")
            if not mem_write and self.rng.random() < 0.15:
                # The predicate must be decode-time (an encoding field):
                # values derived from loads arrive after the WrPC window
                # closes on in-order cores such as ORCA.
                self.features.add("pc_write")
                lines.append(f"{ind}if ((rs1[0])) {{")
                lines.append(
                    f"{ind}  PC = (unsigned<32>) (PC + 8);")
                lines.append(f"{ind}}}")
        body, _ = self.expr(self.budget.depth, env.values)
        text, _ = self.cast(f"{rd_extra}{body}", ty.unsigned(32))
        lines.append(f"{ind}X[rd] = {text};")

        if spawn:
            ind = ind[:-2]
            lines.append(f"{ind}}}")
        lines.append("      }")
        lines.append("    }")
        return lines

    def gen_always(self) -> List[str]:
        self.features.add("always")
        reg_name, reg_type = self.registers[0]
        lines = [f"    fza{self.seed} {{"]
        if self.rng.random() < 0.5:
            # The zol idiom: compare a custom register against the PC and
            # redirect when it matches.
            lines.append(
                f"      if ({reg_name} != 0 && {reg_name} == PC) {{")
            lines.append(
                "        PC = (unsigned<32>) (PC + 4);")
        else:
            lines.append(f"      if ({reg_name} != 0) {{")
        lines.append(
            f"        {reg_name} = "
            f"({self.fmt_type(reg_type)}) ({reg_name} - 1);")
        lines.append("      }")
        lines.append("    }")
        return lines

    # -------------------------------------------------------------- driver
    def program(self) -> FuzzProgram:
        name = f"fuzz_s{self.seed}"
        state_lines = self.gen_state()
        function_lines: List[str] = []
        for index in range(self.rng.randint(0, self.budget.functions)):
            function_lines.extend(self.gen_function(index))
        instr_lines: List[str] = []
        for index in range(self.rng.randint(1, self.budget.instructions)):
            instr_lines.extend(self.gen_instruction(index))
        always_lines: List[str] = []
        if (self.budget.allow_always and self.registers
                and self.rng.random() < 0.4):
            always_lines = self.gen_always()

        parts = ['import "RV32I.core_desc"', "",
                 f"InstructionSet {name} extends RV32I {{"]
        if state_lines:
            parts.append("  architectural_state {")
            parts.extend(state_lines)
            parts.append("  }")
        if function_lines:
            parts.append("  functions {")
            parts.extend(function_lines)
            parts.append("  }")
        parts.append("  instructions {")
        parts.extend(instr_lines)
        parts.append("  }")
        if always_lines:
            parts.append("  always {")
            parts.extend(always_lines)
            parts.append("  }")
        parts.append("}")
        return FuzzProgram(
            seed=self.seed,
            source="\n".join(parts) + "\n",
            name=name,
            features=frozenset(self.features),
        )


def generate_program(seed: int,
                     budget: Optional[FuzzBudget] = None) -> FuzzProgram:
    """Generate one well-typed CoreDSL program from ``seed``.

    The same seed and budget always produce byte-identical source (the
    corpus and the replay path depend on this).
    """
    return _Gen(seed, budget or FuzzBudget()).program()
