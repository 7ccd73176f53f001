"""Tests for the RV32I assembler, the functional ISS, and the core timing
models with integrated ISAXes (the Section 5.5 machinery)."""

import pytest

from repro.frontend import elaborate
from repro.hls import compile_isax
from repro.isaxes import (ALL_ISAXES, AUTOINC, DOTPROD, IJMP,
                          SQRT_DECOUPLED, ZOL)
from repro.scaiev import core_datasheet
from repro.sim.riscv import (
    AssemblerError,
    CoreTimingModel,
    RV32ISimulator,
    assemble,
)
from repro.sim.riscv.assembler import Assembler
from repro.utils.bits import to_unsigned


def run_program(text, isaxes=None, steps=10000, data=None):
    isa_list = [elaborate(src) for src in (isaxes or [])]
    sim = RV32ISimulator(isa_list[0]) if isa_list else RV32ISimulator(
        elaborate(DOTPROD)
    )
    for isa in isa_list[1:]:
        sim.add_isax(isa)
    sim.load_words(assemble(text, isaxes=isa_list or None))
    if data:
        for addr, words in data.items():
            for i, w in enumerate(words):
                sim.state.write_mem(addr + 4 * i, w, 4)
    sim.run(steps)
    return sim


class TestAssembler:
    def test_r_type(self):
        (word,) = assemble("add x3, x1, x2")
        assert word == 0x002081B3

    def test_i_type(self):
        (word,) = assemble("addi x1, x0, 42")
        assert word == 0x02A00093

    def test_load_store(self):
        words = assemble("lw x5, 8(x2)\nsw x5, -4(x2)")
        assert len(words) == 2

    def test_branch_to_label(self):
        words = assemble("loop:\naddi x1, x1, 1\nbne x1, x2, loop")
        assert len(words) == 2

    def test_li_small_and_large(self):
        assert len(assemble("li x1, 100")) == 1
        assert len(assemble("li x1, 0x12345")) == 2

    def test_abi_names(self):
        a = assemble("add t0, a0, sp")
        b = assemble("add x5, x10, x2")
        assert a == b

    def test_pseudo_instructions(self):
        assert assemble("nop") == [0x00000013]
        assert assemble("ecall") == [0x00000073]
        assert len(assemble("mv t0, t1")) == 1
        assert len(assemble("j somewhere\nsomewhere:")) == 1

    def test_word_directive(self):
        assert assemble(".word 0xDEADBEEF") == [0xDEADBEEF]

    def test_comments_ignored(self):
        assert len(assemble("nop # comment\n// full line\nnop")) == 2

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate x1")

    def test_invalid_register(self):
        with pytest.raises(AssemblerError):
            assemble("add x32, x0, x0")

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError):
            assemble("a:\nnop\na:\nnop")

    def test_isax_positional_operands(self):
        isa = elaborate(DOTPROD)
        (word,) = assemble("dotp x5, x3, x4", isaxes=[isa])
        enc = isa.instructions["dotp"].encoding
        assert enc.decode(word) == {"rd": 5, "rs1": 3, "rs2": 4}

    def test_isax_named_fields(self):
        isa = elaborate(ZOL)
        (word,) = assemble("setup_zol uimmS=6, uimmL=9", isaxes=[isa])
        enc = isa.instructions["setup_zol"].encoding
        assert enc.decode(word) == {"uimmS": 6, "uimmL": 9}

    def test_isax_unknown_field(self):
        isa = elaborate(ZOL)
        with pytest.raises(AssemblerError):
            assemble("setup_zol bogus=1", isaxes=[isa])


class TestAssemblerRanges:
    """Operands that do not fit their encoding are errors, never wrapped."""

    @pytest.mark.parametrize("text", [
        "addi a0, x0, 2047", "addi a0, x0, -2048", "lw a0, 2047(a1)",
        "sw a0, -2048(a1)", "jalr ra, -2048(a1)", "slli a0, a0, 31",
        "srai a0, a0, 0", "lui a0, 0xFFFFF", "auipc a0, 0",
    ])
    def test_edges_of_each_range_assemble(self, text):
        assert len(assemble(text)) == 1

    @pytest.mark.parametrize("text, message", [
        ("addi a0, x0, 2048", "'addi': immediate 2048 is outside -2048..2047"),
        ("andi a0, a0, -2049", "'andi': immediate -2049"),
        ("lw a0, 2048(a1)", "'lw': offset 2048 is outside -2048..2047"),
        ("jalr ra, -2049(a1)", "'jalr': offset -2049"),
        ("sb a0, 4096(a1)", "'sb': offset 4096"),
    ])
    def test_i_type_and_memory_offsets(self, text, message):
        with pytest.raises(AssemblerError, match=message):
            assemble(text)

    @pytest.mark.parametrize("amount", [32, 33, -1])
    def test_shift_amounts(self, amount):
        with pytest.raises(AssemblerError, match=f"shift amount {amount} "
                                                 "is outside 0..31"):
            assemble(f"slli a0, a0, {amount}")

    def test_branch_offsets(self):
        far = "\n".join(["nop"] * 1024)
        assert len(assemble(f"start:\n{far}\nbeq x0, x0, start")) == 1025
        with pytest.raises(AssemblerError,
                           match=r"'beq': offset 4100 is outside an even "
                                 r"value in -4096\.\.4094"):
            assemble(f"beq x0, x0, end\n{far}\nend:")
        with pytest.raises(AssemblerError, match="'bne': offset 3 is"):
            assemble("bne a0, a1, 3")

    def test_jump_offsets(self):
        with pytest.raises(AssemblerError,
                           match=r"'jal': offset 1048576 is outside an even "
                                 r"value in -1048576\.\.1048574"):
            assemble("jal ra, 1048576")
        with pytest.raises(AssemblerError, match="'j': offset 5 is"):
            assemble("j 5")
        assert len(assemble("j -1048576")) == 1

    @pytest.mark.parametrize("text", ["lui a0, 0x100000", "auipc a0, -1"])
    def test_upper_immediates(self, text):
        with pytest.raises(AssemblerError, match=r"upper immediate .* is "
                                                 r"outside 0\.\.1048575"):
            assemble(text)

    def test_isax_named_field_width(self):
        isa = elaborate(ZOL)
        width = isa.instructions["setup_zol"].encoding.fields["uimmL"].width
        assert assemble(f"setup_zol uimmS=1, uimmL={(1 << width) - 1}",
                        isaxes=[isa])
        with pytest.raises(AssemblerError, match=f"field uimmL {1 << width}"):
            assemble(f"setup_zol uimmS=1, uimmL={1 << width}", isaxes=[isa])


class TestISS:
    def test_arithmetic_program(self):
        sim = run_program("li t0, 20\nli t1, 22\nadd t2, t0, t1\necall")
        assert sim.state.read_x(7) == 42

    def test_memory_program(self):
        sim = run_program(
            "li t0, 0x100\nli t1, 0x1234\nsw t1, 0(t0)\nlw t2, 0(t0)\necall"
        )
        assert sim.state.read_x(7) == 0x1234

    def test_byte_halfword_access(self):
        sim = run_program(
            "li t0, 0x100\nli t1, -1\nsb t1, 0(t0)\nlbu t2, 0(t0)\n"
            "lb t3, 0(t0)\necall"
        )
        assert sim.state.read_x(7) == 0xFF
        assert sim.state.read_x(28) == to_unsigned(-1, 32)

    def test_branch_loop(self):
        sim = run_program(
            "li t0, 0\nli t1, 5\nloop:\naddi t0, t0, 1\nbne t0, t1, loop\necall"
        )
        assert sim.state.read_x(5) == 5

    def test_jal_jalr(self):
        sim = run_program(
            "jal ra, target\necall\ntarget:\nli t0, 7\njalr x0, 0(ra)"
        )
        assert sim.state.read_x(5) == 7

    def test_slt_sltu(self):
        sim = run_program(
            "li t0, -1\nli t1, 1\nslt t2, t0, t1\nsltu t3, t0, t1\necall"
        )
        assert sim.state.read_x(7) == 1   # signed: -1 < 1
        assert sim.state.read_x(28) == 0  # unsigned: 0xFFFFFFFF > 1

    def test_shifts(self):
        sim = run_program(
            "li t0, -16\nsrai t1, t0, 2\nsrli t2, t0, 28\nslli t3, t0, 1\necall"
        )
        assert sim.state.read_x(6) == to_unsigned(-4, 32)
        assert sim.state.read_x(7) == 0xF
        assert sim.state.read_x(28) == to_unsigned(-32, 32)

    def test_isax_executes_in_iss(self):
        sim = run_program(
            "li t0, 0x01010101\nli t1, 0x02020202\ndotp t2, t0, t1\necall",
            isaxes=[DOTPROD],
        )
        assert sim.state.read_x(7) == 8  # 4 lanes of 1*2

    def test_illegal_instruction(self):
        from repro.sim.riscv.isa import SimError

        sim = RV32ISimulator(elaborate(DOTPROD))
        sim.load_words([0xFFFFFFFF])
        with pytest.raises(SimError):
            sim.step()

    def test_illegal_word_raises_with_each_pc(self):
        from repro.sim.riscv.isa import SimError

        sim = RV32ISimulator(elaborate(DOTPROD))
        sim.load_words([0xFFFFFFFF, 0xFFFFFFFF])
        for pc in (0, 4, 0):
            sim.state.pc = pc
            with pytest.raises(SimError, match=f"illegal instruction "
                                               f"0xffffffff at pc={pc:#010x}"):
                sim.step()

    def test_isax_jump_to_its_own_address(self):
        """The written PC is the next pc, even where it is the ISAX's own
        address."""
        sim = RV32ISimulator(elaborate(IJMP))
        (word,) = assemble("ijmp t0", isaxes=sim.isax_isas)
        sim.load_words([word], base=0x100)
        sim.state.write_x(5, 0x200)
        for target, taken in ((0x100, True), (0x180, True)):
            sim.state.write_mem(0x200, target, 4)
            sim.state.pc = 0x100
            record = sim.step()
            assert [(e.kind, e.value) for e in record.effects] == [
                ("pc", target)]
            assert (record.next_pc, record.taken) == (target, taken)
            assert sim.state.pc == target

    def test_isax_jump_costs_a_redirect(self):
        """A jump to the ISAX's own address redirects like any other."""
        core = "VexRiscv"
        ijmp = compile_isax(IJMP, core)
        program = assemble("li t0, 0x200\nijmp t0", isaxes=[ijmp.isa])
        cycles = {}
        for target in (4, 0x40):        # 4: the ijmp's own address
            model = CoreTimingModel(core_datasheet(core), artifacts=[ijmp])
            model.load_program(program)
            model.load_data([target], 0x200)
            report = model.run(max_instructions=2)
            assert report.state.pc == target
            cycles[target] = report.cycles
        assert cycles[4] == cycles[0x40]


class TestTimingModels:
    def test_baseline_cpi_reasonable(self):
        model = CoreTimingModel(core_datasheet("VexRiscv"))
        model.load_program(assemble(
            "li t0, 0\nli t1, 100\nloop:\naddi t0, t0, 1\n"
            "bne t0, t1, loop\necall"
        ))
        report = model.run()
        assert report.instret == 203
        assert report.cycles > report.instret  # branches cost extra

    def test_fsm_core_slower(self):
        program = assemble("li t0, 1\nli t1, 2\nadd t2, t0, t1\necall")
        fast = CoreTimingModel(core_datasheet("VexRiscv"))
        fast.load_program(program)
        slow = CoreTimingModel(core_datasheet("PicoRV32"))
        slow.load_program(program)
        assert slow.run().cycles > fast.run().cycles

    def test_wrong_core_artifact_rejected(self):
        from repro.sim.riscv.isa import SimError

        artifact = compile_isax(DOTPROD, "ORCA")
        with pytest.raises(SimError):
            CoreTimingModel(core_datasheet("VexRiscv"), artifacts=[artifact])

    def test_zol_loop_is_zero_overhead(self):
        """A ZOL-driven loop spends no cycles on branching."""
        core = "VexRiscv"
        zol = compile_isax(ZOL, core)
        n = 10
        model = CoreTimingModel(core_datasheet(core), artifacts=[zol])
        model.load_program(assemble(
            f"li t0, 0\nsetup_zol uimmS=4, uimmL={n - 1}\n"
            "addi t0, t0, 1\necall",
            isaxes=[zol.isa],
        ))
        report = model.run()
        assert report.state.read_x(5) == n
        # li(2 words->1 instr) + setup + n bodies + ecall, 1 cycle each.
        assert report.cycles == 3 + n

    def test_decoupled_overlaps_independent_work(self):
        """Section 2.5: instructions may overtake a decoupled sqrt."""
        core = "VexRiscv"
        sqrt = compile_isax(SQRT_DECOUPLED, core)
        independent = "\n".join(["addi t5, t5, 1"] * 20)
        dependent_first = (
            "li t0, 100\nfsqrt t1, t0\nadd t2, t1, t1\n"
            + independent + "\necall"
        )
        independent_first = (
            "li t0, 100\nfsqrt t1, t0\n" + independent
            + "\nadd t2, t1, t1\necall"
        )
        m1 = CoreTimingModel(core_datasheet(core), artifacts=[sqrt])
        m1.load_program(assemble(dependent_first, isaxes=[sqrt.isa]))
        r1 = m1.run()
        m2 = CoreTimingModel(core_datasheet(core), artifacts=[sqrt])
        m2.load_program(assemble(independent_first, isaxes=[sqrt.isa]))
        r2 = m2.run()
        # Same work, but hiding the latency behind independent instructions
        # is faster, and both compute the same result.
        assert r2.cycles < r1.cycles
        assert r1.state.read_x(7) == r2.state.read_x(7)

    def test_hazard_handling_stalls_dependents(self):
        core = "VexRiscv"
        sqrt = compile_isax(SQRT_DECOUPLED, core)
        program = "li t0, 100\nfsqrt t1, t0\nadd t2, t1, t1\necall"
        with_hazard = CoreTimingModel(core_datasheet(core), artifacts=[sqrt])
        with_hazard.load_program(assemble(program, isaxes=[sqrt.isa]))
        r_hazard = with_hazard.run()
        without = CoreTimingModel(core_datasheet(core), artifacts=[sqrt],
                                  hazard_handling=False)
        without.load_program(assemble(program, isaxes=[sqrt.isa]))
        r_without = without.run()
        assert r_hazard.stall_cycles > 0
        assert r_without.cycles < r_hazard.cycles

    def test_tightly_coupled_stalls_core(self):
        core = "VexRiscv"
        tightly = compile_isax(ALL_ISAXES["sqrt_tightly"], core)
        program = "li t0, 100\nfsqrt t1, t0\necall"
        model = CoreTimingModel(core_datasheet(core), artifacts=[tightly])
        model.load_program(assemble(program, isaxes=[tightly.isa]))
        report = model.run()
        span = tightly.artifact("fsqrt").schedule.makespan
        # The core idles for the part of the computation beyond write-back.
        assert report.cycles >= span - core_datasheet(core).writeback_stage


class TestSection55:
    """The array-sum experiment: 18n+50 baseline vs 11n+50 (paper 5.5)."""

    ARR = 0x1000

    def baseline(self, n):
        return (
            f"li t0, {self.ARR}\nli t1, {n}\nli t2, 0\n"
            "loop:\nlw t3, 0(t0)\naddi t0, t0, 4\nadd t2, t2, t3\n"
            "addi t1, t1, -1\nbne t1, zero, loop\necall"
        )

    def with_isax(self, n):
        return (
            f"li t0, {self.ARR}\nli t2, 0\nsetup_ai t0\n"
            f"setup_zol uimmS=6, uimmL={n - 1}\n"
            "lw_ai t3\nadd t2, t2, t3\necall"
        )

    def run_pair(self, n):
        core = "VexRiscv"
        autoinc = compile_isax(AUTOINC, core)
        zol = compile_isax(ZOL, core)
        data = list(range(1, n + 1))
        base = CoreTimingModel(core_datasheet(core))
        base.load_program(assemble(self.baseline(n)))
        base.load_data(data, self.ARR)
        rb = base.run()
        ext = CoreTimingModel(core_datasheet(core), artifacts=[autoinc, zol])
        ext.load_program(assemble(self.with_isax(n),
                                  isaxes=[autoinc.isa, zol.isa]))
        ext.load_data(data, self.ARR)
        rx = ext.run()
        return rb, rx, sum(data)

    def test_results_match(self):
        rb, rx, expected = self.run_pair(16)
        assert rb.state.read_x(7) == expected
        assert rx.state.read_x(7) == expected

    def test_cycle_slopes_match_paper(self):
        rb32, rx32, _ = self.run_pair(32)
        rb64, rx64, _ = self.run_pair(64)
        base_slope = (rb64.cycles - rb32.cycles) / 32
        isax_slope = (rx64.cycles - rx32.cycles) / 32
        assert base_slope == pytest.approx(18, abs=1)
        assert isax_slope == pytest.approx(11, abs=1)

    def test_speedup_over_60_percent(self):
        rb, rx, _ = self.run_pair(128)
        assert rb.cycles / rx.cycles > 1.6
