"""The oracle stack: passes on healthy toolchains, and each oracle fires
on its own class of injected fault."""

import pytest

from repro.dialects import comb
from repro.fuzz import generate_program, run_oracles
from repro.fuzz import oracles as oracles_module
from repro.scheduling.problem import ScheduleError
from repro.utils.diagnostics import CoreDSLError

XOR_ISAX = '''import "RV32I.core_desc"

InstructionSet fuzz_s1 extends RV32I {
  instructions {
    fz1_0 {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        X[rd] = (unsigned<32>) (X[rs1] ^ X[rs2]);
      }
    }
  }
}
'''


def test_clean_program_passes_all_oracles():
    source = generate_program(3).source
    report = run_oracles(source, cores=("VexRiscv",), trials=3,
                         cosim_seed=11)
    assert report.ok, [str(f) for f in report.failures]
    assert report.functionalities >= 1
    assert report.cosim_seed == 11
    assert "PASS" in str(report)


def test_invalid_program_raises_not_reports():
    with pytest.raises(CoreDSLError):
        run_oracles("InstructionSet broken {", cores=("VexRiscv",))


def test_cosim_oracle_catches_broken_comb_op(monkeypatch):
    """A deliberately wrong RTL-side comb.xor must surface as a cosim
    failure (interpreter and netlist disagree)."""
    # The fault is planted in the *interpreting* engine's eval table, so
    # pin the cosim oracle to it (the compiled engine inlines comb.xor and
    # would not see the patch).
    monkeypatch.setitem(comb._BINARY_EVAL, "comb.xor",
                        lambda a, b, w: (a ^ b) ^ 1)
    report = run_oracles(XOR_ISAX, cores=("VexRiscv",), trials=3,
                         sim_engine="interp")
    assert not report.ok
    assert "cosim" in report.kinds


def test_schedule_oracle_catches_suboptimal_engine(monkeypatch):
    """If the fast path silently degraded to ASAP (no lifetime
    minimization), the weighted-objective cross-check must flag it."""
    real_compile = oracles_module.compile_isax

    def degraded(source, core, engine="auto", **kwargs):
        if engine == "fastpath":
            engine = "asap"
        return real_compile(source, core, engine=engine, **kwargs)

    monkeypatch.setattr(oracles_module, "compile_isax", degraded)
    source = generate_program(3).source
    report = run_oracles(source, cores=("VexRiscv",), trials=1)
    assert any(f.kind == "schedule" for f in report.failures)


def test_schedule_oracle_reports_a_failed_milp_resolve(monkeypatch):
    """A MILP re-solve that raises is a schedule failure for each
    functionality, not a compile failure, and run_oracles returns."""
    def failing(problem):
        raise ScheduleError("ILP solver failed: planted")

    monkeypatch.setattr(oracles_module.ilp, "solve_milp", failing)
    report = run_oracles(XOR_ISAX, cores=("VexRiscv",), trials=1)
    assert report.kinds == ("schedule",)
    assert len(report.failures) == report.functionalities == 1
    assert "planted" in report.failures[0].detail


def test_determinism_oracle_catches_unstable_emission(monkeypatch):
    """Any run-to-run difference in the emitted SystemVerilog must be
    reported, even when both netlists are functionally identical."""
    from repro.hls import longnail

    counter = {"n": 0}
    real_emit = longnail.emit_modules

    def unstable(modules):
        counter["n"] += 1
        return real_emit(modules) + f"\n// build {counter['n']}\n"

    monkeypatch.setattr(longnail, "emit_modules", unstable)
    report = run_oracles(XOR_ISAX, cores=("VexRiscv",), trials=1)
    assert any(f.kind == "determinism" for f in report.failures)


def test_determinism_oracle_catches_unstable_lowering(monkeypatch):
    """The determinism re-run lowers from scratch: a lowering that names
    each graph it builds differently must be reported."""
    from repro.hls import longnail

    counter = {"n": 0}
    real_convert = longnail.convert_to_lil

    def renaming(isa, container):
        graph = real_convert(isa, container)
        counter["n"] += 1
        graph.name = f"{graph.name}_{counter['n']}"
        return graph

    monkeypatch.setattr(longnail, "convert_to_lil", renaming)
    # A source of its own: no other test shares its ISA or front end.
    report = run_oracles(XOR_ISAX + "// unstable lowering\n",
                         cores=("VexRiscv", "ORCA"), trials=1)
    assert {f.kind for f in report.failures} == {"determinism"}
    assert {f.core for f in report.failures} == {"VexRiscv", "ORCA"}


def test_oracles_lower_each_program_twice(monkeypatch):
    """The per-core compiles share one front end and the determinism
    re-run builds a second one: two lowerings for four cores."""
    from repro.hls import longnail

    calls = []
    real_lower = longnail.lower_isa

    def counting(isa):
        calls.append(isa)
        return real_lower(isa)

    monkeypatch.setattr(longnail, "lower_isa", counting)
    report = run_oracles(XOR_ISAX + "// lowered twice\n", trials=1)
    assert report.ok, [str(f) for f in report.failures]
    assert len(report.cores) == 4
    assert len(calls) == 2
    assert calls[0] is not calls[1]


def test_oracles_run_on_every_requested_core():
    source = generate_program(5).source
    report = run_oracles(source, cores=("ORCA", "PicoRV32"), trials=1)
    assert report.cores == ("ORCA", "PicoRV32")
    assert report.ok, [str(f) for f in report.failures]


def test_simengine_oracle_name_selects_batchsim():
    """The retired ``simengine`` kind still replays old corpora: it is an
    alias for ``batchsim``, which covers its interpreter-vs-compiled
    check."""
    report = run_oracles(XOR_ISAX, cores=("VexRiscv",), trials=2,
                         oracles=("simengine",))
    assert report.oracles == ("batchsim",)
    assert report.ok, [str(f) for f in report.failures]


def test_batchsim_runs_no_cosim(monkeypatch):
    """batchsim cross-checks the RTL engines only; comparing against the
    golden model is the cosim oracle's job, so it never calls
    ``verify_artifact``."""
    real_verify = oracles_module.verify_artifact
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real_verify(*args, **kwargs)

    monkeypatch.setattr(oracles_module, "verify_artifact", counting)
    report = run_oracles(XOR_ISAX, cores=("VexRiscv",), trials=2,
                         oracles=("batchsim",))
    assert report.ok, [str(f) for f in report.failures]
    assert calls == []


def test_discover_oracle_is_opt_in_and_passes():
    from repro.fuzz.oracles import ALL_ORACLES, DEFAULT_ORACLES

    assert "discover" in ALL_ORACLES
    assert "discover" not in DEFAULT_ORACLES
    report = run_oracles(XOR_ISAX, cores=("VexRiscv",), trials=2,
                         oracles=("compile", "discover"))
    assert report.ok, [str(f) for f in report.failures]


def test_discover_oracle_catches_broken_emitter(monkeypatch):
    """An emitter that drops a candidate's behaviour must be reported."""
    from repro.discover import emit as emit_module

    def hollow(kernel, candidate, **kwargs):
        raise emit_module.EmitError("injected emitter fault")

    monkeypatch.setattr(emit_module, "emit_candidate", hollow)
    report = run_oracles(XOR_ISAX, cores=("VexRiscv",), trials=1,
                         oracles=("compile", "discover"))
    assert any(f.kind == "discover" for f in report.failures)
