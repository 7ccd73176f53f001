"""Reporting satellites of the cosim harness: the RNG seed is recorded
on the report (reproducibility), and failing trials can dump VCD traces
for waveform debugging."""

import os

from repro import compile_isax
from repro.dialects import comb
from repro.sim.cosim import verify_artifact

XOR_ISAX = '''import "RV32I.core_desc"

InstructionSet rep extends RV32I {
  instructions {
    repx {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        X[rd] = (unsigned<32>) (X[rs1] ^ X[rs2]);
      }
    }
  }
}
'''


def test_seed_is_recorded_on_report():
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    report = verify_artifact(artifact, trials=2, seed=77)
    assert report.passed
    assert report.seed == 77
    assert "seed=77" in str(report)


def test_same_seed_reproduces_same_verdict(monkeypatch):
    """With a fault injected, two runs at the same seed must agree on the
    failing trial set — the whole point of carrying the seed around."""
    monkeypatch.setitem(comb._BINARY_EVAL, "comb.xor",
                        lambda a, b, w: (a ^ b) ^ 1)
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    # The fault is planted in the interpreting engine's eval table.
    first = verify_artifact(artifact, trials=3, seed=5, sim_engine="interp")
    second = verify_artifact(artifact, trials=3, seed=5, sim_engine="interp")
    assert not first.passed and not second.passed
    assert len(first.failures) == len(second.failures)


def test_failing_trial_dumps_vcd(tmp_path, monkeypatch):
    monkeypatch.setitem(comb._BINARY_EVAL, "comb.xor",
                        lambda a, b, w: (a ^ b) ^ 1)
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    vcd_dir = str(tmp_path / "waves")
    report = verify_artifact(artifact, trials=3, seed=0, vcd_dir=vcd_dir,
                             sim_engine="interp")
    assert not report.passed
    assert report.vcd_paths
    for path in report.vcd_paths:
        assert os.path.isfile(path)
        with open(path) as handle:
            head = handle.read(4096)
        assert "$timescale" in head
        assert "$enddefinitions" in head


def test_failing_batched_trial_dumps_vcd(tmp_path, monkeypatch):
    """The batched engine runs lanes only, so a failing batched trial is
    traced with the default scalar engine."""
    from repro.sim.batch import BatchedSimulator

    real_run_const = BatchedSimulator.run_const

    def flipped(self, vectors, cycles):
        return [{name: value ^ 1 for name, value in outputs.items()}
                for outputs in real_run_const(self, vectors, cycles)]

    monkeypatch.setattr(BatchedSimulator, "run_const", flipped)
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    report = verify_artifact(artifact, trials=3, seed=0,
                             vcd_dir=str(tmp_path / "waves"),
                             sim_engine="batched")
    assert not report.passed
    assert report.vcd_paths
    assert all(os.path.isfile(path) for path in report.vcd_paths)


def test_passing_run_dumps_no_vcd(tmp_path):
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    vcd_dir = str(tmp_path / "waves")
    report = verify_artifact(artifact, trials=2, seed=0, vcd_dir=vcd_dir)
    assert report.passed
    assert report.vcd_paths == []
    assert not os.path.isdir(vcd_dir) or not os.listdir(vcd_dir)
