"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import main
from repro.isaxes import ZOL


@pytest.fixture()
def zol_file(tmp_path):
    path = tmp_path / "zol.core_desc"
    path.write_text(ZOL, encoding="utf-8")
    return path


class TestCompile:
    def test_compile_writes_artifacts(self, zol_file, tmp_path, capsys):
        rc = main(["compile", str(zol_file), "--core", "VexRiscv",
                   "-o", str(tmp_path / "build")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compiled for VexRiscv" in out
        sv = (tmp_path / "build" / "zol.sv").read_text()
        cfg = (tmp_path / "build" / "zol.scaiev.yaml").read_text()
        assert "module setup_zol(" in sv
        assert "always: zol" in cfg

    def test_compile_with_cycle_time(self, zol_file, tmp_path, capsys):
        rc = main(["compile", str(zol_file), "--cycle-time", "5.0",
                   "-o", str(tmp_path)])
        assert rc == 0

    def test_compile_asap_engine(self, zol_file, tmp_path):
        assert main(["compile", str(zol_file), "--engine", "asap",
                     "-o", str(tmp_path)]) == 0

    def test_missing_file_is_error(self, tmp_path, capsys):
        rc = main(["compile", str(tmp_path / "nope.core_desc")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_coredsl_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.core_desc"
        path.write_text("InstructionSet Broken {", encoding="utf-8")
        rc = main(["compile", str(path), "-o", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("command", ["compile", "verify"])
    def test_front_end_error_names_the_file(self, command, tmp_path,
                                            capsys):
        path = tmp_path / "open_comment.core_desc"
        path.write_text("InstructionSet T extends RV32I { /* never closed",
                        encoding="utf-8")
        argv = [command, str(path)] + (
            ["-o", str(tmp_path)] if command == "compile" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{path}:1:34: unterminated block comment" in err


class TestInfoCommands:
    def test_datasheet(self, capsys):
        assert main(["datasheet", "ORCA"]) == 0
        out = capsys.readouterr().out
        assert "core: ORCA" in out
        assert "forwarding_from_last_stage: true" in out

    def test_isaxes_list(self, capsys):
        assert main(["isaxes"]) == 0
        out = capsys.readouterr().out
        for name in ("autoinc", "dotprod", "zol"):
            assert name in out

    def test_isaxes_source(self, capsys):
        assert main(["isaxes", "dotprod"]) == 0
        assert "InstructionSet X_DOTP" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "RdCustReg" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "sqrt_decoupled" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_program(self, tmp_path, capsys):
        prog = tmp_path / "p.s"
        prog.write_text("li t0, 21\nadd t1, t0, t0\necall\n")
        rc = main(["simulate", str(prog), "--core", "VexRiscv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "x6   = 0x0000002a" in out

    def test_simulate_with_isax(self, tmp_path, capsys):
        prog = tmp_path / "p.s"
        prog.write_text(
            "li t0, 0x01010101\nli t1, 0x03030303\ndotp t2, t0, t1\necall\n"
        )
        rc = main(["simulate", str(prog), "--isax", "dotprod"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "x7   = 0x0000000c" in out  # 4 lanes of 1*3


class TestLint:
    WARNY = '''
import "RV32I.core_desc"
InstructionSet X_WARNY extends RV32I {
  architectural_state {
    register unsigned<32> GHOST;
  }
  instructions {
    warny {
        encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd1 :: rd[4:0]
                  :: 7'b0001011;
        behavior: { X[rd] = X[rs1] ^ X[rs2]; }
    }
  }
}
'''

    @pytest.fixture()
    def warny_file(self, tmp_path):
        path = tmp_path / "warny.core_desc"
        path.write_text(self.WARNY, encoding="utf-8")
        return path

    def test_lint_reports_warnings_exit_zero(self, warny_file, capsys):
        rc = main(["lint", str(warny_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[LN005]" in out
        assert "1 warning" in out

    def test_werror_fails_on_warnings(self, warny_file, capsys):
        assert main(["lint", str(warny_file), "--werror"]) == 1

    NOTEY = '''
import "RV32I.core_desc"
InstructionSet X_NOTEY extends RV32I {
  instructions {
    notey {
        encoding: 7'd0 :: imm[4:1] :: 1'b0 :: rs1[4:0] :: 3'd1 :: rd[4:0]
                  :: 7'b0001011;
        behavior: { X[rd] = (unsigned<32>)(X[rs1] + imm); }
    }
  }
}
'''

    def test_note_findings_never_gate_werror(self, tmp_path, capsys):
        # LN015 carries NOTE severity: reported, but --werror stays green.
        path = tmp_path / "notey.core_desc"
        path.write_text(self.NOTEY, encoding="utf-8")
        rc = main(["lint", str(path), "--werror"])
        out = capsys.readouterr().out
        assert "[LN015]" in out
        assert rc == 0

    def test_disable_silences_rule(self, warny_file, capsys):
        rc = main(["lint", str(warny_file), "--disable", "LN005",
                   "--werror"])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_unknown_rule_code(self, warny_file, capsys):
        rc = main(["lint", str(warny_file), "--enable", "LN999"])
        assert rc == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_json_format(self, warny_file, capsys):
        import json as json_mod
        assert main(["lint", str(warny_file), "--format", "json"]) == 0
        doc = json_mod.loads(capsys.readouterr().out)
        assert doc["counts"]["warning"] == 1
        assert doc["diagnostics"][0]["code"] == "LN005"

    def test_sarif_format(self, warny_file, capsys):
        import json as json_mod
        assert main(["lint", str(warny_file), "--format", "sarif"]) == 0
        doc = json_mod.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "LN005"

    def test_benchmark_isaxes_clean_with_ir_verify(self, capsys):
        rc = main(["lint", "--all-isaxes", "--core", "PicoRV32",
                   "--werror"])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_nothing_to_lint(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_cross_isax_overlap_detected(self, tmp_path, capsys):
        a = tmp_path / "a.core_desc"
        b = tmp_path / "b.core_desc"
        a.write_text(self.WARNY.replace("X_WARNY", "X_A")
                     .replace("warny {", "ia {"), encoding="utf-8")
        b.write_text(self.WARNY.replace("X_WARNY", "X_B")
                     .replace("warny {", "ib {"), encoding="utf-8")
        rc = main(["lint", str(a), str(b)])
        assert rc == 0   # LN011 is a warning
        assert "[LN011]" in capsys.readouterr().out
