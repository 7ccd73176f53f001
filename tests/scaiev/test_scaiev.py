"""Tests for the SCAIE-V abstraction: interfaces (Table 1), datasheets,
cores, configs (Figures 8/9), modes, hazard, arbitration, integration."""

import pytest

from repro.scaiev import (
    CORES,
    InterfaceTiming,
    IsaxConfig,
    VirtualDatasheet,
    core_datasheet,
    standard_interfaces,
)
from repro.scaiev.arbitration import plan_arbitration
from repro.scaiev.config import Functionality, RegisterRequest, ScheduleEntry
from repro.scaiev.hazard import plan_scoreboard
from repro.scaiev.integrate import IntegrationError, integrate
from repro.scaiev.interfaces import (
    address_width,
    base_interface_of,
    custom_register_interfaces,
)
from repro.scaiev.regfile import CustomRegisterFile, build_register_files


class TestTable1:
    def test_all_rows_present(self):
        interfaces = standard_interfaces()
        expected = {
            "RdInstr", "RdRS1", "RdRS2", "RdCustReg", "RdPC", "RdMem",
            "WrRD", "WrCustReg.addr", "WrCustReg.data", "WrPC", "WrMem",
            "RdIValid", "RdStall", "RdFlush", "WrStall", "WrFlush",
        }
        assert set(interfaces) == expected

    def test_signatures(self):
        interfaces = standard_interfaces()
        assert interfaces["RdInstr"].results == (("instr", 32),)
        assert interfaces["WrMem"].operands == (
            ("address", 32), ("value", 32), ("pred", 1)
        )
        assert interfaces["RdMem"].operands == (("address", 32), ("pred", 1))

    def test_per_stage_exception(self):
        """Stall/flush may be instantiated per stage; others may not."""
        interfaces = standard_interfaces()
        per_stage = {n for n, i in interfaces.items() if i.per_stage}
        assert per_stage == {"RdIValid", "RdStall", "RdFlush", "WrStall",
                             "WrFlush"}

    def test_address_width(self):
        assert address_width(1) == 1
        assert address_width(2) == 1
        assert address_width(32) == 5
        assert address_width(33) == 6
        # Exact past float precision: ceil(log2(2**53 + 1)) is 54.
        assert address_width(2**53 + 1) == 54

    def test_custom_register_interfaces(self):
        subs = custom_register_interfaces("COUNT", 1, 32)
        names = [s.name for s in subs]
        assert names == ["RdCOUNT", "WrCOUNT.addr", "WrCOUNT.data"]

    def test_base_interface_classification(self):
        assert base_interface_of("RdRS1") == "RdRS1"
        assert base_interface_of("RdCOUNT") == "RdCustReg"
        assert base_interface_of("WrCOUNT.addr") == "WrCustReg.addr"
        assert base_interface_of("WrCOUNT.data") == "WrCustReg.data"


class TestDatasheets:
    def test_four_cores(self):
        assert set(CORES) == {"ORCA", "Piccolo", "PicoRV32", "VexRiscv"}

    def test_pipeline_depths_match_paper(self):
        """Section 5.2: ORCA and VexRiscv 5-stage, Piccolo 3-stage, PicoRV32
        non-pipelined (FSM)."""
        assert core_datasheet("ORCA").stages == 5
        assert core_datasheet("VexRiscv").stages == 5
        assert core_datasheet("Piccolo").stages == 3
        assert core_datasheet("PicoRV32").is_fsm

    def test_table4_baselines(self):
        """Base-core anchors from Table 4."""
        expected = {
            "ORCA": (6612.0, 996.0),
            "Piccolo": (26098.0, 420.0),
            "PicoRV32": (4745.0, 1278.0),
            "VexRiscv": (9052.0, 701.0),
        }
        for name, (area, freq) in expected.items():
            ds = core_datasheet(name)
            assert ds.base_area_um2 == area
            assert ds.base_freq_mhz == freq

    def test_vexriscv_figure9_windows(self):
        """Figure 9: instruction word in stages 1..4, regfile in 2..4."""
        ds = core_datasheet("VexRiscv")
        assert (ds.timing("RdInstr").earliest, ds.timing("RdInstr").latest) == (1, 4)
        assert (ds.timing("RdRS1").earliest, ds.timing("RdRS1").latest) == (2, 4)

    def test_orca_late_operands(self):
        """Section 5.4: ORCA register operands available in stage 3."""
        ds = core_datasheet("ORCA")
        assert ds.timing("RdRS1").earliest == 3
        assert ds.forwarding_from_last_stage

    def test_unknown_core(self):
        with pytest.raises(KeyError):
            core_datasheet("BOOM")

    def test_yaml_roundtrip(self):
        ds = core_datasheet("VexRiscv")
        restored = VirtualDatasheet.from_yaml(ds.to_yaml())
        assert restored.core_name == ds.core_name
        assert restored.stages == ds.stages
        assert restored.timings == ds.timings
        assert restored.base_area_um2 == ds.base_area_um2

    def test_cycle_time(self):
        ds = core_datasheet("VexRiscv")
        assert ds.cycle_time_ns == pytest.approx(1000.0 / 701.0)

    def test_timing_validation(self):
        with pytest.raises(ValueError):
            InterfaceTiming(earliest=3, latest=1)
        with pytest.raises(ValueError):
            InterfaceTiming(earliest=-1, latest=2)


class TestConfig:
    def zol_config(self):
        return IsaxConfig(
            name="zol",
            registers=[RegisterRequest("COUNT", 32, 1)],
            functionalities=[
                Functionality(
                    kind="instruction", name="setup_zol",
                    mask="-----------------101000000001011",
                    schedule=[
                        ScheduleEntry("RdPC", 1),
                        ScheduleEntry("WrCOUNT.addr", 1),
                        ScheduleEntry("WrCOUNT.data", 1, has_valid=True),
                    ],
                ),
                Functionality(
                    kind="always", name="zol",
                    schedule=[
                        ScheduleEntry("RdPC", 0, mode="always"),
                        ScheduleEntry("WrPC", 0, has_valid=True, mode="always"),
                        ScheduleEntry("RdCOUNT", 0, mode="always"),
                        ScheduleEntry("WrCOUNT.addr", 0, mode="always"),
                        ScheduleEntry("WrCOUNT.data", 0, has_valid=True,
                                      mode="always"),
                    ],
                ),
            ],
        )

    def test_yaml_roundtrip(self):
        config = self.zol_config()
        restored = IsaxConfig.from_yaml(config.to_yaml())
        assert restored.name == "zol"
        assert restored.registers == config.registers
        assert len(restored.functionalities) == 2
        assert restored.functionalities[0].mask == config.functionalities[0].mask
        assert restored.functionalities[1].schedule == \
            config.functionalities[1].schedule

    def test_figure8_yaml_shape(self):
        """The emitted YAML contains the Figure 8 ingredients."""
        text = self.zol_config().to_yaml()
        assert "{register: COUNT, width: 32, elements: 1}" in text
        assert "instruction: setup_zol" in text
        assert "always: zol" in text
        assert "has_valid: 1" in text

    def test_queries(self):
        config = self.zol_config()
        assert [f.name for f in config.instructions] == ["setup_zol"]
        assert [f.name for f in config.always_blocks] == ["zol"]
        assert "WrPC" in config.interfaces_used()
        assert not config.is_decoupled()


class TestHazard:
    def decoupled_config(self):
        return IsaxConfig(
            name="sqrt",
            functionalities=[
                Functionality(
                    kind="instruction", name="sqrt",
                    mask="0" * 32,
                    schedule=[
                        ScheduleEntry("RdRS1", 2),
                        ScheduleEntry("WrRD", 12, has_valid=True,
                                      mode="decoupled"),
                    ],
                ),
            ],
        )

    def test_scoreboard_for_decoupled_wrrd(self):
        plan = plan_scoreboard(self.decoupled_config(),
                               core_datasheet("VexRiscv"))
        assert plan.enabled
        assert len(plan.entries) == 1
        assert plan.entries[0].target == "rd"
        # 4 pending slots of (5-bit address + valid) + 2-deep commit buffer.
        assert plan.storage_bits == 4 * 6 + 2 * 37
        # 5 address bits x 2 read ports x 4 slots x 5 stages.
        assert plan.comparator_bits == 5 * 2 * 4 * 5

    def test_disabled_scoreboard_costs_nothing(self):
        """Table 4's 'without data-hazard handling' ablation."""
        plan = plan_scoreboard(self.decoupled_config(),
                               core_datasheet("VexRiscv"), enabled=False)
        assert plan.storage_bits == 0
        assert plan.comparator_bits == 0

    def test_in_pipeline_needs_no_scoreboard(self):
        config = IsaxConfig(
            name="x",
            functionalities=[Functionality(
                kind="instruction", name="x", mask="0" * 32,
                schedule=[ScheduleEntry("WrRD", 4, has_valid=True)],
            )],
        )
        plan = plan_scoreboard(config, core_datasheet("VexRiscv"))
        assert not plan.entries


class TestArbitration:
    def test_shared_interface_muxed(self):
        configs = [
            IsaxConfig("a", functionalities=[Functionality(
                "instruction", "ia", "0" * 32,
                [ScheduleEntry("WrRD", 4, has_valid=True)],
            )]),
            IsaxConfig("b", functionalities=[Functionality(
                "instruction", "ib", "1" * 32,
                [ScheduleEntry("WrRD", 4, has_valid=True)],
            )]),
        ]
        plan = plan_arbitration(configs)
        mux = plan.mux_for("WrRD")
        assert mux.ways == 2
        assert mux.width == 32

    def test_priority_is_deterministic(self):
        configs = [
            IsaxConfig("b", functionalities=[Functionality(
                "instruction", "ib", "1" * 32,
                [ScheduleEntry("WrRD", 4, has_valid=True)],
            )]),
            IsaxConfig("a", functionalities=[Functionality(
                "instruction", "ia", "0" * 32,
                [ScheduleEntry("WrRD", 4, has_valid=True)],
            )]),
        ]
        plan = plan_arbitration(configs)
        assert plan.mux_for("WrRD").users == ["a:ia", "b:ib"]

    def test_decoupled_ranks_behind_in_pipeline(self):
        configs = [
            IsaxConfig("a", functionalities=[Functionality(
                "instruction", "slow", "0" * 32,
                [ScheduleEntry("WrRD", 9, has_valid=True, mode="decoupled")],
            )]),
            IsaxConfig("b", functionalities=[Functionality(
                "instruction", "fast", "1" * 32,
                [ScheduleEntry("WrRD", 4, has_valid=True)],
            )]),
        ]
        plan = plan_arbitration(configs)
        assert plan.mux_for("WrRD").users == ["b:fast", "a:slow"]

    def test_single_user_no_mux(self):
        configs = [IsaxConfig("a", functionalities=[Functionality(
            "instruction", "ia", "0" * 32,
            [ScheduleEntry("WrRD", 4, has_valid=True)],
        )])]
        plan = plan_arbitration(configs)
        with pytest.raises(KeyError):
            plan.mux_for("WrRD")


class TestRegfile:
    def test_storage(self):
        regfile = CustomRegisterFile(RegisterRequest("BUF", 16, 8))
        assert regfile.storage_bits == 128
        assert regfile.address_width == 3

    def test_read_write(self):
        regfile = CustomRegisterFile(RegisterRequest("R", 8, 2))
        regfile.write(0x1FF, 1)
        assert regfile.read(1) == 0xFF  # truncated to width
        assert regfile.read(0) == 0
        assert regfile.read(5) == 0     # out of range

    def test_build_from_config(self):
        config = IsaxConfig("x", registers=[
            RegisterRequest("A", 32, 1), RegisterRequest("B", 8, 4),
        ])
        files = build_register_files(config)
        assert set(files) == {"A", "B"}


class TestIntegration:
    def valid_config(self, name="a", mask=None):
        mask = mask or ("0" * 25 + "0001011")
        return IsaxConfig(name, functionalities=[Functionality(
            "instruction", f"i_{name}", mask,
            [ScheduleEntry("RdRS1", 2), ScheduleEntry("WrRD", 4, has_valid=True)],
        )])

    def test_basic_integration(self):
        result = integrate(core_datasheet("VexRiscv"),
                           [(self.valid_config(), None)])
        assert result.core_name == "VexRiscv"
        assert result.glue_bits("decode") > 0
        assert result.glue_bits("valid_pipe") > 0

    def test_encoding_conflict_detected(self):
        mask = "0" * 25 + "0001011"
        with pytest.raises(IntegrationError, match="conflict"):
            integrate(core_datasheet("VexRiscv"), [
                (self.valid_config("a", mask), None),
                (self.valid_config("b", mask), None),
            ])

    def test_distinct_encodings_ok(self):
        result = integrate(core_datasheet("VexRiscv"), [
            (self.valid_config("a", "0" * 20 + "11111" + "0001011"), None),
            (self.valid_config("b", "0" * 20 + "00000" + "0001011"), None),
        ])
        assert len(result.configs) == 2

    def test_always_write_without_valid_rejected(self):
        config = IsaxConfig("z", functionalities=[Functionality(
            "always", "z", None, [ScheduleEntry("WrPC", 0)],
        )])
        with pytest.raises(IntegrationError, match="valid"):
            integrate(core_datasheet("VexRiscv"), [(config, None)])

    def test_shared_custom_state_allowed(self):
        """Shared state between ISAXes (paper Section 6 contrast with CX)."""
        reg = RegisterRequest("SHARED", 32, 1)
        config_a = IsaxConfig("a", registers=[reg], functionalities=[
            Functionality("instruction", "ia", "0" * 25 + "0001011",
                          [ScheduleEntry("WrSHARED.data", 2, has_valid=True)]),
        ])
        config_b = IsaxConfig("b", registers=[reg], functionalities=[
            Functionality("instruction", "ib", "1" * 25 + "0001011",
                          [ScheduleEntry("RdSHARED", 2)]),
        ])
        result = integrate(core_datasheet("VexRiscv"),
                           [(config_a, None), (config_b, None)])
        assert list(result.register_files) == ["SHARED"]

    def test_conflicting_shared_register_rejected(self):
        config_a = IsaxConfig("a", registers=[RegisterRequest("R", 32, 1)],
                              functionalities=[])
        config_b = IsaxConfig("b", registers=[RegisterRequest("R", 16, 1)],
                              functionalities=[])
        with pytest.raises(IntegrationError, match="conflicting"):
            integrate(core_datasheet("VexRiscv"),
                      [(config_a, None), (config_b, None)])

    def test_hazard_ablation_reduces_glue(self):
        config = IsaxConfig("sqrt", functionalities=[Functionality(
            "instruction", "sqrt", "0" * 25 + "0001011",
            [ScheduleEntry("RdRS1", 2),
             ScheduleEntry("WrRD", 12, has_valid=True, mode="decoupled")],
        )])
        with_hazard = integrate(core_datasheet("VexRiscv"), [(config, None)])
        without = integrate(core_datasheet("VexRiscv"), [(config, None)],
                            hazard_handling=False)
        assert without.glue_bits() < with_hazard.glue_bits()
        assert without.glue_bits("comparator") == 0
