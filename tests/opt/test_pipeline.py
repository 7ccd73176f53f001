"""Pass-manager, options, metrics, and cross-ISAX pooling tests."""

import pytest

import repro.dialects  # noqa: F401
from repro.ir.builder import Builder
from repro.ir.core import Graph
from repro.opt.pipeline import (
    LEVEL_PIPELINES,
    PASS_ORDER,
    OptOptions,
    PassManager,
    optimize_graphs,
)
from repro.opt.share import pool_cross_isax


def _graph_with_redundancy(name="g"):
    graph = Graph(name)
    builder = Builder.at(graph)
    x = builder.create("lil.read_rs1", [], [(32, None)]).result
    y = builder.create("lil.read_rs2", [], [(32, None)]).result
    a1 = builder.create("comb.add", [x, y], [(32, None)])
    a2 = builder.create("comb.add", [x, y], [(32, None)])
    xor = builder.create("comb.xor", [a1.result, a2.result], [(32, None)])
    pred = builder.constant(1, 1)
    builder.create("lil.write_rd", [xor.result, pred], [])
    return graph


def _graph_with_mul(name, widths=(32, 32)):
    graph = Graph(name)
    builder = Builder.at(graph)
    x = builder.create("lil.read_rs1", [], [(32, None)]).result
    y = builder.create("lil.read_rs2", [], [(32, None)]).result
    mul = builder.create("comb.mul", [x, y], [(32, None)])
    pred = builder.constant(1, 1)
    builder.create("lil.write_rd", [mul.result, pred], [])
    return graph


class TestOptOptions:
    def test_level_pipelines(self):
        assert OptOptions(level=0).pipeline() == ()
        assert OptOptions(level=1).pipeline() == (
            "canonicalize", "propagate", "cse", "dce")
        assert OptOptions(level=2).pipeline() == PASS_ORDER

    def test_enable_disable(self):
        options = OptOptions(level=1, enable=("strength",),
                             disable=("cse",))
        assert options.pipeline() == (
            "canonicalize", "propagate", "strength", "dce")

    def test_pipeline_order_is_canonical(self):
        # However flags are given, execution order follows PASS_ORDER.
        options = OptOptions(level=0, enable=("dce", "canonicalize"))
        assert options.pipeline() == ("canonicalize", "dce")

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            OptOptions(level=3)

    def test_invalid_pass_rejected(self):
        with pytest.raises(ValueError):
            OptOptions(level=1, enable=("inliner",))

    def test_from_flags_minus_prefix_disables(self):
        options = OptOptions.from_flags(2, ("-share", "strength"))
        assert "share" not in options.pipeline()
        assert "strength" in options.pipeline()

    def test_coerce(self):
        assert OptOptions.coerce(None).level == 0
        assert OptOptions.coerce(2).level == 2
        options = OptOptions(level=1)
        assert OptOptions.coerce(options) is options

    def test_fingerprint_distinguishes_configs(self):
        prints = {
            OptOptions(level=0).fingerprint(),
            OptOptions(level=1).fingerprint(),
            OptOptions(level=2).fingerprint(),
            OptOptions(level=2, disable=("share",)).fingerprint(),
            OptOptions(level=1, enable=("strength",)).fingerprint(),
        }
        assert len(prints) == 5

    def test_fingerprint_stable_under_flag_order(self):
        a = OptOptions(level=2, enable=("cse", "dce"))
        b = OptOptions(level=2, enable=("dce", "cse"))
        assert a.fingerprint() == b.fingerprint()


class TestPassManager:
    def test_o0_is_noop(self):
        graph = _graph_with_redundancy()
        before = len(graph.operations)
        report = PassManager(OptOptions(level=0)).run(graph)
        assert len(graph.operations) == before
        assert report.graphs == 0
        assert report.nodes_before == 0

    def test_o1_removes_redundancy(self):
        graph = _graph_with_redundancy()
        report = PassManager(OptOptions(level=1)).run(graph)
        assert report.nodes_after < report.nodes_before
        assert report.ops_removed >= 1
        names = [op.name for op in graph.operations]
        assert names.count("comb.add") <= 1

    def test_stats_per_pass(self):
        graph = _graph_with_redundancy()
        report = PassManager(OptOptions(level=1)).run(graph)
        assert set(report.passes) <= set(LEVEL_PIPELINES[1])
        cse = report.passes["cse"]
        assert cse.runs >= 1
        assert cse.seconds >= 0.0

    def test_report_to_dict_schema(self):
        graph = _graph_with_redundancy()
        report = PassManager(OptOptions(level=2)).run(graph)
        doc = report.to_dict()
        for key in ("level", "pipeline", "graphs", "nodes_before",
                    "nodes_after", "node_reduction_pct", "ops_removed",
                    "ops_rewritten", "seconds", "passes", "cross_isax"):
            assert key in doc
        for stats in doc["passes"].values():
            assert set(stats) == {"runs", "ops_removed", "ops_rewritten",
                                  "seconds"}

    def test_verify_mode_runs_clean(self):
        graph = _graph_with_redundancy()
        PassManager(OptOptions(level=2), verify=True).run(graph)
        graph.verify()

    def test_fixpoint_terminates(self):
        graph = _graph_with_redundancy()
        report = PassManager(OptOptions(level=2)).run(graph)
        # Rounds stop once a full sweep changes nothing.
        assert report.passes["cse"].runs <= 4


class TestOptimizeGraphs:
    def test_cross_isax_annotations(self):
        g1 = _graph_with_mul("i1")
        g2 = _graph_with_mul("i2")
        report = optimize_graphs(
            [("i1", "instruction", g1), ("i2", "instruction", g2)],
            OptOptions(level=2))
        assert report.cross_isax
        assert report.cross_isax["units_saved"] >= 1
        units = set()
        for graph in (g1, g2):
            for op in graph.operations:
                if op.name == "comb.mul":
                    units.add(op.attr("shared_unit"))
        assert len(units) == 1 and None not in units

    def test_single_instruction_no_pooling(self):
        g1 = _graph_with_mul("solo")
        report = optimize_graphs([("solo", "instruction", g1)],
                                 OptOptions(level=2))
        assert report.cross_isax == {}

    def test_share_disabled_no_pooling(self):
        g1 = _graph_with_mul("i1")
        g2 = _graph_with_mul("i2")
        report = optimize_graphs(
            [("i1", "instruction", g1), ("i2", "instruction", g2)],
            OptOptions(level=2, disable=("share",)))
        assert report.cross_isax == {}


class TestPoolCrossIsax:
    def test_different_widths_not_pooled(self):
        g1 = Graph("a")
        b1 = Builder.at(g1)
        x = b1.create("lil.read_rs1", [], [(32, None)]).result
        narrow = b1.create("comb.extract", [x], [(16, None)], {"low": 0})
        m1 = b1.create("comb.mul", [narrow.result, narrow.result],
                       [(16, None)])
        pad = b1.constant(0, 16)
        wide = b1.create("comb.concat", [pad, m1.result], [(32, None)])
        pred = b1.constant(1, 1)
        b1.create("lil.write_rd", [wide.result, pred], [])
        g2 = _graph_with_mul("b")
        pooled = pool_cross_isax(
            [("a", "instruction", g1), ("b", "instruction", g2)])
        assert pooled == {} or pooled.get("units_saved", 0) == 0

    def test_always_blocks_excluded(self):
        g1 = _graph_with_mul("i1")
        g2 = _graph_with_mul("bg")
        pooled = pool_cross_isax(
            [("i1", "instruction", g1), ("bg", "always", g2)])
        assert pooled == {} or pooled.get("units_saved", 0) == 0
