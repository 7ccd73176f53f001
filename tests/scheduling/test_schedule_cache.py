"""Schedule-cache and decomposition tests: fingerprint canonicalization,
LRU accounting, component solving, and the build_problem satellites
(interface incoming delays, linear read->write serialization)."""

import pytest

from repro.frontend import elaborate
from repro.isaxes import ALL_ISAXES
from repro.lowering import convert_to_lil, lower_isa
from repro.scaiev import core_datasheet
from repro.scheduling import (
    LongnailProblem,
    OperatorType,
    ScheduleCache,
    build_problem,
    decompose,
    schedule_fingerprint,
    solve_problem,
)
from repro.scheduling import ilp


class FakeOp:
    def __init__(self, tag, width=32):
        self.tag = tag
        self.results = [type("Res", (), {"width": width})()]

    def __repr__(self):
        return f"op{self.tag}"


def chain_problem(tags, latency=0, breaker_after=None, delay=1.0):
    problem = LongnailProblem()
    lot = OperatorType("logic", latency=latency,
                       incoming_delay=0.0 if latency else delay,
                       outgoing_delay=delay)
    problem.add_operator_type(lot)
    ops = [FakeOp(tag) for tag in tags]
    for op in ops:
        problem.add_operation(op, "logic")
    for prev, cur in zip(ops, ops[1:]):
        problem.add_dependence(
            prev, cur, is_chain_breaker=prev.tag == breaker_after
        )
    return problem, ops


class TestFingerprint:
    def test_identical_problems_share_a_fingerprint(self):
        first, _ = chain_problem("abc")
        second, _ = chain_problem("xyz")  # different op identities
        assert schedule_fingerprint(first) == schedule_fingerprint(second)

    def test_chain_breaker_changes_fingerprint(self):
        plain, _ = chain_problem("abc")
        broken, _ = chain_problem("abc", breaker_after="a")
        assert schedule_fingerprint(plain) != schedule_fingerprint(broken)

    def test_propagation_delay_does_not_change_fingerprint(self):
        """Two cycle-time candidates whose chain-breaker sets coincide map
        to the same entry — the whole point of the cross-sweep cache."""
        fast, _ = chain_problem("abc", delay=0.5)
        slow, _ = chain_problem("abc", delay=2.0)
        assert schedule_fingerprint(fast) == schedule_fingerprint(slow)

    def test_latency_and_width_change_fingerprint(self):
        base, _ = chain_problem("abc")
        latent, _ = chain_problem("abc", latency=1)
        assert schedule_fingerprint(base) != schedule_fingerprint(latent)
        wide = LongnailProblem()
        wide.add_operator_type(OperatorType("logic", incoming_delay=1.0,
                                            outgoing_delay=1.0))
        ops = [FakeOp(t, width=64) for t in "abc"]
        for op in ops:
            wide.add_operation(op, "logic")
        for prev, cur in zip(ops, ops[1:]):
            wide.add_dependence(prev, cur)
        assert schedule_fingerprint(base) != schedule_fingerprint(wide)


class TestScheduleCache:
    def test_hit_miss_accounting(self):
        cache = ScheduleCache()
        assert cache.get("k") is None
        cache.put("k", [0, 1, 2])
        assert cache.get("k").start_times == (0, 1, 2)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["evictions"] == 0

    def test_lru_eviction(self):
        cache = ScheduleCache(max_entries=2)
        cache.put("a", [0])
        cache.put("b", [1])
        # Refresh "a": "b" is now oldest.
        assert cache.get("a").start_times == (0,)
        cache.put("c", [2])
        assert cache.get("b") is None
        assert cache.get("a").start_times == (0,)
        assert cache.evictions == 1

    def test_clear_resets_counters(self):
        cache = ScheduleCache()
        cache.put("a", [0])
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ScheduleCache(max_entries=0)


class TestDecompose:
    def test_connected_problem_is_returned_unchanged(self):
        problem, _ = chain_problem("abc")
        parts = decompose(problem)
        assert parts == [problem]

    def test_empty_problem(self):
        assert decompose(LongnailProblem()) == []

    def test_disconnected_components_split_and_merge(self):
        problem = LongnailProblem()
        lot = OperatorType("logic", incoming_delay=1.0, outgoing_delay=1.0)
        problem.add_operator_type(lot)
        chains = [[FakeOp(f"{c}{i}") for i in range(3)] for c in "pq"]
        for chain in chains:
            for op in chain:
                problem.add_operation(op, "logic")
            for prev, cur in zip(chain, chain[1:]):
                problem.add_dependence(prev, cur)
        parts = decompose(problem)
        assert len(parts) == 2
        assert sorted(len(p.operations) for p in parts) == [3, 3]
        stats = solve_problem(problem, "auto", cache=False)
        assert stats.components == 2
        assert len(problem.start_time) == 6

    def test_component_solution_matches_whole_problem_milp(self):
        problem = LongnailProblem()
        lot = OperatorType("logic", incoming_delay=1.0, outgoing_delay=1.0)
        problem.add_operator_type(lot)
        chains = [[FakeOp(f"{c}{i}") for i in range(4)] for c in "pqr"]
        for chain in chains:
            for op in chain:
                problem.add_operation(op, "logic")
            for prev, cur in zip(chain, chain[1:]):
                problem.add_dependence(prev, cur)
        solve_problem(problem, "auto", cache=False)
        decomposed = ilp.weighted_objective_value(problem)
        whole = ilp.weighted_objective_of(problem, ilp.solve_milp(problem))
        assert decomposed == pytest.approx(whole)


class TestBuildProblemSatellites:
    def memory_graph(self, reads=2, writes=2):
        """A raw lil graph with several independent loads followed by
        several stores (the frontend caps each sub-interface at one use
        per instruction, so the many-access case is built directly)."""
        from repro.ir.core import Graph, Operation

        graph = Graph("memtest")
        const = graph.append(Operation("comb.constant", [], [(32, False)],
                                       {"value": 0}))
        addr = const.results[0]
        read_ops = [
            graph.append(Operation("lil.read_mem", [addr], [(32, None)],
                                   {"size_bits": 32}))
            for _ in range(reads)
        ]
        write_ops = [
            graph.append(Operation("lil.write_mem", [addr, addr], [],
                                   {"size_bits": 32}))
            for _ in range(writes)
        ]
        return graph, read_ops, write_ops

    def test_reads_serialize_before_first_write_only(self):
        """Satellite: read->write ordering is the linear chain (each read
        before the first subsequent write, writes chained), not all pairs.
        The stores take no read results, so every read->write dependence
        here is a serialization edge."""
        graph, reads, writes = self.memory_graph(reads=3, writes=3)
        problem = build_problem(graph, core_datasheet("VexRiscv"))
        mem_deps = {
            (dep.source, dep.target) for dep in problem.dependences
            if dep.source in reads + writes and dep.target in writes
        }
        expected = {(read, writes[0]) for read in reads}
        expected |= {(writes[i], writes[i + 1]) for i in range(len(writes) - 1)}
        assert mem_deps == expected

    def test_edge_count_is_linear_not_quadratic(self):
        graph, reads, writes = self.memory_graph(reads=6, writes=6)
        problem = build_problem(graph, core_datasheet("VexRiscv"))
        serial = sum(
            1 for dep in problem.dependences
            if dep.source in reads + writes and dep.target in writes
        )
        assert serial == len(reads) + len(writes) - 1   # not reads * writes

    def test_multi_cycle_interface_has_no_incoming_delay(self):
        """Satellite: a latency > 0 sub-interface latches its request at
        the stage boundary — delay is charged on the result side only."""
        graph, reads, writes = self.memory_graph()
        problem = build_problem(graph, core_datasheet("VexRiscv"))
        saw_multi_cycle = saw_comb = False
        for op in graph.operations:
            lot = problem.linked_operator_type(op)
            if lot.latency > 0:
                saw_multi_cycle = True
                assert lot.incoming_delay == 0.0
                assert lot.outgoing_delay > 0.0
            elif lot.name.startswith("iface_"):
                saw_comb = True
                assert lot.incoming_delay == lot.outgoing_delay
        assert saw_multi_cycle or saw_comb

    def test_autoinc_multi_cycle_load_pins_incoming_delay(self):
        """Regression for the one-armed ternary: the multi-cycle RdMem
        operator type of a real ISAX must charge zero incoming delay."""
        isa = elaborate(ALL_ISAXES["autoinc"])
        lowered = lower_isa(isa)
        graph = convert_to_lil(isa, lowered.instructions["lw_ai"])
        problem = build_problem(graph, core_datasheet("VexRiscv"))
        multi_cycle = [
            problem.linked_operator_type(op) for op in graph.operations
            if op.name != "lil.sink"
            and problem.linked_operator_type(op).latency > 0
        ]
        assert multi_cycle, "lw_ai should use a multi-cycle sub-interface"
        for lot in multi_cycle:
            assert lot.incoming_delay == 0.0
            assert lot.outgoing_delay > 0.0

    def test_memory_schedule_stays_feasible(self):
        from repro.scheduling import LongnailScheduler

        graph, _, writes = self.memory_graph()
        scheduler = LongnailScheduler(core_datasheet("VexRiscv"))
        result = scheduler.schedule(graph)
        result.problem.verify()
        stages = [result.stage_of(op) for op in writes]
        assert stages == sorted(stages)
