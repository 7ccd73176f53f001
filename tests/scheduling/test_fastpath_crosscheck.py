"""Fast-path engine cross-check: the LP-free solver must reproduce the
Figure 7 MILP's weighted objective on every benchmark ISAX, every core,
and a cycle-time grid — plus randomized DAG property tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import elaborate
from repro.isaxes import ALL_ISAXES
from repro.lowering import convert_to_lil, lower_isa
from repro.scaiev import core_datasheet
from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES
from repro.scheduling import (
    LongnailProblem,
    OperatorType,
    ScheduleCache,
    ScheduleError,
    build_problem,
    solve_fastpath,
    solve_problem,
)
from repro.scheduling import ilp
from repro.scheduling.certificate import check_certificate
from repro.scheduling.chaining import compute_start_times_in_cycle

ALL_CORES = CORES + EXPERIMENTAL_CORES
CYCLE_SCALES = (1.0, 2.0, 4.0)


class FakeOp:
    """Stand-in operation carrying just a result width (lifetime weight)."""

    def __init__(self, tag, width):
        self.tag = tag
        self.results = [type("Res", (), {"width": width})()]

    def __repr__(self):
        return f"op{self.tag}"


def benchmark_problems(core):
    """Yield every (isax, functionality, problem) for a core/scale grid."""
    datasheet = core_datasheet(core)
    for isax_name, source in ALL_ISAXES.items():
        isa = elaborate(source)
        lowered = lower_isa(isa)
        for func_name, container in lowered.instructions.items():
            graph = convert_to_lil(isa, container)
            for scale in CYCLE_SCALES:
                problem = build_problem(
                    graph, datasheet,
                    cycle_time_ns=datasheet.cycle_time_ns * scale,
                )
                yield f"{isax_name}/{func_name}@x{scale:g}", problem


@pytest.mark.parametrize("core", ALL_CORES)
class TestBenchmarkGrid:
    def test_fastpath_matches_milp_objective(self, core):
        """The tentpole claim: exact equality of the weighted Figure 7
        objective on all 8 ISAXes x this core x a 3-point cycle grid."""
        for label, problem in benchmark_problems(core):
            exact = ilp.solve_milp(problem)
            fast, _flow = solve_fastpath(problem)
            want = ilp.weighted_objective_of(problem, exact)
            got = ilp.weighted_objective_of(problem, fast)
            assert got == pytest.approx(want), label

    def test_fastpath_is_feasible_and_earliest(self, core):
        """Fast-path solutions verify and are componentwise <= the MILP's
        (the canonical earliest point of the optimal face)."""
        for label, problem in benchmark_problems(core):
            exact = ilp.solve_milp(problem)
            fast, _flow = solve_fastpath(problem)
            problem.start_time = fast
            compute_start_times_in_cycle(problem)
            problem.verify()
            assert all(fast[op] <= exact[op] for op in problem.operations), \
                label


class TestSolveProblemStack:
    """solve_problem = decomposition + cache + engine + optional oracle."""

    def grid_problem(self):
        datasheet = core_datasheet("VexRiscv")
        isa = elaborate(ALL_ISAXES["dotprod"])
        lowered = lower_isa(isa)
        graph = convert_to_lil(isa, lowered.instructions["dotp"])
        return build_problem(graph, datasheet)

    def test_auto_resolves_to_fastpath(self):
        problem = self.grid_problem()
        stats = solve_problem(problem, "auto", cache=False)
        assert stats.engine == "fastpath"
        assert stats.operations == len(problem.operations)
        assert stats.components >= 1

    def test_cache_hit_reproduces_solution(self):
        cache = ScheduleCache()
        first = self.grid_problem()
        stats1 = solve_problem(first, "auto", cache=cache)
        assert stats1.cache_hits == 0
        assert stats1.cache_misses == stats1.components
        second = self.grid_problem()
        stats2 = solve_problem(second, "auto", cache=cache)
        assert stats2.cache_hits == stats2.components
        assert stats2.cache_misses == 0
        for a, b in zip(first.operations, second.operations):
            assert first.start_time[a] == second.start_time[b]

    def test_milp_engine_bypasses_cache(self):
        cache = ScheduleCache()
        solve_problem(self.grid_problem(), "fastpath", cache=cache)
        filled = len(cache)
        assert filled >= 1
        stats = solve_problem(self.grid_problem(), "milp", cache=cache)
        assert stats.engine == "milp"
        assert stats.cache_hits == stats.cache_misses == 0
        assert len(cache) == filled

    def test_asap_engine_bypasses_cache(self):
        cache = ScheduleCache()
        stats = solve_problem(self.grid_problem(), "asap", cache=cache)
        assert stats.engine == "asap"
        assert len(cache) == 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ScheduleError, match="unknown scheduler engine"):
            solve_problem(self.grid_problem(), "simplex")


def random_problem(rng, n):
    problem = LongnailProblem()
    ops = []
    for i in range(n):
        latency = rng.choice([0, 0, 0, 1, 2])
        earliest = rng.choice([0, 0, 1, 2, 3])
        latest = rng.choice(
            [float("inf"), float("inf"), earliest + rng.randint(0, 5)]
        )
        lot = OperatorType(
            f"t{i}", latency=latency, earliest=earliest, latest=latest,
            incoming_delay=0.0 if latency else 0.5, outgoing_delay=0.5,
        )
        problem.add_operator_type(lot)
        op = FakeOp(i, rng.choice([1, 8, 32, 64, 128]))
        ops.append(op)
        problem.add_operation(op, lot.name)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.2:
                problem.add_dependence(
                    ops[i], ops[j], is_chain_breaker=rng.random() < 0.15
                )
    return problem, ops


class TestRandomDAGs:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10_000), st.integers(1, 20))
    def test_fastpath_matches_milp_on_random_dags(self, seed, n):
        problem, ops = random_problem(random.Random(seed), n)
        try:
            exact = ilp.solve_milp(problem)
        except ScheduleError:
            # Infeasible window combination; the fast path must agree.
            with pytest.raises(ScheduleError):
                solve_fastpath(problem)
            return
        fast, flow = solve_fastpath(problem)
        want = ilp.weighted_objective_of(problem, exact)
        got = ilp.weighted_objective_of(problem, fast)
        assert got == pytest.approx(want)
        assert check_certificate(problem, fast, flow) is None
        problem.start_time = fast
        compute_start_times_in_cycle(problem)
        problem.verify()
        assert all(fast[op] <= exact[op] for op in ops)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000), st.integers(1, 20))
    def test_fastpath_is_deterministic(self, seed, n):
        problem, _ = random_problem(random.Random(seed), n)
        try:
            first = solve_fastpath(problem)
        except ScheduleError:
            return
        assert solve_fastpath(problem) == first
