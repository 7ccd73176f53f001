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


def two_group_problem(rng, n):
    """A random problem in at least two components (even and odd
    operations never share a dependence), with finite ``latest`` windows
    and chain breakers."""
    problem = LongnailProblem()
    ops = []
    for i in range(n):
        latency = rng.choice([0, 0, 1, 2])
        earliest = rng.choice([0, 0, 1, 2])
        latest = rng.choice([float("inf"), earliest + rng.randint(2, 8)])
        lot = OperatorType(
            f"t{i}", latency=latency, earliest=earliest, latest=latest,
            incoming_delay=0.0 if latency else 0.5, outgoing_delay=0.5,
        )
        problem.add_operator_type(lot)
        op = FakeOp(i, rng.choice([1, 8, 32, 64, 128]))
        ops.append(op)
        problem.add_operation(op, lot.name)
    for i in range(n):
        for j in range(i + 2, n, 2):
            if rng.random() < 0.4:
                problem.add_dependence(
                    ops[i], ops[j], is_chain_breaker=rng.random() < 0.25)
    return problem, ops


def earliest_optimum(problem):
    """Each operation's least start time over the Figure 7 optima, by
    HiGHS: one MILP for the optimum, then one per operation minimizing
    its start time with the objective held at the optimum (the optimal
    face is closed under componentwise min, so these minima form one
    optimal schedule).  ``None`` if the problem is infeasible."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    ops, deps = problem.operations, problem.dependences
    n, m = len(ops), len(deps)
    index = {op: i for i, op in enumerate(ops)}
    # Variables t_0..t_{n-1}, l_0..l_{m-1}; the objective scaled by 32.
    cost = np.array([ilp.WEIGHT_SCALE] * n
                    + [ilp._lifetime_weight(dep.source) * ilp.WEIGHT_SCALE
                       for dep in deps])
    rows, low = [], []
    for k, dep in enumerate(deps):
        i, j = index[dep.source], index[dep.target]
        precedence = np.zeros(n + m)
        precedence[j], precedence[i] = 1, -1
        rows.append(precedence)
        low.append(problem.latency(dep.source) + dep.is_chain_breaker)
        lifetime = np.zeros(n + m)
        lifetime[n + k], lifetime[j], lifetime[i] = 1, -1, 1
        rows.append(lifetime)
        low.append(0)
    lots = [problem.linked_operator_type(op) for op in ops]
    bounds = Bounds([lot.earliest for lot in lots] + [0] * m,
                    [lot.latest for lot in lots] + [np.inf] * m)
    exact = {"integrality": np.ones(n + m), "bounds": bounds,
             "options": {"mip_rel_gap": 0}}
    constraints = [LinearConstraint(np.array(rows), low, np.inf)] \
        if rows else []
    best = milp(cost, constraints=constraints, **exact)
    if best.status == 2:
        return None
    assert best.success, best.message
    at_optimum = constraints + [
        LinearConstraint(cost[np.newaxis, :], -np.inf, round(best.fun) + 0.5)]
    earliest = []
    for i in range(n):
        target = np.zeros(n + m)
        target[i] = 1
        least = milp(target, constraints=at_optimum, **exact)
        assert least.success, least.message
        earliest.append(round(least.fun))
    return earliest


class TestEarliestOptimum:
    """The fast path returns the componentwise-earliest optimal schedule,
    checked against HiGHS operation by operation, not only by objective."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.integers(2, 10))
    def test_schedule_is_the_earliest_optimum(self, seed, n):
        problem, ops = two_group_problem(random.Random(seed), n)
        want = earliest_optimum(problem)
        if want is None:
            with pytest.raises(ScheduleError):
                solve_problem(problem, "fastpath", cache=False)
            return
        stats = solve_problem(problem, "fastpath", cache=False)
        assert stats.components >= 2
        assert [problem.start_time[op] for op in ops] == want
