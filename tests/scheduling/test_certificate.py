"""Optimality certificates: every fast-path schedule carries the flow
that proves it optimal, a planted solver fault fails the check, and a
schedule-cache hit is checked instead of trusted."""

import pytest

from repro.frontend import elaborate
from repro.hls import compile_isax
from repro.isaxes import ALL_ISAXES
from repro.lowering import convert_to_lil, lower_isa
from repro.scaiev import core_datasheet
from repro.scheduling import (
    LongnailProblem,
    OperatorType,
    ScheduleCache,
    ScheduleError,
    build_problem,
    decompose,
    fastpath,
    scheduler,
    solve_problem,
)
from repro.scheduling.certificate import ROOT, check_certificate

#: Grid cells on which every planted solver fault changes the schedule or
#: its flow (sparkle and sqrt are the cells where ASAP is not optimal).
CELLS = (("sparkle", "ORCA"), ("sparkle", "VexRiscv"),
         ("sqrt_tightly", "PicoRV32"))


def cell_problems():
    for isax, core in CELLS:
        isa = elaborate(ALL_ISAXES[isax])
        lowered = lower_isa(isa)
        for name, container in lowered.instructions.items():
            graph = convert_to_lil(isa, container)
            yield (f"{isax}@{core}/{name}",
                   build_problem(graph, core_datasheet(core)))


class FakeOp:
    def __init__(self, tag, width=32):
        self.tag = tag
        self.results = [type("Res", (), {"width": width})()]

    def __repr__(self):
        return f"op{self.tag}"


# -- planted faults ------------------------------------------------------------
def skip_solve_flow(monkeypatch):
    monkeypatch.setattr(fastpath, "_solve_flow", lambda *args: None)


def warm_start_loses_a_unit(monkeypatch):
    real = fastpath._warm_start

    def lossy(excess, pot, head, cost, cap):
        balanced = real(excess, pot, head, cost, cap)
        # Flow on a constraint arc shows up on its odd-id reverse.
        arc = next(a for a in range(1, len(cap), 2) if cap[a] > 0)
        cap[arc] -= 1
        return balanced

    monkeypatch.setattr(fastpath, "_warm_start", lossy)


def earliest_returns_asap(monkeypatch):
    real = fastpath.asap_times
    asap = []

    def recorded(problem):
        asap[:] = real(problem)
        return asap

    monkeypatch.setattr(fastpath, "asap_times", recorded)
    monkeypatch.setattr(fastpath, "_earliest_optimal",
                        lambda *args: list(asap))


def earliest_delays_last_op(monkeypatch):
    real = fastpath._earliest_optimal

    def late(*args):
        start = real(*args)
        start[-1] += 1
        return start

    monkeypatch.setattr(fastpath, "_earliest_optimal", late)


def decompose_drops_a_dependence(monkeypatch):
    def lossy(problem):
        subs = []
        for sub in decompose(problem):
            copy = LongnailProblem()
            for op in sub.operations:
                lot = sub.linked_operator_type(op)
                copy.add_operator_type(lot)
                copy.add_operation(op, lot.name)
            for dep in sub.dependences:
                if dep is not problem.dependences[0]:
                    copy.add_dependence(dep.source, dep.target,
                                        dep.is_chain_breaker)
            subs.append(copy)
        return subs

    monkeypatch.setattr(scheduler, "decompose", lossy)


def scaled_weight_halved(monkeypatch):
    real = fastpath.scaled_weight
    monkeypatch.setattr(fastpath, "scaled_weight", lambda op: real(op) // 2)


SOLVER_FAULTS = {
    "_solve_flow skipped": skip_solve_flow,
    "_warm_start loses one unit of flow": warm_start_loses_a_unit,
    "_earliest_optimal returns ASAP": earliest_returns_asap,
    "_earliest_optimal delays the last operation": earliest_delays_last_op,
    "decompose drops a dependence": decompose_drops_a_dependence,
    "scaled_weight halved": scaled_weight_halved,
}


@pytest.mark.parametrize("fault", sorted(SOLVER_FAULTS))
def test_planted_solver_fault_fails_the_certificate(fault, monkeypatch):
    problems = list(cell_problems())
    for label, problem in problems:
        solve_problem(problem, "fastpath", cache=False)
        assert check_certificate(problem, problem.start_time,
                                 problem.flow) is None, label
    SOLVER_FAULTS[fault](monkeypatch)
    for label, problem in problems:
        with pytest.raises(ScheduleError, match="failed its certificate"):
            solve_problem(problem, "fastpath", cache=False)


def breaker_pair(doubled_data_edge):
    """Two operations joined by two parallel edges: a data edge plus a
    chain breaker, or two data edges (a value used twice)."""
    problem = LongnailProblem()
    problem.add_operator_type(OperatorType("logic", incoming_delay=1.0,
                                           outgoing_delay=1.0))
    a, b = FakeOp("a"), FakeOp("b")
    for op in (a, b):
        problem.add_operation(op, "logic")
    problem.add_dependence(a, b)
    problem.add_dependence(a, b, is_chain_breaker=not doubled_data_edge)
    return problem


def test_fingerprint_ignoring_breaker_flags_is_caught_on_hit(monkeypatch):
    """A fingerprint that drops the chain-breaker flag maps both pairs to
    one entry; the hit's certificate fails for the unbroken pair, so it
    counts as a miss and is solved again."""
    real = scheduler.schedule_fingerprint

    def flagless(problem):
        plain = LongnailProblem()
        for op in problem.operations:
            lot = problem.linked_operator_type(op)
            plain.add_operator_type(lot)
            plain.add_operation(op, lot.name)
        for dep in problem.dependences:
            plain.add_dependence(dep.source, dep.target)
        return real(plain)

    cold = breaker_pair(doubled_data_edge=True)
    solve_problem(cold, "fastpath", cache=False)
    monkeypatch.setattr(scheduler, "schedule_fingerprint", flagless)
    cache = ScheduleCache()
    solve_problem(breaker_pair(doubled_data_edge=False), "fastpath",
                  cache=cache)
    warm = breaker_pair(doubled_data_edge=True)
    stats = solve_problem(warm, "fastpath", cache=cache)
    assert (stats.cache_hits, stats.cache_misses) == (0, 1)
    assert (cache.hits, cache.misses) == (0, 2)
    assert [warm.start_time[op] for op in warm.operations] == \
        [cold.start_time[op] for op in cold.operations]


def test_corrupted_cache_entry_is_a_miss_and_solved_again():
    """Shift one start time of a cached entry: the next compile's hit
    fails its certificate, counts as a miss, and the compile returns the
    cold schedule."""
    cache = ScheduleCache()
    first = compile_isax(ALL_ISAXES["dotprod"], "VexRiscv",
                         schedule_cache=cache)
    schedule = first.functionalities["dotp"].schedule
    cold = [schedule.start_times[op] for op in schedule.problem.operations]
    components = schedule.stats.components
    assert len(cache) == components

    key, entry = next(iter(cache._entries.items()))
    late = entry.start_times[:-1] + (entry.start_times[-1] + 1,)
    cache.put(key, late, entry.flow)

    again = compile_isax(ALL_ISAXES["dotprod"], "VexRiscv",
                         schedule_cache=cache)
    schedule = again.functionalities["dotp"].schedule
    assert schedule.stats.cache_misses == 1
    assert schedule.stats.cache_hits == components - 1
    assert [schedule.start_times[op]
            for op in schedule.problem.operations] == cold
    assert cache._entries[key] == entry


def test_fast_path_schedules_carry_a_checked_certificate():
    """Every solve certifies; the asap engine gives none."""
    for label, problem in cell_problems():
        solve_problem(problem, "fastpath", cache=False)
        assert problem.flow, label
        assert check_certificate(problem, problem.start_time,
                                 problem.flow) is None, label
        solve_problem(problem, "asap")
        assert problem.flow is None


def test_each_check_names_itself():
    """A schedule and flow broken in each of the four ways fail the check
    of that name."""
    problem = breaker_pair(doubled_data_edge=True)
    solve_problem(problem, "fastpath", cache=False)
    start, flow = problem.start_time, problem.flow
    assert check_certificate(problem, start, flow) is None
    a, b = problem.operations
    cases = {
        "feasibility": ({a: 1, b: 0}, flow),
        "nonnegativity": (start, flow + ((ROOT, 0, -1),)),
        "slackness": (start, flow + ((1, 0, 1),)),
        "conservation": (start, flow[:-1]),
    }
    for check, (times, arcs) in cases.items():
        assert check_certificate(problem, times, arcs).startswith(check)
