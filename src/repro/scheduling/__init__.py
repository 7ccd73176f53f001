"""Static scheduling infrastructure (paper Section 4.2/4.3).

Reimplements the relevant slice of CIRCT's scheduling infrastructure: the
extensible problem model (``Problem`` -> ``ChainingProblem`` ->
``LongnailProblem``, Table 2), chain-breaker computation, and three solver
engines for the Figure 7 formulation:

* ``fastpath`` (the default behind ``engine="auto"``) — an LP-free exact
  engine (:mod:`repro.scheduling.fastpath`) built on the observation that
  the Figure 7 constraint matrix is an integral difference-constraint
  network; every schedule it returns carries the min-cost flow that
  proves it optimal, checked by :mod:`repro.scheduling.certificate`,
* ``milp`` — the literal Figure 7 ILP via ``scipy.optimize.milp``
  (HiGHS), kept as the reference oracle: the opt-in fuzz ``milp`` oracle
  and the tests re-solve fast-path problems with it,
* ``asap`` — the heuristic longest-path baseline for the ablations.

:func:`repro.scheduling.scheduler.solve_problem` is the one engine
dispatcher.  The exact engines solve each weakly connected component
(:func:`repro.scheduling.scheduler.decompose`); only the fast path goes
through the cross-sweep schedule cache (:mod:`repro.scheduling.cache`),
so the MILP never returns a cached fast-path answer.
"""

from repro.scheduling.problem import (
    ChainingProblem,
    Dependence,
    LongnailProblem,
    OperatorType,
    Problem,
    ScheduleError,
)
from repro.scheduling.chaining import compute_chain_breakers, compute_start_times_in_cycle
from repro.scheduling.cache import (
    ScheduleCache,
    global_schedule_cache,
    schedule_fingerprint,
)
from repro.scheduling.fastpath import solve_fastpath
from repro.scheduling.scheduler import (
    LongnailScheduler,
    ScheduleResult,
    SolveStats,
    build_problem,
    decompose,
    default_delay_model,
    solve_problem,
    uniform_delay_model,
)

__all__ = [
    "Problem",
    "ChainingProblem",
    "LongnailProblem",
    "OperatorType",
    "Dependence",
    "ScheduleError",
    "ScheduleCache",
    "SolveStats",
    "compute_chain_breakers",
    "compute_start_times_in_cycle",
    "decompose",
    "global_schedule_cache",
    "schedule_fingerprint",
    "solve_fastpath",
    "solve_problem",
    "LongnailScheduler",
    "ScheduleResult",
    "build_problem",
    "default_delay_model",
    "uniform_delay_model",
]
