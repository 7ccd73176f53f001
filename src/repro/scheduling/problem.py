"""The extensible scheduling problem model (paper Table 2).

Following CIRCT's design, *problems* are comprised of *operations*,
*operator types* and *dependences*.  Concrete problem classes differ only in
their *properties* and in the *input/solution constraints* they check:

=================  ==========================  ======================
problem            operation properties         operator-type properties
=================  ==========================  ======================
Problem            linkedOperatorType,          latency
                   startTime
ChainingProblem    startTimeInCycle             incomingDelay, outgoingDelay
LongnailProblem    --                           earliest, latest
=================  ==========================  ======================

The solution constraints implemented in :meth:`verify` are the formulas of
Table 2 verbatim.

A problem lists its operations in dependence order: every dependence
points from an earlier operation to a later one, so the list is a
topological order and every pass over a problem (ASAP, chaining) walks
it as is.  :meth:`Problem.check` rejects a backward dependence.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Optional, Tuple

INFINITY = float("inf")


class ScheduleError(Exception):
    """Raised when a problem instance is malformed or a solution violates
    the problem's constraints."""


@dataclasses.dataclass(frozen=True)
class OperatorType:
    """Characteristics of the hardware executing operations of this type.

    ``latency`` is in cycles; the propagation delays (in ns) model operator
    chaining; ``earliest``/``latest`` are the LongnailProblem's interface
    constraints from the virtual datasheet (Section 4.2): non-interface
    operator types use the defaults earliest=0, latest=inf.
    """

    name: str
    latency: int = 0
    incoming_delay: float = 0.0
    outgoing_delay: float = 0.0
    earliest: int = 0
    latest: float = INFINITY

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ScheduleError(f"operator '{self.name}': negative latency")
        if self.incoming_delay < 0 or self.outgoing_delay < 0:
            raise ScheduleError(f"operator '{self.name}': negative delay")
        if self.latency == 0 and self.incoming_delay != self.outgoing_delay:
            # For combinational operators CIRCT requires a single delay.
            raise ScheduleError(
                f"operator '{self.name}': zero-latency operators need equal "
                "incoming/outgoing delays"
            )
        if self.earliest < 0 or self.latest < self.earliest:
            raise ScheduleError(
                f"operator '{self.name}': invalid window "
                f"[{self.earliest}, {self.latest}]"
            )


@dataclasses.dataclass(frozen=True)
class Dependence:
    """An edge in the dependence graph.  ``is_chain_breaker`` marks the
    auxiliary edges used to split over-long combinational chains
    (Section 4.3, constraint C5)."""

    source: Hashable
    target: Hashable
    is_chain_breaker: bool = False


class Problem:
    """Acyclic scheduling problem without operator sharing, its
    operations listed in dependence order."""

    def __init__(self) -> None:
        self.operations: List[Hashable] = []
        self.dependences: List[Dependence] = []
        self.operator_types: Dict[str, OperatorType] = {}
        self._linked: Dict[Hashable, str] = {}
        self.start_time: Dict[Hashable, int] = {}

    # -- construction --------------------------------------------------------
    def add_operator_type(self, operator_type: OperatorType) -> OperatorType:
        existing = self.operator_types.get(operator_type.name)
        if existing is not None and existing != operator_type:
            raise ScheduleError(
                f"conflicting redefinition of operator type "
                f"'{operator_type.name}'"
            )
        self.operator_types[operator_type.name] = operator_type
        return operator_type

    def add_operation(self, operation: Hashable, operator_type: str) -> None:
        if operator_type not in self.operator_types:
            raise ScheduleError(f"unknown operator type '{operator_type}'")
        if operation in self._linked:
            raise ScheduleError("operation registered twice")
        self.operations.append(operation)
        self._linked[operation] = operator_type

    def add_dependence(self, source: Hashable, target: Hashable,
                       is_chain_breaker: bool = False) -> None:
        self.dependences.append(Dependence(source, target, is_chain_breaker))

    # -- properties ---------------------------------------------------------------
    def linked_operator_type(self, operation: Hashable) -> OperatorType:
        return self.operator_types[self._linked[operation]]

    def latency(self, operation: Hashable) -> int:
        return self.linked_operator_type(operation).latency

    # -- input constraints ------------------------------------------------------
    def check(self) -> None:
        """Input constraints: every operation has a linked operator type,
        every dependence endpoint is registered, and every dependence
        points forward in :attr:`operations`."""
        registered = set(self._linked)
        for dep in self.dependences:
            if dep.source not in registered or dep.target not in registered:
                raise ScheduleError("dependence endpoint is not registered")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        position = {op: index for index, op in enumerate(self.operations)}
        for dep in self.dependences:
            if position[dep.source] >= position[dep.target]:
                raise ScheduleError(
                    f"dependence {dep.source} -> {dep.target} runs against "
                    "the operation order; the dependence graph may "
                    "contain a cycle")

    # -- solution constraints -----------------------------------------------------
    def verify(self) -> None:
        for op in self.operations:
            if op not in self.start_time:
                raise ScheduleError("operation has no start time")
        for dep in self.dependences:
            i, j = dep.source, dep.target
            lhs = self.start_time[i] + self.latency(i)
            if dep.is_chain_breaker:
                lhs += 1
            if lhs > self.start_time[j]:
                raise ScheduleError(
                    f"precedence violated: {i} finishes at {lhs}, "
                    f"{j} starts at {self.start_time[j]}"
                )


class ChainingProblem(Problem):
    """Adds physical propagation delays and in-cycle start times."""

    def __init__(self) -> None:
        super().__init__()
        self.start_time_in_cycle: Dict[Hashable, float] = {}

    def verify(self) -> None:
        super().verify()
        for op in self.operations:
            if op not in self.start_time_in_cycle:
                raise ScheduleError("operation has no start time in cycle")
            if self.start_time_in_cycle[op] < 0:
                raise ScheduleError("negative start time in cycle")
        for dep in self.dependences:
            if dep.is_chain_breaker:
                continue
            i, j = dep.source, dep.target
            lot_i = self.linked_operator_type(i)
            # Combinational predecessor in the same cycle.
            if lot_i.latency == 0 and self.start_time[i] == self.start_time[j]:
                if (self.start_time_in_cycle[i] + lot_i.outgoing_delay
                        > self.start_time_in_cycle[j] + 1e-9):
                    raise ScheduleError(
                        f"chaining violated between {i} and {j}"
                    )
            # Sequential predecessor finishing exactly when j starts.
            if (lot_i.latency > 0
                    and self.start_time[i] + lot_i.latency == self.start_time[j]):
                if lot_i.outgoing_delay > self.start_time_in_cycle[j] + 1e-9:
                    raise ScheduleError(
                        f"chaining violated at cycle boundary between {i} "
                        f"and {j}"
                    )


class LongnailProblem(ChainingProblem):
    """Adds the interface window constraints from the virtual datasheet:
    ``earliest <= startTime <= latest`` for every operation (Table 2)."""

    def __init__(self) -> None:
        super().__init__()
        #: The flow that proves ``start_time`` optimal
        #: (:mod:`repro.scheduling.certificate`); None when the engine
        #: that solved the problem gives no certificate.
        self.flow: Optional[Tuple[Tuple[int, int, int], ...]] = None

    def verify(self) -> None:
        super().verify()
        for op in self.operations:
            lot = self.linked_operator_type(op)
            start = self.start_time[op]
            if not lot.earliest <= start <= lot.latest:
                raise ScheduleError(
                    f"interface constraint violated: {op} scheduled at "
                    f"{start}, window is [{lot.earliest}, {lot.latest}]"
                )

    # -- helpers used by the scheduler and the hardware generator ------------
    def makespan(self) -> int:
        """Last finish time over all operations."""
        return max(
            (self.start_time[op] + self.latency(op) for op in self.operations),
            default=0,
        )
