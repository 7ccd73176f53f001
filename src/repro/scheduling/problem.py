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

A problem is indexed once, as its operations are added:
:attr:`Problem.position` maps each operation to its place in
:attr:`Problem.operations`, and :attr:`Problem.linked_types` holds each
operation's linked :class:`OperatorType` in that order.  The passes over
a problem (chain breaking, ASAP, decomposition, the fast path, its
certificate, the cache fingerprint and the in-cycle times) read these
integer-indexed arrays instead of re-deriving them.
"""

from __future__ import annotations

import dataclasses
from typing import (Dict, Hashable, List, NamedTuple, Optional, Sequence,
                    Tuple, TypeVar)

INFINITY = float("inf")

_P = TypeVar("_P", bound="Problem")


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


class Dependence(NamedTuple):
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
        #: Each operation's index in :attr:`operations`.
        self.position: Dict[Hashable, int] = {}
        #: Each operation's linked operator type, aligned with
        #: :attr:`operations`.
        self.linked_types: List[OperatorType] = []
        self.start_time: Dict[Hashable, int] = {}

    # -- construction --------------------------------------------------------
    def add_operator_type(self, operator_type: OperatorType) -> OperatorType:
        existing = self.operator_types.get(operator_type.name)
        if existing is operator_type:
            return operator_type
        if existing is not None and existing != operator_type:
            raise ScheduleError(
                f"conflicting redefinition of operator type "
                f"'{operator_type.name}'"
            )
        self.operator_types[operator_type.name] = operator_type
        return operator_type

    def add_operation(self, operation: Hashable, operator_type: str) -> None:
        lot = self.operator_types.get(operator_type)
        if lot is None:
            raise ScheduleError(f"unknown operator type '{operator_type}'")
        if operation in self.position:
            raise ScheduleError("operation registered twice")
        self.position[operation] = len(self.operations)
        self.operations.append(operation)
        self.linked_types.append(lot)

    def add_dependence(self, source: Hashable, target: Hashable,
                       is_chain_breaker: bool = False) -> None:
        self.dependences.append(Dependence(source, target, is_chain_breaker))

    def subproblem(self: _P, indices: Sequence[int],
                   dependences: List[Dependence]) -> _P:
        """A problem of this class over the operations at ``indices``
        (ascending, so dependence order is kept) and ``dependences``,
        which must join only those operations."""
        sub = type(self)()
        for i in indices:
            lot = self.linked_types[i]
            sub.operator_types[lot.name] = lot
            sub.position[self.operations[i]] = len(sub.operations)
            sub.operations.append(self.operations[i])
            sub.linked_types.append(lot)
        sub.dependences = dependences
        return sub

    # -- properties ---------------------------------------------------------------
    def linked_operator_type(self, operation: Hashable) -> OperatorType:
        return self.linked_types[self.position[operation]]

    def latency(self, operation: Hashable) -> int:
        return self.linked_operator_type(operation).latency

    # -- input constraints ------------------------------------------------------
    def check(self) -> None:
        """Input constraints: every operation has a linked operator type,
        every dependence endpoint is registered, and every dependence
        points forward in :attr:`operations`."""
        position = self.position
        for dep in self.dependences:
            if dep.source not in position or dep.target not in position:
                raise ScheduleError("dependence endpoint is not registered")
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
        lots, position = self.linked_types, self.position
        for dep in self.dependences:
            i, j = dep.source, dep.target
            lhs = self.start_time[i] + lots[position[i]].latency
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
        self.verify_chaining()

    def verify_chaining(self) -> None:
        """The chaining constraints alone: in-cycle start times exist, are
        non-negative, and leave room for each combinational predecessor's
        delay."""
        for op in self.operations:
            if op not in self.start_time_in_cycle:
                raise ScheduleError("operation has no start time in cycle")
            if self.start_time_in_cycle[op] < 0:
                raise ScheduleError("negative start time in cycle")
        lots, position = self.linked_types, self.position
        for dep in self.dependences:
            if dep.is_chain_breaker:
                continue
            i, j = dep.source, dep.target
            lot_i = lots[position[i]]
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
        for op, lot in zip(self.operations, self.linked_types):
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
            (self.start_time[op] + lot.latency
             for op, lot in zip(self.operations, self.linked_types)),
            default=0,
        )
