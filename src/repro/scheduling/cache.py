"""Cross-sweep schedule cache.

A DSE sweep re-schedules the *same* CDFG once per (core, cycle-time)
candidate, but the scheduling problem only changes when a candidate's
virtual-datasheet windows, operator latencies, or chain-breaker set
actually change.  :func:`schedule_fingerprint` canonicalizes everything
the exact engines' solution depends on — component structure, per-op
``(latency, earliest, latest, lifetime weight)`` and the dependence
multiset with its chain-breaker flags — into one digest, deliberately
*excluding* propagation delays and operator-type names: two problems with
identical fingerprints have identical optimal start times, even if they
were built for different cycle times.

:class:`ScheduleCache` maps fingerprints to solved components with LRU
eviction and hit/miss accounting.  Each entry carries the start-time
vector (aligned with the component's operation order) and the flow that
certifies it optimal (:mod:`repro.scheduling.certificate`), both indexed
by operation position, so an entry fits every problem with its
fingerprint.  A process-wide instance backs every
:class:`repro.scheduling.scheduler.LongnailScheduler` by default, so grid
sweeps within one process (the batch executor's in-process mode, the DSE
default path, and each pool worker) share solved components; pass
``schedule_cache=False`` to disable caching for one call.

Only the ``fastpath`` engine reads and fills the cache.  Every entry is
therefore the fast path's canonical componentwise-earliest optimum, a
function of the fingerprinted inputs alone, so a hit returns what a cold
solve would — whichever ``-O`` level built the graph.  A hit is checked,
not trusted: :func:`repro.scheduling.scheduler.solve_problem` re-checks
the entry's certificate against the problem at hand, and an entry that
fails is dropped, counts as a miss and is solved again.  The ``milp``
oracle always solves, so it never sees a fast-path answer.
"""

from __future__ import annotations

import array
import collections
import hashlib
import threading
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.scheduling.certificate import Flow
from repro.scheduling.fastpath import scaled_weight
from repro.scheduling.problem import INFINITY, LongnailProblem


def schedule_fingerprint(problem: LongnailProblem) -> str:
    """Canonical digest of everything the exact solution depends on.

    Distinct ``(latency, earliest, latest)`` windows are numbered in
    order of first use and spelled out once; then come each operation's
    window number, each operation's lifetime weight, and one integer
    ``(source * n + target) * 2 + breaker`` per dependence, sorted so
    that the dependences' order does not count.
    """
    ops = problem.operations
    count = len(ops)
    lots = problem.linked_types
    windows: Dict[Tuple[int, int, int], int] = {}
    numbered: Dict[int, int] = {}      # id(operator type) -> window number
    for lot in {id(lot): lot for lot in lots}.values():
        key = (lot.latency, lot.earliest,
               -1 if lot.latest == INFINITY else int(lot.latest))
        numbered[id(lot)] = windows.setdefault(key, len(windows))
    position = problem.position
    digest = hashlib.sha256(repr((count, list(windows))).encode("utf-8"))
    digest.update(b"\0")
    for part in ([numbered[id(lot)] for lot in lots],
                 [scaled_weight(op) for op in ops],
                 sorted((position[source] * count + position[target]) * 2
                        + (1 if is_chain_breaker else 0)
                        for source, target, is_chain_breaker
                        in problem.dependences)):
        digest.update(array.array("q", part).tobytes())
    return digest.hexdigest()


class ScheduleEntry(NamedTuple):
    """One solved component: start times in operation order, and the flow
    that certifies them."""

    start_times: Tuple[int, ...]
    flow: Flow


class ScheduleCache:
    """LRU map: component fingerprint -> :class:`ScheduleEntry`."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "collections.OrderedDict[str, ScheduleEntry]" = \
            collections.OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str,
            accept: Optional[Callable[[ScheduleEntry], bool]] = None
            ) -> Optional[ScheduleEntry]:
        """The entry under ``key``; an entry that ``accept`` rejects is
        dropped and counts as a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and accept is not None and not accept(entry):
                del self._entries[key]
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, start_times: Sequence[int],
            flow: Flow = ()) -> None:
        with self._lock:
            self._entries[key] = ScheduleEntry(
                tuple(int(t) for t in start_times), tuple(flow))
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


#: The process-wide default cache (see module docstring).
GLOBAL_SCHEDULE_CACHE = ScheduleCache()


def global_schedule_cache() -> ScheduleCache:
    return GLOBAL_SCHEDULE_CACHE
