"""Convex, I/O-constrained subgraph enumeration over a kernel dataflow.

This is the classic instruction-set-extension identification step
(Atasu/Pozzi-style): a candidate custom instruction is a **connected,
convex** set of operation nodes whose register interface fits the ISAX
datapath — at most two register reads and one register write, mirroring
the two read ports / one write port the SCAIE-V interface exposes.

Interface accounting, per candidate set ``S``:

- constants fold into the instruction for free;
- a **load** inside ``S`` costs no register read: its address stream is
  promoted to an auto-incremented custom-state pointer (the AUTOINC
  pattern from the hand-written benchmark ISAXes);
- a loop **carry** (e.g. the accumulator) is promoted to custom state —
  free on both sides — iff its update node is in ``S`` and every reader
  of the carried value is in ``S`` (otherwise outside readers would need
  a register after all); promotion can be disabled to mine pure
  combinational candidates;
- every other externally produced value is a register read;
- every value consumed outside ``S`` (plus an unpromoted carry update)
  is a register write.

Legality filters: no stores (the workload kernels are reductions), at
most ``max_mem`` loads per candidate (the scoreboard serialises memory
transfers), and no intra-iteration control flow exists in the IR by
construction.

Candidates are deduplicated by a canonical Weisfeiler-Lehman-style
digest, so isomorphic subgraphs (e.g. the four identical lane MACs of
the audio kernel) are priced exactly once.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.discover.kernel import BINARY_OPS, Kernel

#: operations whose operand order does not matter for isomorphism
_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor"})


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One legal candidate instruction mined from a kernel."""

    nodes: Tuple[int, ...]            # covered op-node ids, sorted
    inputs: Tuple[int, ...]           # external value node ids -> rs1/rs2
    output: Optional[int]             # node id written to rd (or None)
    carries: Tuple[str, ...]          # carry names promoted to custom state
    loads: Tuple[int, ...]            # load node ids inside the candidate
    digest: str                       # canonical (isomorphism-class) digest

    @property
    def size(self) -> int:
        return len(self.nodes)

    def label(self) -> str:
        return "c" + self.digest[:10]


class _Analysis:
    """Precomputed structure shared by every subset check."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.by_id = kernel.node_by_id
        self.users = kernel.users()
        self.op_ids = [n.id for n in kernel.op_nodes()]
        self.op_set = set(self.op_ids)
        # ancestors[v] = every node reachable walking operand edges from v
        self.ancestors: Dict[int, Set[int]] = {}
        for node in kernel.nodes:              # topological by construction
            anc: Set[int] = set()
            for operand in node.operands:
                anc.add(operand)
                anc |= self.ancestors[operand]
            self.ancestors[node.id] = anc
        self.descendants: Dict[int, Set[int]] = {n.id: set()
                                                 for n in kernel.nodes}
        for node in reversed(kernel.nodes):
            desc: Set[int] = set()
            for user in self.users[node.id]:
                desc.add(user)
                desc |= self.descendants[user]
            self.descendants[node.id] = desc
        # undirected adjacency restricted to op nodes (for connectivity)
        self.adjacent: Dict[int, Set[int]] = {i: set() for i in self.op_ids}
        for node in kernel.op_nodes():
            for operand in node.operands:
                if operand in self.op_set:
                    self.adjacent[node.id].add(operand)
                    self.adjacent[operand].add(node.id)
        self.carry_leaf: Dict[str, int] = {}
        for node in kernel.nodes:
            if node.op == "carry":
                self.carry_leaf[node.attr("name")] = node.id

    def is_convex(self, subset: FrozenSet[int]) -> bool:
        # S is convex iff no node outside S lies on a path between two
        # members: i.e. nobody outside has both an ancestor and a
        # descendant inside S.
        for node_id in self.op_set - subset:
            if (self.ancestors[node_id] & subset
                    and self.descendants[node_id] & subset):
                return False
        return True

    def is_connected(self, subset: FrozenSet[int]) -> bool:
        if not subset:
            return False
        seen = set()
        stack = [next(iter(subset))]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.adjacent[current] & subset - seen)
        return seen == subset


def classify_io(kernel: Kernel, subset: FrozenSet[int],
                analysis: Optional[_Analysis] = None,
                promote_state: bool = True):
    """Interface accounting for a subset; returns ``(inputs, outputs,
    promoted_carries, loads)`` with inputs/outputs as sorted node-id lists.
    """
    analysis = analysis or _Analysis(kernel)
    by_id = analysis.by_id
    promoted: List[str] = []
    if promote_state:
        for name, spec in kernel.carries.items():
            leaf = analysis.carry_leaf[name]
            readers = analysis.users[leaf]
            if spec.update in subset and all(r in subset for r in readers):
                promoted.append(name)
    promoted_leaves = {analysis.carry_leaf[name] for name in promoted}
    promoted_updates = {kernel.carries[name].update for name in promoted}

    inputs: List[int] = []
    for node_id in sorted(subset):
        for operand in by_id[node_id].operands:
            if operand in subset or operand in promoted_leaves:
                continue
            source = by_id[operand]
            if source.op == "const":
                continue
            if operand not in inputs:
                inputs.append(operand)

    outputs: List[int] = []
    carry_updates = {spec.update: name
                     for name, spec in kernel.carries.items()}
    for node_id in sorted(subset):
        externally_read = any(user not in subset
                              for user in analysis.users[node_id])
        # An unpromoted carry update has no in-graph user (the carry leaf
        # reads it next iteration) but must still land in a register.
        is_result = (node_id in carry_updates
                     and node_id not in promoted_updates)
        if externally_read or is_result:
            outputs.append(node_id)

    loads = [i for i in sorted(subset) if by_id[i].op == "load"]
    return sorted(inputs), outputs, sorted(promoted), loads


def canonical_digest(kernel: Kernel, subset: FrozenSet[int],
                     inputs: Sequence[int], promoted: Sequence[str]) -> str:
    """Structure-only digest: isomorphic candidates collide on purpose.

    Iterative WL hashing over the covered nodes; external inputs hash by
    arrival kind (register/carry/load-stream), not by node id, and
    commutative operators sort their operand hashes.
    """
    by_id = kernel.node_by_id
    promoted_leaves = {kernel.carries[name].update for name in promoted}

    def node_hash(node_id: int, memo: Dict[int, str]) -> str:
        if node_id in memo:
            return memo[node_id]
        node = by_id[node_id]
        if node_id not in subset:
            if node.op == "const":
                seed = f"const:{node.attr('value')}"
            elif node.op == "carry":
                seed = "state" if node.attr("name") in promoted else "reg"
            else:
                seed = "reg"
            memo[node_id] = hashlib.sha256(seed.encode()).hexdigest()
            return memo[node_id]
        parts = [node_hash(op, memo) for op in node.operands]
        if node.op in _COMMUTATIVE:
            parts.sort()
        # Positional constants ("lo" of an extract, a shift "amount") are
        # wiring, not datapath: lane 0 and lane 2 of a packed-SIMD MAC
        # cost the same and must dedup to one candidate.  Widths stay in
        # the digest — they change the datapath.
        attrs = [f"{k}={v}" for k, v in node.attrs
                 if k not in ("array", "name", "lo", "amount")]
        if node.op == "load":
            spec = kernel.arrays[node.attr("array")]
            attrs.append(f"stride={spec.stride}")
        if node.op == "table":
            table = kernel.tables[node.attr("table")]
            attrs.append("table=" + hashlib.sha256(
                bytes(table)).hexdigest()[:16])
        seed = node.op + "(" + ",".join(parts) + ";" + ",".join(attrs) + ")"
        memo[node_id] = hashlib.sha256(seed.encode()).hexdigest()
        return memo[node_id]

    memo: Dict[int, str] = {}
    promoted_mark = "+".join(sorted(promoted)) if promoted else ""
    roots = sorted(node_hash(i, memo) for i in subset)
    blob = ("|".join(roots) + "#" + promoted_mark).encode()
    # mark promoted carries: folding the accumulator changes the interface
    del promoted_leaves
    return hashlib.sha256(blob).hexdigest()


def enumerate_candidates(kernel: Kernel,
                         max_nodes: int = 32,
                         max_inputs: int = 2,
                         max_outputs: int = 1,
                         max_mem: int = 1,
                         promote_state: bool = True,
                         enum_budget: int = 4000) -> List[Candidate]:
    """Enumerate legal candidates, deduplicated by canonical digest.

    Grows connected subsets breadth-first from every op node; convexity
    and the register-interface constraints gate *emission*, not growth
    (a 3-input subset can become 2-input after absorbing a neighbour).
    ``enum_budget`` caps the number of distinct subsets visited so the
    walk stays bounded on adversarial graphs.
    """
    analysis = _Analysis(kernel)
    visited: Set[FrozenSet[int]] = set()
    # Bottom-up growth finds every small candidate; the near-total covers
    # (the headline material: fold the whole loop body into one
    # instruction) sit beyond any affordable breadth-first horizon, so
    # seed them directly: the full op set minus combinations of the
    # memory ops and carry updates.
    full = frozenset(analysis.op_ids)
    loads_all = frozenset(i for i in full
                          if analysis.by_id[i].op == "load")
    updates = frozenset(spec.update for spec in kernel.carries.values())
    macro_seeds = [full, full - loads_all, full - updates,
                   full - loads_all - updates]
    for load_id in sorted(loads_all):
        macro_seeds.append(full - {load_id})
        macro_seeds.append(full - {load_id} - updates)
    queue: List[FrozenSet[int]] = [s for s in macro_seeds if s]
    queue.extend(frozenset({i}) for i in analysis.op_ids)
    by_digest: Dict[str, Candidate] = {}

    while queue:
        subset = queue.pop(0)
        if subset in visited or len(visited) >= enum_budget:
            continue
        visited.add(subset)

        if len(subset) < max_nodes:
            frontier: Set[int] = set()
            for member in subset:
                frontier |= analysis.adjacent[member]
            for neighbour in sorted(frontier - subset):
                grown = subset | {neighbour}
                if grown not in visited:
                    queue.append(grown)

        if len(subset) > max_nodes:
            continue
        if not analysis.is_connected(subset):
            continue
        if not analysis.is_convex(subset):
            continue
        inputs, outputs, promoted, loads = classify_io(
            kernel, subset, analysis, promote_state=promote_state)
        if len(inputs) > max_inputs or len(outputs) > max_outputs:
            continue
        if len(loads) > max_mem:
            continue
        digest = canonical_digest(kernel, subset, inputs, promoted)
        if digest in by_digest:
            continue
        by_digest[digest] = Candidate(
            nodes=tuple(sorted(subset)),
            inputs=tuple(inputs),
            output=outputs[0] if outputs else None,
            carries=tuple(promoted),
            loads=tuple(loads),
            digest=digest,
        )

    # Deterministic, largest-coverage-first order: big candidates are the
    # interesting Pareto material and should survive any pricing budget.
    return sorted(by_digest.values(),
                  key=lambda c: (-c.size, c.digest))


def describe(kernel: Kernel, candidate: Candidate) -> str:
    """Human-readable one-liner, e.g. ``load+add [in=0 out=0 state=ACC]``."""
    by_id = kernel.node_by_id
    ops = "+".join(sorted({by_id[i].op for i in candidate.nodes}))
    state = ",".join(candidate.carries) or "-"
    out = "rd" if candidate.output is not None else "-"
    return (f"{ops} [nodes={candidate.size} in={len(candidate.inputs)} "
            f"out={out} state={state} mem={len(candidate.loads)}]")


__all__ = [
    "Candidate",
    "classify_io",
    "canonical_digest",
    "describe",
    "enumerate_candidates",
    "BINARY_OPS",
]
