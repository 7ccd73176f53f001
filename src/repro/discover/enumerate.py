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
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.discover.kernel import BINARY_OPS, LEAF_OPS, Kernel

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
    """Precomputed structure shared by every subset check.

    A node set is an int: node ``ids[i]`` is bit ``i``, so reading the
    bits from low to high visits the nodes in ascending id.  Each per-node
    list below is indexed by bit position.
    """

    def __init__(self, kernel: Kernel) -> None:
        users = kernel.users()
        self.op_ids = [n.id for n in kernel.op_nodes()]
        self.ids = sorted(node.id for node in kernel.nodes)
        position = {node_id: i for i, node_id in enumerate(self.ids)}
        self.position = position
        size = len(self.ids)
        self.operands = [0] * size      # direct operands
        self.user_masks = [0] * size    # direct users
        self.ancestors = [0] * size     # reachable along operand edges
        self.descendants = [0] * size   # reachable along user edges
        self.neighbours = [0] * size    # adjacent op nodes (connectivity)
        self.op_mask = self.const_mask = self.load_mask = 0
        carry_leaf: Dict[str, int] = {}
        for node in kernel.nodes:              # topological by construction
            i = position[node.id]
            for operand in node.operands:
                j = position[operand]
                self.operands[i] |= 1 << j
                self.ancestors[i] |= (1 << j) | self.ancestors[j]
            if node.op == "const":
                self.const_mask |= 1 << i
            elif node.op == "carry":
                carry_leaf[node.attr("name")] = i
            elif node.op not in LEAF_OPS:
                self.op_mask |= 1 << i
                if node.op == "load":
                    self.load_mask |= 1 << i
        for node in reversed(kernel.nodes):
            i = position[node.id]
            for user in users[node.id]:
                j = position[user]
                self.user_masks[i] |= 1 << j
                self.descendants[i] |= (1 << j) | self.descendants[j]
        for node_id in self.op_ids:
            i = position[node_id]
            self.neighbours[i] = ((self.operands[i] | self.user_masks[i])
                                  & self.op_mask)
        #: per carry, in declaration order: (name, update bit, leaf bit,
        #: readers of the leaf)
        self.carries: List[Tuple[str, int, int, int]] = []
        self.update_mask = 0
        for name, spec in kernel.carries.items():
            leaf = carry_leaf[name]
            update = 1 << position[spec.update]
            self.carries.append((name, update, 1 << leaf,
                                 self.user_masks[leaf]))
            self.update_mask |= update

    # -- conversions -------------------------------------------------------
    def mask_of(self, subset: Iterable[int]) -> int:
        position = self.position
        mask = 0
        for node_id in subset:
            mask |= 1 << position[node_id]
        return mask

    def ids_of(self, mask: int) -> List[int]:
        """The node ids of ``mask``, ascending."""
        ids = self.ids
        out = []
        while mask:
            low = mask & -mask
            out.append(ids[low.bit_length() - 1])
            mask ^= low
        return out

    def union(self, masks: List[int], subset: int) -> int:
        """OR of ``masks[i]`` over the bits ``i`` of ``subset``."""
        out = 0
        while subset:
            low = subset & -subset
            out |= masks[low.bit_length() - 1]
            subset ^= low
        return out

    # -- subset checks -----------------------------------------------------
    def is_convex(self, subset: FrozenSet[int]) -> bool:
        mask = self.mask_of(subset)
        return self.convex(mask, self.union(self.descendants, mask),
                           self.union(self.ancestors, mask))

    def convex(self, subset: int, descendants: int, ancestors: int) -> bool:
        # S is convex iff no op node outside S lies on a path between two
        # members: nobody outside is both a descendant of one member and
        # an ancestor of another.
        return not descendants & ancestors & ~subset & self.op_mask

    def is_connected(self, subset: FrozenSet[int]) -> bool:
        return self.connected(self.mask_of(subset))

    def connected(self, subset: int) -> bool:
        if not subset:
            return False
        reached = frontier = subset & -subset
        while frontier:
            frontier = self.union(self.neighbours, frontier) & subset \
                & ~reached
            reached |= frontier
        return reached == subset

    # -- interface accounting ----------------------------------------------
    def promotion(self, subset: int,
                  promote_state: bool) -> Tuple[List[str], int, int]:
        """``(promoted carry names, sorted; their leaves; the carry updates
        left unpromoted)``: a carry is promoted iff ``subset`` holds its
        update and every reader of its leaf."""
        promoted: List[str] = []
        leaves = 0
        unpromoted = self.update_mask
        if promote_state:
            for name, update, leaf, readers in self.carries:
                if update & subset and not readers & ~subset:
                    promoted.append(name)
                    leaves |= leaf
                    unpromoted &= ~update
        return sorted(promoted), leaves, unpromoted

    def inputs(self, subset: int, operands: int, leaves: int) -> int:
        """External non-constant operands, promoted carry leaves aside;
        ``operands`` is the union of the members' operands."""
        return operands & ~subset & ~leaves & ~self.const_mask

    def outputs(self, subset: int, unpromoted: int) -> int:
        """Members read outside ``subset``, plus unpromoted carry updates:
        such an update has no in-graph user (the carry leaf reads it next
        iteration) but must still land in a register."""
        outputs = subset & unpromoted
        user_masks = self.user_masks
        members = subset
        while members:
            low = members & -members
            if user_masks[low.bit_length() - 1] & ~subset:
                outputs |= low
            members ^= low
        return outputs


def classify_io(kernel: Kernel, subset: FrozenSet[int],
                analysis: Optional[_Analysis] = None,
                promote_state: bool = True):
    """Interface accounting for a subset; returns ``(inputs, outputs,
    promoted_carries, loads)`` with inputs/outputs as sorted node-id lists.
    """
    analysis = analysis or _Analysis(kernel)
    mask = analysis.mask_of(subset)
    promoted, leaves, unpromoted = analysis.promotion(mask, promote_state)
    inputs = analysis.inputs(mask, analysis.union(analysis.operands, mask),
                             leaves)
    return (analysis.ids_of(inputs),
            analysis.ids_of(analysis.outputs(mask, unpromoted)),
            promoted, analysis.ids_of(mask & analysis.load_mask))


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


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
    neighbours, descendants = analysis.neighbours, analysis.descendants
    ancestors, operands = analysis.ancestors, analysis.operands
    load_mask = analysis.load_mask
    # Bottom-up growth finds every small candidate; the near-total covers
    # (the headline material: fold the whole loop body into one
    # instruction) sit beyond any affordable breadth-first horizon, so
    # seed them directly: the full op set minus combinations of the
    # memory ops and carry updates.
    full, updates = analysis.op_mask, analysis.update_mask
    macro_seeds = [full, full & ~load_mask, full & ~updates,
                   full & ~load_mask & ~updates]
    loads_left = load_mask
    while loads_left:
        load = loads_left & -loads_left
        loads_left ^= load
        macro_seeds.append(full & ~load)
        macro_seeds.append(full & ~load & ~updates)
    # A queue entry: (subset, size, unions of its members' neighbours,
    # descendants, ancestors and operands, connected).  ``connected`` is
    # None where unknown: a subset grown from a connected subset by an
    # adjacent node is connected, so only the macro seeds and what grows
    # from a disconnected one need the search.
    queue: List[Tuple[int, int, int, int, int, int, Optional[bool]]] = []
    seen: Set[int] = set()
    for seed in macro_seeds:
        if seed and seed not in seen:
            seen.add(seed)
            queue.append((seed, _popcount(seed),
                          analysis.union(neighbours, seed),
                          analysis.union(descendants, seed),
                          analysis.union(ancestors, seed),
                          analysis.union(operands, seed), None))
    for node_id in analysis.op_ids:
        i = analysis.position[node_id]
        if 1 << i not in seen:
            seen.add(1 << i)
            queue.append((1 << i, 1, neighbours[i], descendants[i],
                          ancestors[i], operands[i], True))
    by_digest: Dict[str, Candidate] = {}

    # Breadth-first over distinct subsets, each queued once, in the order
    # first reached; the walk ends after ``enum_budget`` of them.
    head = 0
    while head < len(queue) and head < enum_budget:
        subset, size, nbrs, desc, anc, opnds, connected = queue[head]
        head += 1
        if size > max_nodes:
            continue
        if connected is None:
            connected = analysis.connected(subset)

        if size < max_nodes:
            grown_connected = True if connected else None
            frontier = nbrs & ~subset
            while frontier:              # ascending node id
                low = frontier & -frontier
                frontier ^= low
                grown = subset | low
                if grown in seen:
                    continue
                seen.add(grown)
                i = low.bit_length() - 1
                queue.append((grown, size + 1, nbrs | neighbours[i],
                              desc | descendants[i], anc | ancestors[i],
                              opnds | operands[i], grown_connected))

        if not connected or not analysis.convex(subset, desc, anc):
            continue
        promoted, leaves, unpromoted = analysis.promotion(subset,
                                                          promote_state)
        inputs = analysis.inputs(subset, opnds, leaves)
        if _popcount(inputs) > max_inputs:
            continue
        loads = subset & load_mask
        if _popcount(loads) > max_mem:
            continue
        outputs = analysis.outputs(subset, unpromoted)
        if _popcount(outputs) > max_outputs:
            continue
        nodes = analysis.ids_of(subset)
        input_ids = analysis.ids_of(inputs)
        digest = canonical_digest(kernel, frozenset(nodes), input_ids,
                                  promoted)
        if digest in by_digest:
            continue
        output_ids = analysis.ids_of(outputs)
        by_digest[digest] = Candidate(
            nodes=tuple(nodes),
            inputs=tuple(input_ids),
            output=output_ids[0] if output_ids else None,
            carries=tuple(promoted),
            loads=tuple(analysis.ids_of(loads)),
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
