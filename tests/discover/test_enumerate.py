"""Subgraph enumeration: convexity, interface limits, canonical dedup."""

import random
from typing import Dict, FrozenSet, List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discover.enumerate import (
    Candidate,
    canonical_digest,
    classify_io,
    enumerate_candidates,
)
from repro.discover.kernel import (BINARY_OPS, SHIFT_OPS, KernelBuilder,
                                  random_kernel, resolve_kernel)


def _diamond_kernel():
    """a -> (b, c) -> d with an op on only one branch: covering {shl, add2}
    without the mul between them would be non-convex."""
    build = KernelBuilder("diamond")
    build.array("A", base=0x1000, data=[3, 5, 7, 9])
    acc = build.carry("ACC", init=0)
    x = build.load("A")
    left = build.shift("shl", x, 1)
    right = build.mul(x, x)
    joined = build.add(left, right)
    build.set_carry("ACC", build.add(acc, joined))
    build.result("ACC")
    return build.build(trip_count=4)


class TestLegality:
    def test_every_candidate_is_convex_and_connected(self):
        kernel = _diamond_kernel()
        from repro.discover.enumerate import _Analysis
        analysis = _Analysis(kernel)
        for candidate in enumerate_candidates(kernel):
            subset = frozenset(candidate.nodes)
            assert analysis.is_convex(subset), candidate
            assert analysis.is_connected(subset), candidate

    def test_interface_limits_hold(self):
        kernel = resolve_kernel("audio_ml", words=4)
        for candidate in enumerate_candidates(kernel, max_inputs=2,
                                              max_outputs=1, max_mem=1):
            assert len(candidate.inputs) <= 2
            assert len(candidate.loads) <= 1
            # exactly one visible effect path: rd, or promoted state
            assert candidate.output is not None or candidate.carries

    def test_nonconvex_subset_never_emitted(self):
        kernel = _diamond_kernel()
        # load (1) and the join add (4) without the shl/mul in between:
        # both branch ops have an ancestor and a descendant inside.
        bad = frozenset({1, 4})
        from repro.discover.enumerate import _Analysis
        assert not _Analysis(kernel).is_convex(bad)
        for candidate in enumerate_candidates(kernel):
            assert frozenset(candidate.nodes) != bad

    def test_max_mem_zero_excludes_loads(self):
        kernel = resolve_kernel("array_sum", n=8)
        for candidate in enumerate_candidates(kernel, max_mem=0):
            assert not candidate.loads


class TestClassifyIO:
    def test_full_cover_promotes_the_accumulator(self):
        kernel = resolve_kernel("array_sum", n=8)
        subset = frozenset(n.id for n in kernel.op_nodes())
        inputs, outputs, promoted, loads = classify_io(kernel, subset)
        assert promoted == ["ACC"]
        assert outputs == []        # value lives in custom state
        assert len(loads) == 1

    def test_promotion_disabled_exposes_register_write(self):
        kernel = resolve_kernel("array_sum", n=8)
        subset = frozenset(n.id for n in kernel.op_nodes())
        inputs, outputs, promoted, loads = classify_io(
            kernel, subset, promote_state=False)
        assert promoted == []
        assert len(outputs) == 1    # unpromoted carry update needs rd


class TestCanonicalDedup:
    def test_audio_lane_macs_collapse_to_one(self):
        # The audio kernel has four isomorphic (extract, sext) x2 -> mul
        # lane trees differing only in the extract "lo" position; they
        # must be priced once.
        kernel = resolve_kernel("audio_ml", words=4)
        candidates = enumerate_candidates(kernel)
        lane_shapes = [c for c in candidates
                       if {kernel.node_by_id[i].op for i in c.nodes}
                       == {"extract", "sext", "mul"}]
        digests = {c.digest for c in lane_shapes}
        assert len(lane_shapes) == len(digests)
        # at least the 5-node single-lane MAC exists, deduplicated
        assert any(c.size == 5 for c in lane_shapes)

    def test_digest_ignores_lane_position(self):
        kernel = resolve_kernel("audio_ml", words=4)
        by_op = {}
        for node in kernel.op_nodes():
            by_op.setdefault(node.op, []).append(node.id)
        extracts = sorted(by_op["extract"])
        # one-node subsets for two different lanes of the same stream
        same = {
            canonical_digest(kernel, frozenset({extracts[0]}), [], []),
            canonical_digest(kernel, frozenset({extracts[1]}), [], []),
        }
        assert len(same) == 1

    def test_largest_candidates_rank_first(self):
        kernel = resolve_kernel("array_sum", n=8)
        candidates = enumerate_candidates(kernel)
        sizes = [c.size for c in candidates]
        assert sizes == sorted(sizes, reverse=True)

    def test_candidates_are_frozen_records(self):
        import dataclasses

        kernel = resolve_kernel("array_sum", n=8)
        candidate = enumerate_candidates(kernel)[0]
        assert isinstance(candidate, Candidate)
        with pytest.raises(dataclasses.FrozenInstanceError):
            candidate.digest = "tampered"


# -- reference walker -----------------------------------------------------------
# The frozenset walker that the bitmask enumerator replaced, kept as the
# oracle: every node set is a frozenset, convexity rescans the op nodes
# outside it and connectivity is a fresh search.


class _ReferenceAnalysis:
    def __init__(self, kernel) -> None:
        self.by_id = kernel.node_by_id
        self.users = kernel.users()
        self.op_ids = [n.id for n in kernel.op_nodes()]
        self.op_set = set(self.op_ids)
        self.ancestors: Dict[int, Set[int]] = {}
        for node in kernel.nodes:
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
        self.adjacent: Dict[int, Set[int]] = {i: set() for i in self.op_ids}
        for node in kernel.op_nodes():
            for operand in node.operands:
                if operand in self.op_set:
                    self.adjacent[node.id].add(operand)
                    self.adjacent[operand].add(node.id)
        self.carry_leaf = {node.attr("name"): node.id
                           for node in kernel.nodes if node.op == "carry"}

    def is_convex(self, subset: FrozenSet[int]) -> bool:
        for node_id in self.op_set - subset:
            if (self.ancestors[node_id] & subset
                    and self.descendants[node_id] & subset):
                return False
        return True

    def is_connected(self, subset: FrozenSet[int]) -> bool:
        if not subset:
            return False
        seen: Set[int] = set()
        stack = [next(iter(subset))]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.adjacent[current] & subset - seen)
        return seen == subset


def _reference_classify_io(kernel, subset, analysis, promote_state):
    by_id = analysis.by_id
    promoted: List[str] = []
    if promote_state:
        for name, spec in kernel.carries.items():
            readers = analysis.users[analysis.carry_leaf[name]]
            if spec.update in subset and all(r in subset for r in readers):
                promoted.append(name)
    promoted_leaves = {analysis.carry_leaf[name] for name in promoted}
    promoted_updates = {kernel.carries[name].update for name in promoted}
    inputs: List[int] = []
    for node_id in sorted(subset):
        for operand in by_id[node_id].operands:
            if operand in subset or operand in promoted_leaves:
                continue
            if by_id[operand].op == "const":
                continue
            if operand not in inputs:
                inputs.append(operand)
    carry_updates = {spec.update for spec in kernel.carries.values()}
    outputs = [node_id for node_id in sorted(subset)
               if any(user not in subset for user in analysis.users[node_id])
               or (node_id in carry_updates
                   and node_id not in promoted_updates)]
    loads = [i for i in sorted(subset) if by_id[i].op == "load"]
    return sorted(inputs), outputs, sorted(promoted), loads


def reference_candidates(kernel, max_nodes=32, max_inputs=2, max_outputs=1,
                         max_mem=1, promote_state=True, enum_budget=4000):
    analysis = _ReferenceAnalysis(kernel)
    visited: Set[FrozenSet[int]] = set()
    full = frozenset(analysis.op_ids)
    loads_all = frozenset(i for i in full
                          if analysis.by_id[i].op == "load")
    updates = frozenset(spec.update for spec in kernel.carries.values())
    macro_seeds = [full, full - loads_all, full - updates,
                   full - loads_all - updates]
    for load_id in sorted(loads_all):
        macro_seeds.append(full - {load_id})
        macro_seeds.append(full - {load_id} - updates)
    queue = [s for s in macro_seeds if s]
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
        inputs, outputs, promoted, loads = _reference_classify_io(
            kernel, subset, analysis, promote_state)
        if len(inputs) > max_inputs or len(outputs) > max_outputs:
            continue
        if len(loads) > max_mem:
            continue
        digest = canonical_digest(kernel, subset, inputs, promoted)
        if digest in by_digest:
            continue
        by_digest[digest] = Candidate(
            nodes=tuple(sorted(subset)), inputs=tuple(inputs),
            output=outputs[0] if outputs else None, carries=tuple(promoted),
            loads=tuple(loads), digest=digest)
    return sorted(by_digest.values(), key=lambda c: (-c.size, c.digest))


def _multi_stream_kernel(seed: int, size: int):
    """A random kernel with 1-3 load streams and 1-3 carries.  Without the
    op set's only load or carry update, :func:`random_kernel` leaves macro
    seeds that grow back into seeds; here the op set minus several loads
    or updates can be disconnected and grow into new subsets."""
    rng = random.Random(seed)
    build = KernelBuilder(f"multi{seed}")
    pool = []
    for stream in range(rng.randint(1, 3)):
        build.array(f"A{stream}", base=0x1000 * (stream + 1),
                    data=[rng.getrandbits(32) for _ in range(4)])
        pool.append(build.load(f"A{stream}"))
    leaves = [build.carry(f"C{i}") for i in range(rng.randint(1, 3))]
    pool += leaves
    if rng.random() < 0.5:
        pool.append(build.const(rng.getrandbits(8)))
    computed = []
    for _ in range(size):
        if rng.random() < 0.7:
            value = build.binary(rng.choice(BINARY_OPS), rng.choice(pool),
                                 rng.choice(pool))
        else:
            value = build.shift(rng.choice(SHIFT_OPS), rng.choice(pool),
                                rng.randrange(1, 31))
        pool.append(value)
        computed.append(value)
    for i, leaf in enumerate(leaves):
        build.set_carry(f"C{i}", build.add(leaf, rng.choice(computed)))
    build.result("C0")
    return build.build(trip_count=4)


class TestAgainstReferenceWalker:
    """The bitmask walk visits the same subsets in the same order as the
    frozenset walker, so it emits the same candidates."""

    @pytest.mark.parametrize("name", ["array_sum", "audio_ml"])
    def test_workload_kernels(self, name):
        kernel = resolve_kernel(name)
        assert enumerate_candidates(kernel) == reference_candidates(kernel)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), size=st.integers(1, 10),
           knobs=st.fixed_dictionaries({
               "max_nodes": st.integers(1, 16),
               "max_inputs": st.integers(0, 4),
               "max_outputs": st.integers(0, 3),
               "max_mem": st.integers(0, 2),
               "promote_state": st.booleans(),
               "enum_budget": st.integers(0, 300),
           }))
    def test_random_kernels(self, seed, size, knobs):
        for kernel in (random_kernel(seed, size),
                       _multi_stream_kernel(seed, size)):
            assert (enumerate_candidates(kernel, **knobs)
                    == reference_candidates(kernel, **knobs))

    def test_classify_io_matches_on_every_candidate_set(self):
        kernel = resolve_kernel("audio_ml")
        analysis = _ReferenceAnalysis(kernel)
        for candidate in reference_candidates(kernel, max_inputs=9,
                                              max_outputs=9, max_mem=9):
            subset = frozenset(candidate.nodes)
            for promote in (True, False):
                assert classify_io(kernel, subset, promote_state=promote) \
                    == _reference_classify_io(kernel, subset, analysis,
                                              promote)
