"""Property test of the IR edit model (repro.ir.core).

Random sequences of create, ``set_operand``, ``append_operand``,
``replace_all_uses_with``, ``erase`` and ``insert_before`` run outside
and inside an ``apply_rules`` drain, where erase and insert are
deferred.  A reference list applies every structural edit immediately,
as the block does outside a drain.  After each step the use lists must
equal a recount from the operands of the live ops; whenever the block
is settled (outside a drain, after each drain, after a rule raised)
its operation list must equal the reference: no erased op in it, and
every inserted op right where an immediate insert would have put it,
before its anchor, also when the anchor was inserted in the same drain.
"""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dialects  # noqa: F401  (registers all operations)
from repro.ir.core import Block, Graph, IRError, Operation
from repro.ir.rewrite import apply_rules

STEPS = ("append", "insert", "insert", "set_operand", "append_operand",
         "replace", "erase", "erase", "bad_insert")


class _RuleFailed(Exception):
    pass


class EditModel:
    def __init__(self, data):
        self.data = data
        self.graph = Graph("edits")
        self.graph.block = self.block = Block([(8, None), (8, None)])
        self.sink = self.graph.append(Operation("lil.sink"))
        #: The block's operations under immediate edits.
        self.reference = [self.sink]
        self.erased = []
        #: (inserted op, its anchor), in insertion order.
        self.inserts = []
        other = Graph("foreign")
        self.foreign = other.append(
            Operation("comb.constant", [], [(8, None)], {"value": 0}))

    # -- drawing ------------------------------------------------------------
    def draw(self, strategy, label):
        return self.data.draw(strategy, label=label)

    def values(self):
        return [*self.block.arguments,
                *(r for op in self.reference for r in op.results)]

    def comb_ops(self):
        return [op for op in self.reference if op is not self.sink]

    def pick(self, items, label):
        return items[self.draw(st.integers(0, len(items) - 1), label)]

    def new_op(self):
        values = self.values()
        count = self.draw(st.integers(0, 3), "operand count")
        operands = [self.pick(values, "operand") for _ in range(count)]
        return Operation("comb.add", operands, [(8, None)])

    # -- one random edit ----------------------------------------------------
    def step(self):
        kind = self.draw(st.sampled_from(STEPS), "step")
        ops = self.comb_ops()
        if kind == "append":
            op = self.new_op()
            self.block.append(op)
            self.reference.append(op)
        elif kind == "insert":
            anchor = self.pick(self.reference, "anchor")
            op = self.new_op()
            self.block.insert_before(anchor, op)
            self.reference.insert(self.reference.index(anchor), op)
            self.inserts.append((op, anchor))
        elif kind == "set_operand":
            users = [op for op in ops if op.operands]
            if users:
                op = self.pick(users, "user")
                index = self.draw(st.integers(0, len(op.operands) - 1),
                                  "slot")
                op.set_operand(index, self.pick(self.values(), "value"))
        elif kind == "append_operand" and ops:
            self.pick(ops, "user").append_operand(
                self.pick(self.values(), "value"))
        elif kind == "replace":
            values = self.values()
            old, new = (self.pick(values, "old"), self.pick(values, "new"))
            old.replace_all_uses_with(new)
            assert not old.uses or old is new
        elif kind == "erase":
            dead = [op for op in ops if not op.has_uses]
            if dead:
                op = self.pick(dead, "dead op")
                op.erase()
                self.reference.remove(op)
                self.erased.append(op)
                assert op.parent is None and not op.operands
        elif kind == "bad_insert":
            anchors = [self.foreign, *self.erased]
            op = self.new_op()
            with pytest.raises(IRError, match="not an operation of"):
                self.block.insert_before(self.pick(anchors, "bad anchor"), op)
            assert op.parent is None
            op.erase()              # gives its operands their uses back
        self.check_uses()

    # -- checks ---------------------------------------------------------------
    def check_uses(self):
        readers = collections.defaultdict(list)
        for op in self.reference:
            for value in op.operands:
                readers[value].append(op)
        for value in self.values():
            assert (collections.Counter(value.uses)
                    == collections.Counter(readers[value]))
        for op in self.reference:
            assert op.parent is self.block
        for op in self.erased:
            assert op.parent is None and not op.result.uses

    def check_settled(self):
        operations = self.block.operations
        assert operations == self.reference
        assert not any(op in operations for op in self.erased)
        position = {op: i for i, op in enumerate(operations)}
        for op, anchor in self.inserts:
            if op in position and anchor in position:
                assert position[op] < position[anchor]
        assert self.block.listener is None

    # -- phases ---------------------------------------------------------------
    def outside(self, steps):
        for _ in range(steps):
            self.step()
            self.check_settled()

    def drain(self, steps, raise_after):
        def rule(graph, op):
            assert graph.block.listener is not None
            for index in range(steps):
                if index == raise_after:
                    raise _RuleFailed
                self.step()
            return False

        if raise_after is None:
            assert apply_rules(self.graph, {"lil.sink": (rule,)}) == 0
        else:
            with pytest.raises(_RuleFailed):
                apply_rules(self.graph, {"lil.sink": (rule,)})
        self.check_uses()
        self.check_settled()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_edits_inside_and_outside_drains(data):
    model = EditModel(data)
    for _ in range(data.draw(st.integers(1, 4), label="phases")):
        steps = data.draw(st.integers(1, 12), label="steps")
        if data.draw(st.booleans(), label="in a drain"):
            raise_after = data.draw(
                st.one_of(st.none(), st.integers(0, steps - 1)),
                label="rule raises after")
            model.drain(steps, raise_after)
        else:
            model.outside(steps)


class TestDeferredEdits:
    def test_chain_of_inserts_before_inserted_ops(self):
        graph = Graph("g")
        sink = graph.append(Operation("lil.sink"))
        order = []

        def rule(graph, op):
            first = graph.block.insert_before(sink, Operation(
                "comb.constant", [], [(8, None)], {"value": 1}))
            second = graph.block.insert_before(first, Operation(
                "comb.constant", [], [(8, None)], {"value": 2}))
            third = graph.block.insert_before(sink, Operation(
                "comb.constant", [], [(8, None)], {"value": 3}))
            # Deferred: nothing has entered the list yet.
            assert graph.operations == [sink]
            order.extend([second, first, third, sink])
            return False

        apply_rules(graph, {"lil.sink": (rule,)})
        assert graph.operations == order

    def test_erased_op_is_a_tombstone_until_the_drain_ends(self):
        graph = Graph("g")
        dead = graph.append(Operation("comb.constant", [], [(8, None)],
                                      {"value": 1}))
        sink = graph.append(Operation("lil.sink"))

        def rule(graph, op):
            dead.erase()
            assert graph.operations == [dead, sink]
            assert dead.parent is None
            with pytest.raises(IRError):
                graph.block.insert_before(dead, Operation(
                    "comb.constant", [], [(8, None)], {"value": 2}))
            return False

        apply_rules(graph, {"lil.sink": (rule,)})
        assert graph.operations == [sink]

    def test_outside_a_drain_edits_are_immediate(self):
        graph = Graph("g")
        sink = graph.append(Operation("lil.sink"))
        op = graph.block.insert_before(sink, Operation(
            "comb.constant", [], [(8, None)], {"value": 1}))
        assert graph.operations == [op, sink]
        op.erase()
        assert graph.operations == [sink]

    def test_deferral_does_not_nest(self):
        graph = Graph("g")
        sink = graph.append(Operation("lil.sink"))
        with graph.block.deferred_edits():
            op = graph.block.insert_before(sink, Operation(
                "comb.constant", [], [(8, None)], {"value": 1}))
            with pytest.raises(IRError, match="already deferred"):
                with graph.block.deferred_edits():
                    pass
        assert graph.operations == [op, sink]
