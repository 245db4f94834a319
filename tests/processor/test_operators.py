"""Physical operator tests over compact tables."""

import pytest

from repro.ctables.assignments import Contain, Exact, value_text
from repro.ctables.ctable import Cell, CompactTable, CompactTuple
from repro.errors import EnumerationLimitError, EvaluationError, ExecutionFailure
from repro.processor.conditions import ComparisonCondition, PFunctionCondition, make_side
from repro.processor.context import ExecConfig, ExecutionContext
from repro.processor.library import make_similar
from repro.processor.operators import (
    ConditionSelect,
    ConstraintSelect,
    FromOp,
    JoinOp,
    PPredicateOp,
    ProjectOp,
    ScanExtensional,
    TableSource,
    UnionOp,
    apply_condition,
)
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.text.html_parser import parse_html
from repro.text.span import doc_span
from repro.xlog.program import PPredicate, Program


def make_context(docs=(), config=None):
    program = Program.parse("q(x) :- base(x).", extensional=["base"])
    return ExecutionContext(program, Corpus({"base": list(docs)}), config=config)


def table_of(attrs, *tuples):
    return TableSource(CompactTable(attrs, tuples))


def choice(*values):
    return Cell(tuple(Exact(v) for v in values))


class TestScanAndFrom:
    def test_scan(self):
        docs = [Document("a", "x"), Document("b", "y")]
        context = make_context(docs)
        table = ScanExtensional("base", "x").execute(context)
        assert len(table) == 2
        assert table.attrs == ("x",)

    def test_from_produces_expansion_of_contain(self):
        doc = parse_html("d", "<p>alpha beta</p>")
        context = make_context([doc])
        plan = FromOp(ScanExtensional("base", "x"), "x", "y")
        table = plan.execute(context)
        (t,) = table.tuples
        cell = t.cells[1]
        assert cell.is_expansion
        assert all(isinstance(a, Contain) for a in cell.assignments)

    def test_from_over_multiple_anchors(self):
        doc = parse_html("d", "<p><b>one</b> mid <b>two</b></p>")
        context = make_context([doc])
        src = table_of(
            ("s",),
            CompactTuple(
                [Cell([Contain(doc_span(doc).sub(s, e)) for s, e in doc.regions_of("bold")])]
            ),
        )
        table = FromOp(src, "s", "t").execute(context)
        assert len(table.tuples[0].cells[1].assignments) == 2


class TestConstraintSelect:
    def test_drops_empty_tuples(self):
        doc = parse_html("d", "<p>no numbers here</p>")
        context = make_context([doc])
        plan = ConstraintSelect(
            FromOp(ScanExtensional("base", "x"), "x", "p"), "p", "numeric", "yes"
        )
        assert len(plan.execute(context)) == 0

    def test_expansion_cell_not_maybe_marked(self):
        doc = parse_html("d", "<p>42 and words</p>")
        context = make_context([doc])
        plan = ConstraintSelect(
            FromOp(ScanExtensional("base", "x"), "x", "p"), "p", "numeric", "yes"
        )
        table = plan.execute(context)
        assert not table.tuples[0].maybe

    def test_choice_cell_maybe_marked_on_change(self):
        doc = Document("d", "42 abc")
        context = make_context()
        span42 = doc_span(doc).sub(0, 2)
        word = doc_span(doc).sub(3, 6)
        src = table_of(("p",), CompactTuple([Cell((Exact(span42), Exact(word)))]))
        table = ConstraintSelect(src, "p", "numeric", "yes").execute(context)
        (t,) = table.tuples
        assert t.maybe
        assert len(t.cells[0].assignments) == 1


class TestConditionSelect:
    def test_filter_and_maybe(self):
        context = make_context()
        src = table_of(("p",), CompactTuple([choice(50, 200)]))
        cond = ComparisonCondition(make_side(attr="p"), ">", make_side(const=100))
        table = ConditionSelect(src, cond).execute(context)
        (t,) = table.tuples
        assert t.maybe
        assert [a.value for a in t.cells[0].assignments] == [200]

    def test_all_satisfy_no_maybe(self):
        context = make_context()
        src = table_of(("p",), CompactTuple([choice(200, 300)]))
        cond = ComparisonCondition(make_side(attr="p"), ">", make_side(const=100))
        table = ConditionSelect(src, cond).execute(context)
        assert not table.tuples[0].maybe

    def test_single_attr_expansion_filter_stays_certain(self):
        context = make_context()
        src = table_of(
            ("p",),
            CompactTuple([Cell((Exact(50), Exact(200)), is_expansion=True)]),
        )
        cond = ComparisonCondition(make_side(attr="p"), ">", make_side(const=100))
        table = ConditionSelect(src, cond).execute(context)
        (t,) = table.tuples
        assert not t.maybe
        assert len(t.cells[0].assignments) == 1

    def test_drop_when_none_satisfy(self):
        context = make_context()
        src = table_of(("p",), CompactTuple([choice(1)]))
        cond = ComparisonCondition(make_side(attr="p"), ">", make_side(const=100))
        assert len(ConditionSelect(src, cond).execute(context)) == 0


class TestJoin:
    def test_cross_join(self):
        context = make_context()
        left = table_of(("a",), CompactTuple([choice(1)]), CompactTuple([choice(2)]))
        right = table_of(("b",), CompactTuple([choice(3)]))
        table = JoinOp(left, right).execute(context)
        assert len(table) == 2
        assert table.attrs == ("a", "b")

    def test_join_condition_filters_pairs(self):
        context = make_context()
        left = table_of(("a",), CompactTuple([choice(1)]), CompactTuple([choice(5)]))
        right = table_of(("b",), CompactTuple([choice(3)]))
        cond = ComparisonCondition(make_side(attr="a"), ">", make_side(attr="b"))
        table = JoinOp(left, right, [cond]).execute(context)
        assert len(table) == 1

    def test_maybe_propagates_from_inputs(self):
        context = make_context()
        left = table_of(("a",), CompactTuple([choice(1)], maybe=True))
        right = table_of(("b",), CompactTuple([choice(2)]))
        table = JoinOp(left, right).execute(context)
        assert table.tuples[0].maybe

    def test_overlapping_attrs_rejected(self):
        left = table_of(("a",), CompactTuple([choice(1)]))
        right = table_of(("a",), CompactTuple([choice(2)]))
        with pytest.raises(EvaluationError):
            JoinOp(left, right)

    def test_blocking_join_equivalent_to_nested_loop(self):
        def titles(prefix, *texts):
            tuples = []
            for i, text in enumerate(texts):
                doc = Document("%s%d" % (prefix, i), text)
                tuples.append(CompactTuple([choice(doc_span(doc))]))
            return tuples

        cond = PFunctionCondition(
            "similar",
            make_similar(0.5),
            [make_side(attr="a"), make_side(attr="b")],
        )
        left = table_of(("a",), *titles("L", "Silent River", "Crimson Empire", "Lone Star"))
        right = table_of(("b",), *titles("R", "Silent River", "Empire Crimson", "Nothing Alike"))

        blocked = JoinOp(left, right, [cond]).execute(
            make_context(config=ExecConfig(blocking_joins=True))
        )
        nested = JoinOp(left, right, [cond]).execute(
            make_context(config=ExecConfig(blocking_joins=False))
        )

        def keys(table):
            return sorted(
                (value_text(t.cells[0].assignments[0].value), value_text(t.cells[1].assignments[0].value))
                for t in table
            )

        assert keys(blocked) == keys(nested)
        assert len(blocked) == 2

    def test_condition_reads_the_cell_an_earlier_condition_filtered(self):
        # ``a < b`` cuts a's cell differently for each right tuple; the
        # second condition must read the cut cell, not a summary of the
        # uncut one remembered from an earlier pair
        left = table_of(("a",), CompactTuple([choice(1, 5, 9)]))
        right = table_of(("b",), CompactTuple([choice(4)]), CompactTuple([choice(10)]))
        conditions = [
            ComparisonCondition(make_side(attr="a"), "<", make_side(attr="b")),
            ComparisonCondition(make_side(attr="a"), ">", make_side(const=2)),
        ]
        context = make_context()
        table = JoinOp(left, right, conditions).execute(context)
        assert [
            ([a.value for a in t.cells[0].assignments], t.cells[1].assignments[0].value, t.maybe)
            for t in table
        ] == [([5, 9], 10, True)]
        # the same as evaluating every pair from scratch
        reference_context = make_context()
        reference = []
        for lt in left.table:
            for rt in right.table:
                combined = CompactTuple(lt.cells + rt.cells)
                for condition in conditions:
                    combined = apply_condition(
                        combined, ("a", "b"), condition, reference_context
                    )
                    if combined is None:
                        break
                if combined is not None:
                    reference.append(repr(combined))
        assert [repr(t) for t in table] == reference
        assert (context.stats.values_enumerated, context.stats.cap_hits) == (
            reference_context.stats.values_enumerated,
            reference_context.stats.cap_hits,
        )

    def test_faulting_pfunction_trips_on_the_same_combo(self):
        docs = [Document("L%d" % i, "left %d" % i) for i in range(3)]
        docs += [Document("R%d" % i, "right %d" % i) for i in range(2)]
        spans = {d.doc_id: doc_span(d) for d in docs}
        calls = []

        def flaky(a, b):
            calls.append((a.doc.doc_id, b.doc.doc_id))
            if (a.doc.doc_id, b.doc.doc_id) == ("L1", "R1"):
                raise RuntimeError("boom")
            return True

        left = table_of(("a",), *(CompactTuple([choice(spans["L%d" % i])]) for i in range(3)))
        right = table_of(("b",), *(CompactTuple([choice(spans["R%d" % i])]) for i in range(2)))
        condition = PFunctionCondition(
            "flaky", flaky, [make_side(attr="a"), make_side(attr="b")]
        )
        with pytest.raises(ExecutionFailure) as excinfo:
            JoinOp(left, right, [condition]).execute(make_context(docs))
        failure = excinfo.value
        assert (failure.doc_id, failure.operator, failure.predicate) == (
            "L1", "p-function", "flaky"
        )
        assert failure.exc_type == "RuntimeError"
        # left-major nested loop, stopping at the faulting pair
        assert calls == [("L0", "R0"), ("L0", "R1"), ("L1", "R0"), ("L1", "R1")]


class TestProjectUnion:
    def test_project_reorders(self):
        context = make_context()
        src = table_of(("a", "b"), CompactTuple([choice(1), choice(2)]))
        table = ProjectOp(src, ["b", "a"]).execute(context)
        assert table.attrs == ("b", "a")
        assert table.tuples[0].cells[0].assignments[0].value == 2

    def test_union(self):
        context = make_context()
        a = table_of(("x",), CompactTuple([choice(1)]))
        b = table_of(("x",), CompactTuple([choice(2)]))
        assert len(UnionOp([a, b]).execute(context)) == 2

    def test_union_arity_mismatch(self):
        a = table_of(("x",), CompactTuple([choice(1)]))
        b = table_of(("y", "z"), CompactTuple([choice(2), choice(3)]))
        with pytest.raises(EvaluationError):
            UnionOp([a, b])

    def test_union_aligns_positionally(self):
        context = make_context()
        a = table_of(("x",), CompactTuple([choice(1)]))
        b = table_of(("y",), CompactTuple([choice(2)]))
        table = UnionOp([a, b]).execute(context)
        assert len(table) == 2
        assert table.attrs == ("x",)


class TestPPredicateOp:
    def spec(self, func, n_out=1):
        return PPredicate("proc", func, 1, n_out)

    def test_invocation_per_value(self):
        context = make_context()
        calls = []

        def proc(v):
            calls.append(v)
            return [(v * 10,)]

        src = table_of(("a",), CompactTuple([Cell((Exact(1), Exact(2)), is_expansion=True)]))
        table = PPredicateOp(src, "proc", self.spec(proc), ["a"], ["b"]).execute(context)
        assert sorted(calls) == [1, 2]
        assert len(table) == 2
        assert not table.tuples[0].maybe  # expansion input: certain

    def test_choice_input_marks_maybe(self):
        context = make_context()
        src = table_of(("a",), CompactTuple([choice(1, 2)]))
        table = PPredicateOp(
            src, "proc", self.spec(lambda v: [(v,)]), ["a"], ["b"]
        ).execute(context)
        assert all(t.maybe for t in table)

    def test_empty_output_drops_tuple(self):
        context = make_context()
        src = table_of(("a",), CompactTuple([choice(1)]))
        table = PPredicateOp(
            src, "proc", self.spec(lambda v: []), ["a"], ["b"]
        ).execute(context)
        assert len(table) == 0

    def test_non_input_expansion_passes_through(self):
        doc = Document("d", "a b c d e f g h i j")
        context = make_context()
        wide = Cell.expansion([Contain(doc_span(doc))])
        src = table_of(("k", "w"), CompactTuple([choice(1), wide]))
        table = PPredicateOp(
            src, "proc", self.spec(lambda v: [(v,)]), ["k"], ["out"]
        ).execute(context)
        (t,) = table.tuples
        assert t.cells[1] == wide  # untouched

    def test_cap_enforced(self):
        context = make_context(config=ExecConfig(ppredicate_cap=2))
        src = table_of(("a",), CompactTuple([choice(1, 2, 3)]))
        with pytest.raises(EnumerationLimitError):
            PPredicateOp(
                src, "proc", self.spec(lambda v: [(v,)]), ["a"], ["b"]
            ).execute(context)

    def test_cap_enforced_for_wide_expansion_input(self):
        # an unconstrained contain family on an *input* attribute must
        # hit the cap instead of materialising every sub-span
        doc = Document("d", "a b c d e f g h i j")
        context = make_context(config=ExecConfig(ppredicate_cap=10))
        wide = Cell.expansion([Contain(doc_span(doc))])
        src = table_of(("a",), CompactTuple([wide]))
        with pytest.raises(EnumerationLimitError, match="too wide"):
            PPredicateOp(
                src, "proc", self.spec(lambda v: [(v,)]), ["a"], ["b"]
            ).execute(context)

    def test_cap_allows_exactly_cap_values(self):
        # the cap is inclusive: exactly ``cap`` combinations execute
        context = make_context(config=ExecConfig(ppredicate_cap=3))
        src = table_of(("a",), CompactTuple([choice(1, 2, 3)]))
        table = PPredicateOp(
            src, "proc", self.spec(lambda v: [(v,)]), ["a"], ["b"]
        ).execute(context)
        assert len(table) == 3
        assert context.stats.ppredicate_calls == 3
