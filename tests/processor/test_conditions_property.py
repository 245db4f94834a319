"""Property: condition evaluation agrees with brute force.

For cells made of ``exact`` assignments the three-valued result is
fully determined: ``some`` iff a satisfying combination exists, ``all``
iff every combination satisfies, and the filtered cells keep exactly
the values participating in satisfying combinations.  A differential
suite checks the summary path against the pairwise oracle on mixed
cells (scalars, spans, ``contain`` families, nulls, offsets) and caps.
"""

import itertools
import math
import re

from hypothesis import given, settings, strategies as st

from repro.ctables.assignments import Contain, Exact, value_key, value_number
from repro.ctables.ctable import Cell
from repro.processor.conditions import (
    ComparisonCondition,
    ConditionResult,
    PFunctionCondition,
    SummaryMemo,
    make_side,
)
from repro.processor.context import ExecConfig, ExecutionContext
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.text.span import Span
from repro.text.tokenize import NUMBER
from repro.xlog.comparisons import comparison_holds
from repro.xlog.program import Program


def make_context():
    program = Program.parse("q(x) :- base(x).", extensional=["base"])
    return ExecutionContext(program, Corpus({"base": []}))


_values = st.lists(st.integers(-5, 15), min_size=1, max_size=4, unique=True)
_ops = st.sampled_from(["<", "<=", ">", ">=", "=", "!="])


@settings(max_examples=150, deadline=None)
@given(_values, _values, _ops)
def test_attr_attr_agrees_with_brute_force(left_values, right_values, op):
    cells = {
        "a": Cell(tuple(Exact(v) for v in left_values)),
        "b": Cell(tuple(Exact(v) for v in right_values)),
    }
    condition = ComparisonCondition(make_side(attr="a"), op, make_side(attr="b"))
    result = condition.evaluate(cells, make_context())

    combos = [(l, r) for l in left_values for r in right_values]
    sat = [(l, r) for l, r in combos if comparison_holds(l, op, r)]
    assert result.some == bool(sat)
    assert result.all == (len(sat) == len(combos) and bool(sat))
    if sat:
        expected_left = {value_key(l) for l, _ in sat}
        kept = {value_key(a.value) for a in result.filtered["a"].assignments}
        assert kept == expected_left


@settings(max_examples=150, deadline=None)
@given(_values, st.integers(-5, 15), _ops, st.integers(-3, 3))
def test_attr_const_with_offset(values, const, op, offset):
    cells = {"a": Cell(tuple(Exact(v) for v in values))}
    condition = ComparisonCondition(
        make_side(attr="a", offset=offset), op, make_side(const=const)
    )
    result = condition.evaluate(cells, make_context())
    sat = [v for v in values if comparison_holds(v + offset, op, const)]
    assert result.some == bool(sat)
    assert result.all == (len(sat) == len(values) and bool(sat))
    if sat:
        kept = {a.value for a in result.filtered["a"].assignments}
        assert kept == set(sat)


# ----------------------------------------------------------------------
# differential: summaries + combine against the pairwise oracle
# ----------------------------------------------------------------------
#
# The oracle is the straightforward evaluation the summary path replaced:
# enumerate each side, then test every value pair with
# ``comparison_holds``.  It is kept here, not in ``src``, as the
# reference the production path must agree with field for field.

_ORDERING_OPS = ("<", "<=", ">", ">=")


def _oracle_effective(value, offset):
    if not offset:
        return value
    number = value_number(value)
    return None if number is None else number + offset


def _oracle_numeric(assignment):
    if isinstance(assignment, Exact):
        return [assignment.value]
    span = assignment.span
    return [Span(span.doc, t.start, t.end) for t in span.tokens if t.kind == NUMBER]


def _oracle_occurrences(assignment, text):
    if isinstance(assignment, Exact):
        return [assignment.value]
    span = assignment.span
    return [
        Span(span.doc, span.start + m.start(), span.start + m.end())
        for m in re.finditer(re.escape(text), span.text)
    ]


def _oracle_dedup(values):
    return list({value_key(v): v for v in values}.values())


def _oracle_enumerate(cell, context, op, other_const):
    has_contain = any(isinstance(a, Contain) for a in cell.assignments)
    if has_contain and op in _ORDERING_OPS:
        values = [v for a in cell.assignments for v in _oracle_numeric(a)]
        context.stats.values_enumerated += len(values)
        return _oracle_dedup(values), True, False
    if has_contain and op == "=" and other_const is not None:
        text = other_const.text if isinstance(other_const, Span) else str(other_const)
        values = []
        for a in cell.assignments:
            values.extend(_oracle_occurrences(a, text))
            if value_number(other_const) is not None:
                values.extend(_oracle_numeric(a))
        context.stats.values_enumerated += len(values)
        return _oracle_dedup(values), True, False
    values, full = cell.enumerate_values(context.config.enum_cap)
    context.stats.values_enumerated += len(values)
    if not full:
        context.stats.cap_hits += 1
    return values, full, full


def _oracle_too_wide(condition, cells, context):
    product = 1
    for side, other in ((condition.left, condition.right), (condition.right, condition.left)):
        if side.is_const:
            continue
        cell = cells[side.attr]
        has_contain = any(isinstance(a, Contain) for a in cell.assignments)
        if has_contain and (
            condition.op in _ORDERING_OPS or (condition.op == "=" and other.is_const)
        ):
            product *= max(
                1,
                sum(
                    len(a.anchor_span.tokens) if isinstance(a, Contain) else 1
                    for a in cell.assignments
                ),
            )
        else:
            product *= max(1, cell.value_count())
    return product > context.config.pair_cap


def _oracle_filtered(sides, sats, cells):
    filtered = {}
    for side, sat in zip(sides, sats):
        if side.is_const:
            continue
        cell = cells[side.attr]
        if all(isinstance(a, Exact) for a in cell.assignments):
            filtered[side.attr] = cell.with_assignments(
                [a for a in cell.assignments if value_key(a.value) in sat]
            )
    return filtered


def pairwise_oracle(condition, cells, context):
    capped = ConditionResult(some=True, all=False, filtered={}, capped=True)
    if _oracle_too_wide(condition, cells, context):
        context.stats.cap_hits += 1
        return capped
    sides = []
    for side, other in ((condition.left, condition.right), (condition.right, condition.left)):
        if side.is_const:
            sides.append(([side.const], True, True))
        else:
            other_const = other.const if other.is_const else None
            sides.append(_oracle_enumerate(cells[side.attr], context, condition.op, other_const))
    if not (sides[0][1] and sides[1][1]):
        return capped
    left_values, right_values = sides[0][0], sides[1][0]
    if len(left_values) * len(right_values) > context.config.pair_cap:
        context.stats.cap_hits += 1
        return capped
    left_offset = 0 if condition.left.is_const else condition.left.offset
    right_offset = 0 if condition.right.is_const else condition.right.offset
    sat_left, sat_right = set(), set()
    some, every = False, bool(left_values) and bool(right_values)
    for lv, rv in itertools.product(left_values, right_values):
        if comparison_holds(
            _oracle_effective(lv, left_offset), condition.op,
            _oracle_effective(rv, right_offset),
        ):
            some = True
            sat_left.add(value_key(lv))
            sat_right.add(value_key(rv))
        else:
            every = False
    filtered = (
        _oracle_filtered((condition.left, condition.right), (sat_left, sat_right), cells)
        if some else {}
    )
    return ConditionResult(
        some=some, all=some and every and sides[0][2] and sides[1][2],
        filtered=filtered, capped=False,
    )


_DOC = Document("dq", "price 1,000 and $5 or nan inf x 42 7.5 True -3 1000")


def _token_span(index):
    tokens = _DOC.tokens
    token = tokens[index % len(tokens)]
    return Span(_DOC, token.start, token.end)


_scalars = st.one_of(
    st.integers(-3, 1000),
    st.sampled_from([0.5, 7.5, 1000.0, math.inf, -math.inf, math.nan, -0.0]),
    st.sampled_from(["1,000", "$5", "nan", "x", "x ", "5", "7.5", "True", "None", "inf", ""]),
    st.booleans(),
    st.none(),
)
_exact_values = st.one_of(_scalars, st.integers(0, 40).map(_token_span))


@st.composite
def _cells(draw):
    if draw(st.integers(0, 4)) == 0:
        start = draw(st.integers(0, len(_DOC.tokens) - 1))
        length = draw(st.integers(1, 5))
        tokens = _DOC.tokens[start : start + length]
        assignments = [Contain(Span(_DOC, tokens[0].start, tokens[-1].end))]
        if draw(st.booleans()):
            assignments.append(Exact(draw(_exact_values)))
    else:
        # a multiset: duplicate values are allowed
        assignments = [Exact(v) for v in draw(st.lists(_exact_values, min_size=0, max_size=5))]
    return Cell(tuple(assignments), is_expansion=draw(st.booleans()))


_offsets = st.sampled_from([0, 0, 1, -2, 0.5])


@st.composite
def _comparisons(draw):
    op = draw(_ops)
    left_const, right_const = draw(st.sampled_from([(False, False), (False, True), (True, False)]))
    cells = {}

    def side(attr, const):
        if const:
            return make_side(const=draw(_exact_values))
        cells[attr] = draw(_cells())
        return make_side(attr=attr, offset=draw(_offsets))

    condition = ComparisonCondition(side("a", left_const), op, side("b", right_const))
    return condition, cells


def _kept(result):
    return {
        attr: (cell.is_expansion, sorted(map(repr, (value_key(a.value) for a in cell.assignments))))
        for attr, cell in result.filtered.items()
    }


def _counters(context):
    return (context.stats.values_enumerated, context.stats.cap_hits)


def _capped_context(draw):
    config = ExecConfig(
        pair_cap=draw(st.sampled_from([2, 6, 1000])),
        enum_cap=draw(st.sampled_from([3, 2000])),
    )
    program = Program.parse("q(x) :- base(x).", extensional=["base"])
    return ExecutionContext(program, Corpus({"base": []}), config=config)


@settings(max_examples=400, deadline=None)
@given(_comparisons(), st.data())
def test_comparison_summaries_match_pairwise_oracle(case, data):
    condition, cells = case
    oracle_context = _capped_context(data.draw)
    context = ExecutionContext(
        oracle_context.program, oracle_context.corpus, config=oracle_context.config
    )
    expected = pairwise_oracle(condition, cells, oracle_context)
    memo = SummaryMemo(cells.values())
    # evaluated twice through one memo: the second use must replay the
    # same counter deltas from the stored summaries
    for round_ in (1, 2):
        result = condition.evaluate(cells, context, memo)
        assert (result.some, result.all, result.capped) == (
            expected.some, expected.all, expected.capped
        )
        assert _kept(result) == _kept(expected)
        assert _counters(context) == tuple(round_ * n for n in _counters(oracle_context))


def _recording(name, accept):
    calls = []

    def func(*args):
        calls.append(tuple(value_key(a) for a in args))
        return accept(*args)

    return PFunctionCondition(name, func, [make_side(attr="a"), make_side(attr="b")]), calls


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_exact_values, min_size=0, max_size=4),
    st.lists(_exact_values, min_size=0, max_size=4),
    st.integers(0, 3),
)
def test_pfunction_calls_every_combo_in_product_order(left, right, modulus):
    def accept(a, b):
        return (len(repr(value_key(a))) + len(repr(value_key(b)))) % (modulus + 1) == 0

    cells = {"a": Cell(tuple(Exact(v) for v in left)), "b": Cell(tuple(Exact(v) for v in right))}
    condition, calls = _recording("f", accept)
    result = condition.evaluate(cells, make_context())
    left_values, _ = cells["a"].enumerate_values()
    right_values, _ = cells["b"].enumerate_values()
    combos = list(itertools.product(left_values, right_values))
    assert calls == [(value_key(a), value_key(b)) for a, b in combos]
    sat = [(a, b) for a, b in combos if accept(a, b)]
    assert result.some == bool(sat)
    assert result.all == (bool(sat) and len(sat) == len(combos))
    if sat:
        assert {value_key(a.value) for a in result.filtered["a"].assignments} == {
            value_key(a) for a, _ in sat
        }


def test_nan_equals_nothing_even_itself():
    # one NaN object on both sides: a dict keyed by the number would
    # match it by identity, but comparison_holds says NaN != NaN
    cells = {"a": Cell((Exact(math.nan), Exact(1))), "b": Cell((Exact(math.nan),))}
    for op, some, all_ in (("=", False, False), ("!=", True, True)):
        condition = ComparisonCondition(make_side(attr="a"), op, make_side(attr="b"))
        expected = pairwise_oracle(condition, cells, make_context())
        result = condition.evaluate(cells, make_context())
        assert (result.some, result.all) == (expected.some, expected.all) == (some, all_)
        assert _kept(result) == _kept(expected)


def test_memo_stores_only_its_own_cells():
    memoised = Cell((Exact(1), Exact(2)))
    other = Cell((Exact(3),))
    condition = ComparisonCondition(make_side(attr="a"), "<", make_side(attr="b"))
    memo = SummaryMemo([memoised])
    first = condition.evaluate({"a": memoised, "b": other}, make_context(), memo)
    second = condition.evaluate({"a": memoised, "b": other}, make_context(), memo)
    assert (first.some, first.all) == (second.some, second.all) == (True, True)
    # one entry: the memoised cell's side; the other cell is rebuilt
    assert len(memo) == 1
