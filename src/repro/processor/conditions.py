"""Three-valued evaluation of selection/join conditions over cells.

A condition over a compact tuple can hold for *some* of the possible
tuples, for *all* of them, or for none (section 4.1).  Operators use
the triple ``(some, all, filtered-cells)`` as follows:

* ``not some``  → drop the tuple;
* ``filtered``  → tighten involved cells to the satisfying values
  (possible only when the cell is made of ``exact`` assignments);
* ``not all``   → keep, but the tuple must be flagged maybe **unless**
  the condition involves a single attribute whose cell is an expansion
  cell that was fully filtered (each surviving value is its own,
  certain, tuple).  Claiming certainty anywhere else would remove
  worlds and break the superset guarantee (see DESIGN.md).

Evaluation runs in two steps.  First each side of the condition is
*summarised*: the summary of one cell holds everything the condition
reads from it — its pair-cap factor, its enumerated values with the
``complete``/``exhaustive`` flags and the counter deltas the
enumeration cost, and per value what the operator family compares.
Then one *combine* step per operator family decides the condition from
the two summaries:

* ordering (``< <= > >=``): each value's effective number (offset
  applied; nulls, non-numbers and NaN never satisfy) is tested against
  the other side's min or max, so ``some``, ``all`` and the satisfying
  sets cost linear time;
* ``=`` / ``!=``: :func:`~repro.xlog.comparisons.comparison_holds`
  runs on every pair of the two sides' effective values, which the
  summaries hold already enumerated and offset;
* p-functions: the function runs on every value combination, in
  :func:`itertools.product` order.

Enumeration of ``contain`` assignments is avoided whenever the
condition shape allows: ordering comparisons only ever hold for
numeric values, and equality against a constant only for occurrences
of that constant — both enumerable in linear time.  Every other shape
enumerates up to ``enum_cap`` values and degrades to keep-as-maybe
beyond it, as does any pair of sides whose value product exceeds
``pair_cap``.

Summaries are built inside ``evaluate``.  A caller that evaluates the
same cells many times (a join pairs each left tuple with many right
tuples) passes a :class:`SummaryMemo` over those cells, so each is
summarised at most once per condition side; any other cell (one an
earlier condition filtered, read once) is summarised afresh and not
stored.  A summary replays its counter deltas on every use, so
``values_enumerated`` and ``cap_hits`` count per evaluation exactly as
if the cell had been enumerated again.
"""

import itertools
import operator
import re
from dataclasses import dataclass

from repro.ctables.assignments import Contain, Exact, value_key, value_number, value_text
from repro.errors import ExecutionFailure
from repro.text.span import Span
from repro.text.tokenize import NUMBER
from repro.xlog.comparisons import comparison_holds

__all__ = ["ComparisonCondition", "PFunctionCondition", "ConditionResult", "SummaryMemo"]

_ORDERING = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass
class ConditionResult:
    some: bool
    all: bool
    #: attr -> replacement Cell, only for cells that were *fully*
    #: filtered to exactly the satisfying values
    filtered: dict
    #: True when an enumeration cap was hit (forces conservative maybe)
    capped: bool = False


def _capped_result():
    return ConditionResult(some=True, all=False, filtered={}, capped=True)


class _Side:
    """One side of a condition: a constant, or an attribute with an

    optional numeric offset (``firstPage + 5``).
    """

    def __init__(self, attr=None, const=None, offset=0):
        self.attr = attr
        self.const = const
        self.offset = offset

    @property
    def is_const(self):
        return self.attr is None


def _effective(value, offset):
    """Apply a side's numeric offset; non-numeric values become null."""
    if not offset:
        return value
    number = value_number(value)
    return None if number is None else number + offset


def _numeric_candidates(assignment):
    """Values of an assignment that can satisfy a numeric comparison."""
    if isinstance(assignment, Exact):
        return [assignment.value]
    spans = []
    for token in assignment.span.tokens:
        if token.kind == NUMBER:
            spans.append(Span(assignment.span.doc, token.start, token.end))
    return spans


def _occurrence_candidates(assignment, text):
    """Sub-span values of an assignment whose text equals ``text``."""
    if isinstance(assignment, Exact):
        return [assignment.value]
    span = assignment.span
    out = []
    for match in re.finditer(re.escape(text), span.text):
        out.append(Span(span.doc, span.start + match.start(), span.start + match.end()))
    return out


def _dedup(values):
    return list({value_key(v): v for v in values}.values())


def _filter_sides(sides, summaries, sat_per_side):
    """The ``filtered`` map: each attribute side made of ``exact``
    assignments, cut to its satisfying values."""
    filtered = {}
    for side, summary, sat in zip(sides, summaries, sat_per_side):
        if not side.is_const:
            cell = summary.filtered(sat)
            if cell is not None:
                filtered[side.attr] = cell
    return filtered


class SummaryMemo:
    """Condition summaries of a fixed set of cells, for one operator
    execution.

    Only the cells given here are memoised, keyed by condition, side and
    the cell's ``id``; any other cell is summarised afresh on every use
    and never stored, so the memo stays as large as its input.  The memo
    holds the cells themselves, so while it lives no other object can
    take one of their ids.
    """

    def __init__(self, cells):
        self._cells = {id(cell): cell for cell in cells}
        self._summaries = {}

    def __len__(self):
        """How many summaries are stored."""
        return len(self._summaries)

    def summary(self, owner, index, cell, build, *args):
        """``build(*args)``, the summary of side ``index`` of condition
        ``owner`` over ``cell``; built once per memoised cell."""
        if id(cell) not in self._cells:
            return build(*args)
        key = (id(owner), index, id(cell))
        entry = self._summaries.get(key)
        if entry is None:
            entry = self._summaries[key] = build(*args)
        return entry


def _memoised(memo, owner, index, cell, build, *args):
    """``build(*args)``, through ``memo`` when there is one."""
    if memo is None:
        return build(*args)
    return memo.summary(owner, index, cell, build, *args)


class _Summary:
    """What a condition reads from one side's cell (see module docstring).

    ``cell`` is ``None`` for a constant side.  The enumeration —
    ``values`` with ``complete``/``exhaustive`` and the ``enumerated`` /
    ``cap_hit`` counter deltas it cost — is made on first use and its
    deltas are replayed into the stats on every use.
    """

    def __init__(self, cell):
        self.cell = cell
        self.has_contain = cell is not None and any(
            isinstance(a, Contain) for a in cell.assignments
        )
        self.values = None
        self.complete = self.exhaustive = True
        self.enumerated = self.cap_hit = 0

    def filtered(self, keep):
        """The cell cut to the values whose key is in ``keep`` (the cell
        itself when nothing is cut); ``None`` unless every assignment is
        ``exact``.  An all-``exact`` cell enumerates to exactly its
        distinct values, so ``keep`` covers them iff it is as large."""
        if self.has_contain:
            return None
        if len(keep) == len(self.values):
            return self.cell
        return self.cell.with_assignments(
            [a for a in self.cell.assignments if value_key(a.value) in keep]
        )

    def _set_values(self, values, complete, exhaustive, enumerated, cap_hit):
        self.values = values
        self.complete = complete
        self.exhaustive = exhaustive
        self.enumerated = enumerated
        self.cap_hit = cap_hit

    def _enumerate_cell(self, enum_cap):
        values, full = self.cell.enumerate_values(enum_cap)
        self._set_values(values, full, full, len(values), 0 if full else 1)

    def replay(self, stats):
        stats.values_enumerated += self.enumerated
        stats.cap_hits += self.cap_hit


class _ComparisonSummary(_Summary):
    """One side of a comparison: pair-cap factor, values, and per value
    the effective value and, for ordering, the effective number."""

    def __init__(self, op, side, other, cell):
        super().__init__(cell)
        self.op = op
        self.offset = 0 if side.is_const else side.offset
        self._effective = self._ordering = None
        if side.is_const:
            self.factor = 1
            self._set_values([side.const], True, True, 0, 0)
            return
        self.other_const = other.const if other.is_const else None
        if not self.has_contain:
            self.factor = max(1, len(cell.assignments))  # one value per exact
        elif self.op in _ORDERING or (self.op == "=" and other.is_const):
            # the linear (numeric / occurrence) shapes are bound by tokens
            self.factor = max(
                1,
                sum(
                    len(a.anchor_span.tokens) if isinstance(a, Contain) else 1
                    for a in cell.assignments
                ),
            )
        else:
            self.factor = max(1, cell.value_count())

    def enumerate(self, enum_cap):
        """Enumerate once: ``complete`` means every *possibly satisfying*
        value is included; ``exhaustive`` means every possible value of
        the cell is (needed to conclude ``all``)."""
        if self.values is not None:
            return
        cell, op, other_const = self.cell, self.op, self.other_const
        if self.has_contain and op in _ORDERING:
            values = []
            for a in cell.assignments:
                values.extend(_numeric_candidates(a))
            self._set_values(_dedup(values), True, False, len(values), 0)
        elif self.has_contain and op == "=" and other_const is not None:
            values = []
            text = value_text(other_const)
            numeric_const = value_number(other_const) is not None
            for a in cell.assignments:
                values.extend(_occurrence_candidates(a, text))
                # a numeric constant may also match differently-formatted
                # numbers ("500,000"); add numeric candidates to be safe
                if numeric_const:
                    values.extend(_numeric_candidates(a))
            self._set_values(_dedup(values), True, False, len(values), 0)
        else:
            self._enumerate_cell(enum_cap)

    def effective(self):
        """Per value its key and its effective value (offset applied)."""
        if self._effective is None:
            self._effective = [(value_key(v), _effective(v, self.offset)) for v in self.values]
        return self._effective

    def ordering(self):
        """``(numbers, lo, hi, all_numeric)``: per value its key and
        effective number (``None`` when it never satisfies an ordering),
        min and max over the numbers, and whether every value has one."""
        if self._ordering is None:
            numbers, present = [], []
            for key, value in self.effective():
                number = None if value is None else value_number(value)
                if number is not None and number == number:  # not NaN
                    present.append(number)
                else:
                    number = None
                numbers.append((key, number))
            self._ordering = (
                numbers,
                min(present) if present else None,
                max(present) if present else None,
                len(present) == len(numbers),
            )
        return self._ordering


def _combine_ordering(op, left, right):
    """``(some, every pair holds, left sat keys, right sat keys)``."""
    holds = _ORDERING[op]
    left_numbers, left_lo, left_hi, left_all = left.ordering()
    right_numbers, right_lo, right_hi, right_all = right.ordering()
    if left_lo is None or right_lo is None:
        return False, False, set(), set()
    if op in ("<", "<="):
        left_bound, right_bound = right_hi, left_lo
        every = holds(left_hi, right_lo)
    else:
        left_bound, right_bound = right_lo, left_hi
        every = holds(left_lo, right_hi)
    sat_left = {k for k, n in left_numbers if n is not None and holds(n, left_bound)}
    sat_right = {k for k, n in right_numbers if n is not None and holds(right_bound, n)}
    return bool(sat_left), every and left_all and right_all, sat_left, sat_right


def _combine_pairwise(op, left, right):
    """``(some, every pair holds, left sat keys, right sat keys)``."""
    sat_left, sat_right = set(), set()
    every = True
    right_values = right.effective()
    for left_key, left_value in left.effective():
        for right_key, right_value in right_values:
            if comparison_holds(left_value, op, right_value):
                sat_left.add(left_key)
                sat_right.add(right_key)
            else:
                every = False
    return bool(sat_left), every, sat_left, sat_right


class ComparisonCondition:
    """``left op right`` where each side is an attribute or constant."""

    def __init__(self, left, op, right):
        self.left = left
        self.op = op
        self.right = right

    @property
    def involved(self):
        return tuple(s.attr for s in (self.left, self.right) if not s.is_const)

    def __repr__(self):
        def show(side):
            return side.attr if not side.is_const else repr(side.const)

        return "%s %s %s" % (show(self.left), self.op, show(self.right))

    def _summaries(self, cells_by_attr, memo):
        out = []
        for index, (side, other) in enumerate(
            ((self.left, self.right), (self.right, self.left))
        ):
            cell = None if side.is_const else cells_by_attr[side.attr]
            out.append(
                _memoised(
                    memo, self, index, cell, _ComparisonSummary, self.op, side, other, cell
                )
            )
        return out

    def evaluate(self, cells_by_attr, context, memo=None):
        """The :class:`ConditionResult` over one tuple's cells.

        ``memo`` is a :class:`SummaryMemo` the caller owns for one
        operator execution; a memoised cell is summarised only once.
        """
        left, right = self._summaries(cells_by_attr, memo)
        stats = context.stats
        config = context.config
        # cheap pre-check from value_count bounds, so no values are
        # materialised on the (common, early-iteration) conservative path
        if left.factor * right.factor > config.pair_cap:
            stats.cap_hits += 1
            return _capped_result()
        for summary in (left, right):
            summary.enumerate(config.enum_cap)
            summary.replay(stats)
        if not (left.complete and right.complete):
            return _capped_result()
        if len(left.values) * len(right.values) > config.pair_cap:
            stats.cap_hits += 1
            return _capped_result()
        combine = _combine_ordering if self.op in _ORDERING else _combine_pairwise
        some, every, sat_left, sat_right = combine(self.op, left, right)
        if not some:
            return ConditionResult(some=False, all=False, filtered={}, capped=False)
        filtered = _filter_sides(
            (self.left, self.right), (left, right), (sat_left, sat_right)
        )
        all_flag = every and left.exhaustive and right.exhaustive
        return ConditionResult(some=True, all=all_flag, filtered=filtered, capped=False)


class _PFunctionSummary(_Summary):
    """One argument of a p-function: whether it has ``contain``
    assignments, its anchor token set, its value count, its values."""

    def __init__(self, side, cell):
        super().__init__(cell)
        self._tokens = self._value_count = None
        if side.is_const:
            self._const = side.const
            self._set_values([side.const], True, True, 0, 0)

    @property
    def tokens(self):
        """Union of token sets over the anchor spans / values.

        A superset of the tokens of every value the side can take, so
        an empty cross-side intersection *proves* a share-a-token
        similarity function cannot hold.
        """
        if self._tokens is None:
            from repro.processor.library import token_set

            if self.cell is None:
                self._tokens = token_set(self._const)
            else:
                tokens = set()
                for assignment in self.cell.assignments:
                    span = assignment.anchor_span
                    tokens |= token_set(span if span is not None else assignment.value)
                self._tokens = tokens
        return self._tokens

    @property
    def value_count(self):
        if self._value_count is None:
            self._value_count = self.cell.value_count()
        return self._value_count

    def enumerate(self, enum_cap):
        if self.values is None:
            self._enumerate_cell(enum_cap)


class PFunctionCondition:
    """A p-function used as a filter, e.g. ``similar(@t1, @t2)``."""

    def __init__(self, name, func, sides):
        self.name = name
        self.func = func
        self.sides = list(sides)  # list of _Side

    @property
    def involved(self):
        return tuple(s.attr for s in self.sides if not s.is_const)

    def __repr__(self):
        return "%s(%s)" % (
            self.name,
            ", ".join(s.attr if not s.is_const else repr(s.const) for s in self.sides),
        )

    def summary(self, index, cell, memo):
        """The summary of argument ``index`` over ``cell`` (``None`` for a
        constant argument), from ``memo`` when it holds one."""
        return _memoised(memo, self, index, cell, _PFunctionSummary, self.sides[index], cell)

    def evaluate(self, cells_by_attr, context, memo=None):
        """The :class:`ConditionResult` over one tuple's cells.

        ``memo`` is a :class:`SummaryMemo` the caller owns for one
        operator execution; a memoised cell is summarised only once.
        """
        summaries = [
            self.summary(i, None if s.is_const else cells_by_attr[s.attr], memo)
            for i, s in enumerate(self.sides)
        ]
        stats = context.stats
        config = context.config
        # A procedural function needs concrete values.  ``contain``
        # families are kept approximate — except that for share-a-token
        # similarity functions an empty token overlap is an exact
        # refutation, which is what makes one-sided refinements shrink
        # the result before both sides are exact.
        if any(s.has_contain for s in summaries):
            if getattr(self.func, "blockable", False) and len(summaries) == 2:
                left_tokens = summaries[0].tokens
                if left_tokens and not (left_tokens & summaries[1].tokens):
                    return ConditionResult(some=False, all=False, filtered={})
            stats.cap_hits += 1
            return _capped_result()
        product = 1
        for summary in summaries:
            if summary.cell is not None:
                product *= max(1, summary.value_count)
        if product > config.pair_cap:
            stats.cap_hits += 1
            return _capped_result()
        for summary in summaries:
            summary.enumerate(config.enum_cap)
            summary.replay(stats)
        if not all(s.complete for s in summaries):
            return _capped_result()
        combo_count = 1
        for summary in summaries:
            combo_count *= len(summary.values)
        if combo_count > config.pair_cap:
            stats.cap_hits += 1
            return _capped_result()
        sat_per_side = [set() for _ in summaries]
        some = False
        all_flag = True
        for combo in itertools.product(*[s.values for s in summaries]):
            try:
                truth = bool(self.func(*combo))
            except Exception as exc:
                from repro.processor.operators import combo_doc_id

                raise ExecutionFailure.wrap(
                    exc,
                    doc_id=combo_doc_id(combo),
                    operator="p-function",
                    predicate=self.name,
                ) from exc
            if truth:
                some = True
                for sat, v in zip(sat_per_side, combo):
                    sat.add(value_key(v))
            else:
                all_flag = False
        filtered = _filter_sides(self.sides, summaries, sat_per_side) if some else {}
        return ConditionResult(
            some=some, all=some and all_flag, filtered=filtered, capped=False
        )


def make_side(attr=None, const=None, offset=0):
    """Factory used by the plan compiler."""
    return _Side(attr=attr, const=const, offset=offset)
