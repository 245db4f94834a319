"""The alignment judgment: which predicates run partition by partition.

A predicate whose whole plan is document-local is *partition-local*;
a rule that scans only partition-local predicates through per-tuple
operators is partition-local too, transitively.  Joins, unions and ψ
grouped by a key that is not document-anchored stay global.
"""

from repro.alog.unfold import unfold_program
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine, evaluation_order
from repro.processor.plan import compile_predicate
from repro.processor.split import PlanSplit, align
from repro.text.corpus import Corpus
from repro.text.document import Document
from repro.xlog.program import Program


def aligned_map(source, extensional=("docs",), **kwargs):
    """``(unfolded program, {predicate: anchored positions})``."""
    program = unfold_program(
        Program.parse(source, extensional=list(extensional), **kwargs)
    )
    aligned = {}
    for group in evaluation_order(program):
        for name in group:
            align(name, compile_predicate(name, program), aligned)
    return program, aligned


class TestAlign:
    def test_chain_aligns_transitively(self):
        program, aligned = aligned_map(
            """
            a(d, <t>, <p>) :- docs(d), ie(@d, t, p).
            b(d, t, p) :- a(d, t, p), p > 10.
            c(t) :- b(d, t, p), numeric(p) = yes.
            ie(@d, t, p) :- from(@d, t), from(@d, p), numeric(p) = yes.
            """,
            query="c",
        )
        assert set(aligned) == {"a", "b", "c"}
        # a groups by its doc-anchored key d; b keeps d at position 0;
        # c projected it away but is still per-tuple
        assert aligned["a"] == {0}
        assert aligned["b"] == {0}
        assert aligned["c"] == frozenset()
        plan = compile_predicate("c", program)
        assert not PlanSplit(plan).fully_local
        assert PlanSplit(plan, {"b": aligned["b"]}).fully_local

    def test_t9_join_rule_stays_global(self):
        from repro.experiments.tasks import build_task

        task = build_task("T9", size=4, seed=0)
        program = unfold_program(task.program)
        aligned = {}
        for group in evaluation_order(program):
            for name in group:
                align(name, compile_predicate(name, program), aligned)
        assert set(aligned) == {"amazonB", "barnesB"}
        split = PlanSplit(compile_predicate("T9", program), aligned)
        assert not split.fully_local
        # the join over merged tables splits exactly as without
        # alignment: no per-partition prefix over an upstream slice
        assert split.local_roots == []

    def test_psi_grouped_by_an_unanchored_key_stays_global(self):
        _, aligned = aligned_map(
            """
            a(d, <t>, <p>) :- docs(d), ie(@d, t, p).
            g(t, <p>) :- a(d, t, p).
            ie(@d, t, p) :- from(@d, t), from(@d, p), numeric(p) = yes.
            """,
            query="g",
        )
        # ψ over a's annotated t may merge tuples of several documents
        assert "a" in aligned
        assert "g" not in aligned

    def test_psi_grouped_by_an_anchored_key_is_local(self):
        _, aligned = aligned_map(
            """
            a(d, t, p) :- docs(d), ie(@d, t, p).
            g(d, <p>) :- a(d, t, p).
            ie(@d, t, p) :- from(@d, t), from(@d, p), numeric(p) = yes.
            """,
            query="g",
        )
        assert aligned["g"] == {0}

    def test_union_stays_global(self):
        _, aligned = aligned_map(
            """
            a(d, <t>) :- docs(d), ie(@d, t).
            u(t) :- a(d, t), t > 1.
            u(t) :- a(d, t), t < 0.
            ie(@d, t) :- from(@d, t), numeric(t) = yes.
            """,
            query="u",
        )
        assert "a" in aligned
        assert "u" not in aligned


class TestPhysicalRouting:
    SOURCE = """
        items(d, <t>, <p>) :- docs(d), ie(@d, t, p).
        q(t, p) :- items(d, t, p), p > 100.
        ie(@d, t, p) :- from(@d, t), from(@d, p), numeric(p) = yes.
        """

    def engine(self):
        corpus = Corpus(
            {"docs": [Document("d%d" % i, "w%d %d" % (i, 90 + 5 * i)) for i in range(4)]}
        )
        program = Program.parse(self.SOURCE, extensional=["docs"], query="q")
        return IFlexEngine(
            program, corpus, config=ExecConfig(workers=2), validate=False
        )

    def test_query_rule_is_local_only_with_upstream_slices(self):
        physical = self.engine().physical
        assert set(physical.aligned) == {"items", "q"}
        assert physical.fully_local("items")
        # without the upstream's per-partition tables the scan reads
        # the merged table: the global path
        assert not physical.fully_local("q")
        slices = [None] * len(physical.partitions)
        assert physical.fully_local("q", {"items": slices})
