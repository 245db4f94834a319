"""Plan-level performance lint (ALOG019-ALOG021) and the plan report.

The pass compiles the program exactly the way the engine would and
walks the operator trees symbolically; each code has a triggering
fixture and a clean sibling.  The pass is opt-in (``plan=True``).
"""

from repro.analysis import analyze_source

CROSS_PRODUCT = """
pair(x, y) :- docs(d), docs(e), t1(@d, x), t2(@e, y).
t1(@d, x) :- from(@d, x), numeric(x) = yes.
t2(@e, y) :- from(@e, y), numeric(y) = yes.
"""

LINKED_JOIN = """
pair(x, y) :- docs(d), docs(e), t1(@d, x), t2(@e, y), x < y.
t1(@d, x) :- from(@d, x), numeric(x) = yes.
t2(@e, y) :- from(@e, y), numeric(y) = yes.
"""


def lint(source, **kwargs):
    kwargs.setdefault("extensional", ["docs"])
    kwargs.setdefault("plan", True)
    return analyze_source(source, **kwargs)


def codes(result):
    return [d.code for d in result.diagnostics]


class TestOptIn:
    def test_plan_lint_is_off_by_default(self):
        result = analyze_source(CROSS_PRODUCT, extensional=["docs"])
        assert "ALOG020" not in codes(result)
        assert result.plan_report is None

    def test_plan_true_attaches_the_report(self):
        result = lint(LINKED_JOIN)
        assert result.plan_report is not None
        assert result.plan_report.rows


class TestAlog019:
    def test_unindexable_first_narrowing_is_flagged(self):
        result = lint(
            """
            person(p) :- docs(d), name(@d, p).
            name(@d, p) :- from(@d, p), person_name(p) = yes.
            """
        )
        found = [d for d in result.diagnostics if d.code == "ALOG019"]
        assert len(found) == 1
        assert found[0].severity == "info"  # advisory, survives --strict
        assert "person_name" in found[0].message

    def test_indexable_first_narrowing_is_clean(self):
        result = lint(
            """
            person(p) :- docs(d), name(@d, p).
            name(@d, p) :- from(@d, p), capitalized(p) = yes,
                person_name(p) = yes.
            """
        )
        assert "ALOG019" not in codes(result)

    def test_opaque_declared_features_are_not_flagged(self):
        from repro.features.registry import default_registry

        result = analyze_source(
            """
            person(p) :- docs(d), name(@d, p).
            name(@d, p) :- from(@d, p), all_caps(p) = yes.
            """,
            extensional=["docs"],
            registry=default_registry().declare("all_caps"),
            plan=True,
        )
        assert "ALOG019" not in codes(result)


class TestAlog020:
    def test_cross_product_join_is_flagged(self):
        result = lint(CROSS_PRODUCT)
        found = [d for d in result.diagnostics if d.code == "ALOG020"]
        assert len(found) == 1
        assert "Cartesian product" in found[0].message
        assert found[0].severity == "warning"

    def test_linked_join_is_clean(self):
        result = lint(LINKED_JOIN)
        assert "ALOG020" not in codes(result)

    def test_p_predicate_over_unconstrained_expansion_is_flagged(self):
        result = lint(
            """
            q(t) :- docs(d), wide(@d, t).
            wide(@d, t) :- from(@d, s), cleanup(@s, t).
            """,
            p_predicates={"cleanup": 2},
        )
        found = [d for d in result.diagnostics if d.code == "ALOG020"]
        assert len(found) == 1
        assert "enumerate_values" in found[0].message

    def test_p_predicate_over_narrowed_expansion_is_clean(self):
        result = lint(
            """
            q(t) :- docs(d), wide(@d, t).
            wide(@d, t) :- from(@d, s), numeric(s) = yes, cleanup(@s, t).
            """,
            p_predicates={"cleanup": 2},
        )
        assert "ALOG020" not in codes(result)


class TestAlog021:
    def test_wide_attr_gathered_into_global_suffix_is_flagged(self):
        result = lint(
            """
            q(x, y) :- docs(d), docs(e), nums(@d, x), raw(@e, y), x < y.
            nums(@d, x) :- from(@d, x), numeric(x) = yes.
            raw(@e, y) :- from(@e, y).
            """
        )
        found = [d for d in result.diagnostics if d.code == "ALOG021"]
        assert len(found) == 1
        assert "'q'" in found[0].message and "y" in found[0].message

    def test_union_of_rules_with_a_wide_branch_is_flagged(self):
        result = lint(
            """
            q(t) :- docs(d), a(@d, t).
            q(t) :- docs(d), b(@d, t).
            a(@d, t) :- from(@d, t), numeric(t) = yes.
            b(@d, t) :- from(@d, t).
            """
        )
        assert "ALOG021" in codes(result)

    def test_constrained_local_tables_gather_clean(self):
        result = lint(LINKED_JOIN)
        assert "ALOG021" not in codes(result)

    def test_fully_local_single_rule_is_never_flagged(self):
        # wide at the root, but nothing is gathered: the whole plan is
        # document-local, so the fan-out never crosses a boundary
        result = lint(
            """
            q(t) :- docs(d), raw(@d, t).
            raw(@d, t) :- from(@d, t).
            """
        )
        assert "ALOG021" not in codes(result)


class TestPlanReport:
    def test_rows_carry_static_statistics_and_costs(self):
        result = lint(LINKED_JOIN)
        rows = {row.predicate: row for row in result.plan_report.rows}
        pair = rows["pair"]
        assert pair.joins == 1
        assert pair.extractions == 2  # two inlined from() generators
        assert pair.constraints == 2
        assert pair.indexable_constraints == 2  # numeric has an index
        assert pair.locality == "mixed"  # local prefixes, global join
        # cost = attrs*4 + extractions*6 + joins*8 (Xlog coefficients)
        assert pair.cost == pair.attributes * 4.0 + 2 * 6.0 + 1 * 8.0

    def test_fully_local_rule_is_classified_local(self):
        result = lint(
            """
            q(t) :- docs(d), title(@d, t).
            title(@d, t) :- from(@d, t), bold_font(t) = yes.
            """
        )
        (row,) = result.plan_report.rows
        assert row.locality == "local"
        assert row.joins == 0

    def test_rule_over_a_partition_local_predicate_is_local(self):
        # the executor runs the query rule partition by partition over
        # the extraction's per-partition tables; the report agrees
        result = lint(
            """
            items(d, <t>) :- docs(d), title(@d, t).
            q(t) :- items(d, t), bold_font(t) = yes.
            title(@d, t) :- from(@d, t), numeric(t) = yes.
            """
        )
        rows = {row.predicate: row for row in result.plan_report.rows}
        assert rows["items"].locality == "local"
        assert rows["q"].locality == "local"
        assert "ALOG021" not in codes(result)

    def test_join_over_partition_local_predicates_stays_global(self):
        result = lint(
            """
            a(d, <s>) :- docs(d), ieA(@d, s).
            b(e, <t>) :- docs(e), ieB(@e, t).
            q(s, t) :- a(d, s), b(e, t), s < t.
            ieA(@d, s) :- from(@d, s), numeric(s) = yes.
            ieB(@e, t) :- from(@e, t), numeric(t) = yes.
            """
        )
        rows = {row.predicate: row for row in result.plan_report.rows}
        assert rows["a"].locality == rows["b"].locality == "local"
        assert rows["q"].locality == "global"

    def test_render_is_a_table_with_one_line_per_rule(self):
        text = lint(LINKED_JOIN).plan_report.render()
        lines = text.splitlines()
        assert lines[0].startswith("rule")
        assert len(lines) == 3  # header, separator, one rule row

    def test_plan_report_rides_on_the_json_payload(self):
        data = lint(LINKED_JOIN).to_dict("p.alog")
        assert data["plan"]["rules"][0]["predicate"] == "pair"

    def test_uncompilable_programs_skip_quietly(self):
        # unknown predicate: compile would raise, so the plan lint
        # bails and the resolution pass owns the report
        result = analyze_source(
            "q(t) :- docs(d), mystery(@d, t).",
            extensional=["docs"],
            assume_extensional=True,
            plan=True,
        )
        assert "ALOG013" in codes(result)  # assumed p-predicate
        assert "ALOG019" not in codes(result)
        assert "ALOG020" not in codes(result)
