"""Partition-local query rules: differential tests of the delta path.

A rule that scans a partition-local predicate through per-tuple
operators runs partition by partition over that predicate's
per-partition tables, and each partition's fingerprint chains the
upstream's per-partition token.  The contract, for the single-table
tasks (an extraction predicate plus a query rule over it):

* cold, warm and one-document-edit results are byte-identical to a
  cacheless serial execute, through an in-memory :class:`RuleCache` on
  one resident engine and through a result store on fresh engines, on
  the serial and process backends;
* an edit recomputes exactly one partition of each partition-local
  predicate;
* when the upstream comes back as a whole-table hit (no per-partition
  tables), the rule takes the global path with identical bytes.
"""

import pytest

from repro.cli import main
from repro.experiments.tasks import build_task
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine, RuleCache
from repro.text.corpus import Corpus
from repro.text.document import Document
from tests.processor.test_parallel import result_image

TASKS = ("T1", "T2", "T5", "T7", "T8")
CONFIGS = {
    "chunks-1-serial": dict(partition_docs=1),
    "workers-2-process": dict(workers=2, backend="process"),
    "chunks-4-process": dict(partition_docs=4, workers=2, backend="process"),
}
SIZE = 8
EDITED = 3


def copy_corpus(corpus):
    return Corpus({name: list(corpus.table(name)) for name in corpus.table_names()})


def revised(doc):
    """``doc`` edited in place: same id, one more sentence of text."""
    return Document(
        doc.doc_id,
        doc.text + " Revised 2009 edition, 150 pages.",
        regions=doc.regions,
        labels=doc.labels,
        meta=doc.meta,
    )


def edited_corpus(corpus):
    (name,) = corpus.table_names()
    docs = list(corpus.table(name))
    docs[EDITED] = revised(docs[EDITED])
    return Corpus({name: docs})


def reference(task, corpus):
    """A cacheless serial execute: the identity baseline."""
    return result_image(IFlexEngine(task.program, corpus, validate=False).execute())


def assert_counts(result, recomputed, reused):
    assert (
        result.stats.partitions_recomputed,
        result.stats.partitions_reused,
    ) == (recomputed, reused)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("task_id", TASKS)
class TestDifferential:
    def test_rule_cache_on_a_resident_engine(self, task_id, config_name):
        task = build_task(task_id, size=SIZE, seed=0)
        corpus = copy_corpus(task.corpus)
        engine = IFlexEngine(
            task.program, corpus, config=ExecConfig(**CONFIGS[config_name]),
            validate=False,
        )
        # the extraction predicate and the query rule over it
        assert len(engine.physical.aligned) == 2
        pairs = 2 * len(engine.physical.partitions)
        cache = RuleCache()

        cold = engine.execute(cache=cache)
        assert result_image(cold) == reference(task, task.corpus)
        assert_counts(cold, pairs, 0)

        warm = engine.execute(cache=cache)
        assert result_image(warm) == result_image(cold)
        assert set(warm.reuse_summary.values()) == {"full"}
        assert_counts(warm, 0, 0)  # whole-table hits

        (name,) = corpus.table_names()
        doc = revised(corpus.table(name)[EDITED])
        corpus.add_documents(name, [doc], replace=True)
        engine.rebind_corpus(edited_docs=[doc.doc_id])
        delta = engine.execute(cache=cache)
        assert result_image(delta) == reference(task, edited_corpus(task.corpus))
        # one partition of each partition-local predicate
        assert_counts(delta, 2, pairs - 2)

    def test_result_store_on_fresh_engines(self, task_id, config_name, tmp_path):
        task = build_task(task_id, size=SIZE, seed=0)
        config = dict(CONFIGS[config_name], result_cache=str(tmp_path))

        def run(corpus):
            engine = IFlexEngine(
                task.program, corpus, config=ExecConfig(**config), validate=False
            )
            return engine, engine.execute()

        engine, cold = run(task.corpus)
        pairs = 2 * len(engine.physical.partitions)
        assert result_image(cold) == reference(task, task.corpus)
        assert_counts(cold, pairs, 0)

        _, warm = run(task.corpus)
        assert result_image(warm) == result_image(cold)
        assert_counts(warm, 0, pairs)
        assert warm.stats.result_cache_misses == 0

        edited = edited_corpus(task.corpus)
        _, delta = run(edited)
        assert result_image(delta) == reference(task, edited)
        assert_counts(delta, 2, pairs - 2)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_whole_table_upstream_hit_falls_back_to_the_global_path(config_name):
    task = build_task("T7", size=SIZE, seed=0)
    engine = IFlexEngine(
        task.program, task.corpus, config=ExecConfig(**CONFIGS[config_name]),
        validate=False,
    )
    warmed = RuleCache()
    engine.execute(cache=warmed)
    # a caller cache that holds only the upstream's whole table: no
    # per-partition tables to bind, so the query rule cannot run
    # partition by partition
    cache = RuleCache()
    entry = warmed.get("barnesBooks")
    cache.put("barnesBooks", entry.fingerprint, entry.table)
    result = engine.execute(cache=cache)
    assert result.reuse_summary == {"barnesBooks": "full", "T7": "computed"}
    assert_counts(result, 0, 0)
    assert result_image(result) == reference(task, task.corpus)


def test_analyze_after_an_edit_measures_only_dirty_partitions(tmp_path, capsys):
    pages = tmp_path / "pages"
    pages.mkdir()
    (pages / "a.html").write_text("<p><b>Widget Alpha</b> Price: $120.00</p>")
    (pages / "b.html").write_text("<p><b>Widget Beta</b> Price: $80.00</p>")
    program = tmp_path / "prog.alog"
    program.write_text(
        """
        items(x, <t>, <p>) :- pages(x), ie(@x, t, p).
        q(t, p) :- items(x, t, p), p > 100.
        ie(@x, t, p) :- from(@x, t), from(@x, p), numeric(p) = yes,
            preceded_by(p) = "$".
        """
    )
    args = [
        "run", str(program), "--table", "pages=%s" % pages, "--query", "q",
        "--workers", "2", "--result-cache", str(tmp_path / "cache"),
    ]
    assert main(args) == 0
    (pages / "b.html").write_text("<p><b>Widget Beta</b> Price: $185.00</p>")
    capsys.readouterr()
    assert main(args + ["--analyze"]) == 0
    out = "\n" + capsys.readouterr().out
    for name in ("items", "q"):
        section = out.split("\n%s:\n" % name, 1)[1].split("\n\n", 1)[0]
        # traced operators cover the one dirty partition (one page)
        scan = [line for line in section.splitlines() if "Scan" in line]
        assert scan and all(line.split("|")[2].strip() == "1" for line in scan)
        assert "(1 clean partition(s) hydrated from the result cache" in section
    assert "result cache: 2 partition(s) reused / 2 recomputed" in out
    assert "Widget Beta" in out
