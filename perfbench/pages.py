"""Page-sized documents: seeded page chrome around ``repro.datagen`` records.

The datagen generators emit one short record per document (a median of
66-115 characters), which is not what the feature indexes, the columnar
bundles and the eval cache were built for.  :func:`page_task` turns a
task built by :func:`repro.experiments.tasks.build_task` into the same
task over *page-sized* documents: every record's HTML gets a navigation
line, a "customers also viewed" list of linked titles with prices and a
footer full of numbers appended after it.  The chrome comes after the
record, so every ground-truth span keeps its offsets; the documents are
re-parsed and each span is re-pointed at its new document and checked
to still cover the same text.
"""

import random

from repro.assistant.oracle import GroundTruth
from repro.datagen.vocab import CITIES, book_title, person_name
from repro.experiments.tasks import TaskInstance
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.text.span import Span

__all__ = ["chrome_html", "page_html", "page_task"]

_SECTIONS = ("Books", "Computers", "Science", "Engineering", "Reference")


def chrome_html(rng):
    """Navigation, a related-items list and a footer, drawn from ``rng``."""
    crumbs = " &gt; ".join(rng.sample(_SECTIONS, 3))
    nav = "<p>Home &gt; %s &gt; Page %d of %d | Sign in | Cart (%d)</p>" % (
        crumbs,
        rng.randint(1, 40),
        rng.randint(41, 90),
        rng.randint(0, 9),
    )
    items = "".join(
        "<li><a href='#'>%s</a> by %s, $%.2f (%d reviews)</li>"
        % (book_title(rng), person_name(rng), rng.uniform(5, 300), rng.randint(1, 999))
        for _ in range(rng.randint(12, 15))
    )
    footer = (
        "<p>Free shipping on orders over $%d. Store hours %d am to %d pm, "
        "%s office, call %03d-%04d. Copyright 1998-2008, %d visitors today.</p>"
        % (
            rng.randint(25, 99),
            rng.randint(7, 10),
            rng.randint(5, 9),
            rng.choice(CITIES),
            rng.randint(200, 999),
            rng.randint(0, 9999),
            rng.randint(1000, 99999),
        )
    )
    return "%s<p>Customers also viewed</p><ul>%s</ul>%s" % (nav, items, footer)


def page_html(record_html, rng):
    """``record_html`` followed by page chrome (record offsets unchanged)."""
    return record_html + chrome_html(rng)


def page_task(task, seed):
    """``task`` over page-sized documents, plus each page's HTML.

    Returns ``(task, pages)``: the program and answer rows are
    unchanged, and ``pages`` maps each table to its ``(doc_id, html)``
    pairs in corpus order.  Raises ``ValueError`` if a re-pointed
    ground-truth span no longer covers its original text — the chrome
    must never disturb a record.
    """
    rng = random.Random("pages-%d" % seed)
    new_docs = {}
    records = {}
    for table, table_records in task.records.items():
        paged = []
        for record in table_records:
            html = page_html(record.html, rng)
            doc = parse_html(record.doc.doc_id + "-page", html, meta=record.doc.meta)
            new_docs[record.doc.doc_id] = doc
            paged.append((doc, html))
        records[table] = paged
    spans = {
        key: [_repoint(span, new_docs[span.doc.doc_id]) for span in value]
        for key, value in task.truth.attribute_spans.items()
    }
    truth = GroundTruth(spans, task.truth.answer_rows, task.truth.scripted_answers)
    corpus = Corpus({name: [doc for doc, _ in docs] for name, docs in records.items()})
    paged_task = TaskInstance(
        task.task_id,
        task.domain,
        task.description,
        corpus,
        task.program,
        truth,
        task.key_attr,
        records=task.records,
        cleanup_minutes=task.cleanup_minutes,
    )
    pages = {
        name: [(doc.doc_id, html) for doc, html in docs] for name, docs in records.items()
    }
    return paged_task, pages


def _repoint(span, doc):
    moved = Span(doc, span.start, span.end)
    if moved.text != span.text:
        raise ValueError(
            "page chrome moved %r in %s (now %r)" % (span.text, doc.doc_id, moved.text)
        )
    return moved
