"""Per-document numpy columns: the unit of columnar storage.

One :class:`DocColumns` holds every sorted position table the feature
indexes need, as ``int64`` arrays:

``token_starts`` / ``token_ends``
    all tokens, in document order (the arrays behind
    :class:`~repro.features.index.TokenArrays`);
``word_starts`` / ``word_ends``
    WORD tokens only;
``cap_starts`` / ``cap_ends`` / ``cap_run``
    capitalised WORD tokens with their maximal-run ids (the
    :class:`~repro.features.index.CapitalizedIndex` tables);
``num_starts`` / ``num_ends``
    NUMBER tokens (the :class:`~repro.features.index.NumericIndex`
    table);
``region(kind)``
    per region kind, ``(starts, ends, max_end_prefix)`` — the
    :class:`~repro.features.index.RegionIndex` interval arrays with the
    prefix-max precomputed.

Columns are derived purely from immutable document content, so they can
be built once, shared across threads, inherited by forked workers, and
persisted (see :mod:`repro.columnar.store`) — there is nothing to
invalidate.
"""

import numpy as np

from repro.text.tokenize import NUMBER, WORD

__all__ = ["LAYOUT_VERSION", "DocColumns", "build_doc_columns"]

#: Bumped when the column layout or the corpus digest definition
#: changes; folded into the artifact digest so on-disk bundles from an
#: older layout rebuild instead of silently loading wrong.  Version 2
#: digests each document once (``Document.content_digest``).
LAYOUT_VERSION = 2

_I64 = np.int64
_EMPTY = np.empty(0, dtype=_I64)

#: Scalar column names, in canonical (persisted) order.
SCALAR_COLUMNS = (
    "token_starts",
    "token_ends",
    "word_starts",
    "word_ends",
    "cap_starts",
    "cap_ends",
    "cap_run",
    "num_starts",
    "num_ends",
)


class DocColumns:
    """One document's position tables as ``int64`` numpy columns."""

    __slots__ = ("doc_id",) + SCALAR_COLUMNS + ("_regions",)

    def __init__(self, doc_id, regions=None, **columns):
        self.doc_id = doc_id
        for name in SCALAR_COLUMNS:
            setattr(self, name, columns.get(name, _EMPTY))
        #: region kind -> (starts, ends, max_end_prefix)
        self._regions = dict(regions or {})

    def region(self, kind):
        """``(starts, ends, max_end_prefix)`` arrays for one region kind."""
        return self._regions.get(kind, (_EMPTY, _EMPTY, _EMPTY))

    def region_kinds(self):
        return sorted(self._regions)

    def columns(self):
        """``(name, array)`` pairs in canonical order (for persistence)."""
        out = [(name, getattr(self, name)) for name in SCALAR_COLUMNS]
        for kind in self.region_kinds():
            starts, ends, maxend = self._regions[kind]
            out.append(("region:%s:starts" % kind, starts))
            out.append(("region:%s:ends" % kind, ends))
            out.append(("region:%s:maxend" % kind, maxend))
        return out

    @classmethod
    def from_columns(cls, doc_id, named):
        """Rebuild from ``name -> array`` (inverse of :meth:`columns`)."""
        scalars = {}
        regions = {}
        for name, array in named.items():
            if name.startswith("region:"):
                _, kind, part = name.split(":")
                regions.setdefault(kind, {})[part] = array
            else:
                scalars[name] = array
        packed = {
            kind: (
                parts.get("starts", _EMPTY),
                parts.get("ends", _EMPTY),
                parts.get("maxend", _EMPTY),
            )
            for kind, parts in regions.items()
        }
        return cls(doc_id, regions=packed, **scalars)

    @property
    def nbytes(self):
        return sum(array.nbytes for _, array in self.columns())

    def __repr__(self):
        return "DocColumns(%r, %d tokens)" % (self.doc_id, len(self.token_starts))


def _as_column(values):
    return np.asarray(values, dtype=_I64)


def build_doc_columns(doc):
    """Build :class:`DocColumns` from a document (tokenizes once).

    One pass over the token stream fills every token-derived column;
    the capitalised-run sweep mirrors
    ``CapitalizedIndex``/``CapitalizedFeature`` exactly: a run is a
    maximal sequence of capitalised WORD tokens unbroken by a lowercase
    WORD token (non-word tokens neither break nor extend it).
    """
    token_starts = []
    token_ends = []
    word_starts = []
    word_ends = []
    cap_starts = []
    cap_ends = []
    cap_run = []
    num_starts = []
    num_ends = []
    run_id = -1
    in_run = False
    for token in doc.tokens:
        token_starts.append(token.start)
        token_ends.append(token.end)
        if token.kind == NUMBER:
            num_starts.append(token.start)
            num_ends.append(token.end)
        if token.kind != WORD:
            continue
        word_starts.append(token.start)
        word_ends.append(token.end)
        if token.text[:1].isupper():
            if not in_run:
                run_id += 1
                in_run = True
            cap_starts.append(token.start)
            cap_ends.append(token.end)
            cap_run.append(run_id)
        else:
            in_run = False
    regions = {}
    for kind, intervals in doc.regions.items():
        if not intervals:
            continue
        starts = _as_column([s for s, _ in intervals])
        ends = _as_column([e for _, e in intervals])
        regions[kind] = (starts, ends, np.maximum.accumulate(ends))
    return DocColumns(
        doc.doc_id,
        regions=regions,
        token_starts=_as_column(token_starts),
        token_ends=_as_column(token_ends),
        word_starts=_as_column(word_starts),
        word_ends=_as_column(word_ends),
        cap_starts=_as_column(cap_starts),
        cap_ends=_as_column(cap_ends),
        cap_run=_as_column(cap_run),
        num_starts=_as_column(num_starts),
        num_ends=_as_column(num_ends),
    )
