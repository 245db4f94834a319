"""Corpus-level artifact bundles with a content-addressed cache.

A :class:`CorpusArtifacts` packs every document's
:class:`~repro.columnar.arrays.DocColumns` into **one** flat ``int64``
buffer plus a layout table (``doc_id -> column -> (offset, length)``).
Persisted it is two files under the cache directory::

    <digest>.cols.npy    the flat buffer (np.save format)
    <digest>.meta.json   layout + digest + layout version

The digest is a SHA-256 over the layout version and each document's id,
text, and region intervals — *content*-addressed, so a changed corpus
never maps a stale bundle, and two corpora with identical content share
one.  Loading uses ``np.load(..., mmap_mode="r")``: the buffer is a
read-only memory map, per-document columns are zero-copy views into it,
and forked worker processes share the same physical pages.

A corrupted or stale bundle (truncated file, layout that does not fit
the buffer, digest mismatch, old layout version) is never an error:
:func:`load_artifacts` returns ``None`` and the store rebuilds and
overwrites it — the cache is an accelerator, not a source of truth.
"""

import hashlib
import json
import os
import tempfile
import time

import numpy as np

from repro.columnar.arrays import LAYOUT_VERSION, DocColumns, build_doc_columns
from repro.observability.logs import get_logger

__all__ = [
    "ColumnarStore",
    "CorpusArtifacts",
    "attach_process_artifacts",
    "build_artifacts",
    "corpus_digest",
    "load_artifacts",
    "save_artifacts",
]

logger = get_logger("columnar")

_I64 = np.int64


def corpus_digest(docs):
    """Content digest of a document collection (order-sensitive).

    Folds each document's cached
    :attr:`~repro.text.document.Document.content_digest`, so re-digesting
    a corpus (or any slice of it) hashes no document text twice.
    """
    h = hashlib.sha256()
    h.update(("columnar-v%d" % LAYOUT_VERSION).encode("utf-8"))
    for doc in docs:
        h.update(b"\x1e")
        h.update(doc.content_digest)
    return h.hexdigest()[:24]


class CorpusArtifacts:
    """One corpus's columns in a single flat buffer (maybe memory-mapped)."""

    __slots__ = ("digest", "path", "data", "layout", "_columns")

    def __init__(self, digest, data, layout, path=None):
        self.digest = digest
        #: 1-D ``int64`` array — in-memory after a build, ``np.memmap``
        #: after a cache load
        self.data = data
        #: ``doc_id -> [(column name, offset, length), ...]``
        self.layout = layout
        #: on-disk location when persisted/loaded; ``None`` in memory
        self.path = path
        self._columns = {}

    def __contains__(self, doc_id):
        return doc_id in self.layout

    def columns_for(self, doc_id):
        """Zero-copy :class:`DocColumns` views for one document."""
        columns = self._columns.get(doc_id)
        if columns is None:
            entry = self.layout.get(doc_id)
            if entry is None:
                return None
            named = {
                name: self.data[offset:offset + length]
                for name, offset, length in entry
            }
            columns = DocColumns.from_columns(doc_id, named)
            self._columns[doc_id] = columns
        return columns

    @property
    def nbytes(self):
        return self.data.nbytes

    @property
    def mapped(self):
        return isinstance(self.data, np.memmap)

    def ref(self):
        """The ``(path, digest)`` mmap reference workers re-open by."""
        return (self.path, self.digest)

    def __repr__(self):
        return "CorpusArtifacts(%s, %d docs, %d bytes%s)" % (
            self.digest,
            len(self.layout),
            self.nbytes,
            ", mapped" if self.mapped else "",
        )


def build_artifacts(docs, digest=None):
    """Pack the documents' columns into one :class:`CorpusArtifacts`."""
    digest = digest if digest is not None else corpus_digest(docs)
    layout = {}
    pieces = []
    offset = 0
    for doc in docs:
        columns = build_doc_columns(doc)
        entry = []
        for name, array in columns.columns():
            entry.append((name, offset, len(array)))
            pieces.append(array)
            offset += len(array)
        layout[doc.doc_id] = entry
    data = (
        np.concatenate(pieces) if pieces else np.empty(0, dtype=_I64)
    ).astype(_I64, copy=False)
    return CorpusArtifacts(digest, data, layout)


def _paths(cache_dir, digest):
    return (
        os.path.join(cache_dir, "%s.cols.npy" % digest),
        os.path.join(cache_dir, "%s.meta.json" % digest),
    )


def save_artifacts(artifacts, cache_dir):
    """Persist a bundle; returns the ``.npy`` path.

    Both files are written via rename so a crashed writer leaves no
    half-written bundle behind for :func:`load_artifacts` to trip on.
    """
    os.makedirs(cache_dir, exist_ok=True)
    data_path, meta_path = _paths(cache_dir, artifacts.digest)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".npy.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.save(handle, np.ascontiguousarray(artifacts.data))
        os.replace(tmp, data_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    meta = {
        "digest": artifacts.digest,
        "layout_version": LAYOUT_VERSION,
        "total": int(len(artifacts.data)),
        "layout": {
            doc_id: [[name, int(off), int(length)] for name, off, length in entry]
            for doc_id, entry in artifacts.layout.items()
        },
    }
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".json.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        os.replace(tmp, meta_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    artifacts.path = data_path
    return data_path


def load_artifacts(cache_dir, digest):
    """Map a persisted bundle, or ``None`` when absent/corrupt/stale.

    Every failure mode — missing files, unreadable ``.npy``, malformed
    JSON, a layout that does not fit the buffer, a digest or layout
    version mismatch — yields ``None`` so the caller rebuilds.
    """
    data_path, meta_path = _paths(cache_dir, digest)
    if not (os.path.exists(data_path) and os.path.exists(meta_path)):
        return None
    try:
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
        if meta.get("digest") != digest:
            raise ValueError("digest mismatch")
        if meta.get("layout_version") != LAYOUT_VERSION:
            raise ValueError("layout version mismatch")
        data = np.load(data_path, mmap_mode="r", allow_pickle=False)
        if data.ndim != 1 or data.dtype != _I64:
            raise ValueError("unexpected buffer shape/dtype")
        if len(data) != int(meta.get("total", -1)):
            raise ValueError("buffer length mismatch")
        layout = {}
        for doc_id, entry in meta["layout"].items():
            rows = []
            for name, offset, length in entry:
                if offset < 0 or length < 0 or offset + length > len(data):
                    raise ValueError("layout exceeds buffer")
                rows.append((str(name), int(offset), int(length)))
            layout[doc_id] = rows
        return CorpusArtifacts(digest, data, layout, path=data_path)
    except Exception as exc:
        logger.warning(
            "columnar artifact %s unusable (%s); rebuilding", digest, exc
        )
        return None


#: Process-wide mapped bundles, keyed by digest.  Populated by
#: :func:`attach_process_artifacts` when a scheduler ships artifact
#: ``(path, digest)`` refs instead of array data; every
#: :class:`ColumnarStore` in the process then serves column views from
#: these maps without building (or unpickling) anything.
_PROCESS_BUNDLES = {}


def attach_process_artifacts(refs):
    """Map ``(path, digest)`` refs into the process-wide bundle table.

    Idempotent and failure-tolerant: an already-mapped digest is reused,
    an unusable ref is skipped (consumers fall back to building the
    columns, never to an error — same contract as the cache itself).
    Returns the live bundles for the given refs.
    """
    attached = []
    for path, digest in refs:
        bundle = _PROCESS_BUNDLES.get(digest)
        if bundle is None and path:
            bundle = load_artifacts(os.path.dirname(path), digest)
            if bundle is not None:
                _PROCESS_BUNDLES[digest] = bundle
        if bundle is not None:
            attached.append(bundle)
    return attached


class ColumnarStore:
    """Build-once column storage, optionally backed by an artifact cache.

    Without a ``cache_dir`` columns are built lazily per document and
    held in memory — exactly as cheap as the old Python-list tables,
    minus the re-tokenization.  With one, :meth:`prepare` packs a whole
    corpus into a content-addressed bundle: a warm cache maps the
    ``.npy`` (no tokenization at all), a cold one builds and persists
    it.  Either way :meth:`columns_for` is the single read path.

    One store may be shared across execution contexts, partitions and
    forked workers — columns depend only on immutable document content.
    ``build_seconds`` / ``load_seconds`` and the ``built`` / ``loaded``
    counters are diagnostics for the benchmarks, not part of
    :class:`~repro.processor.context.ExecutionStats`.
    """

    __slots__ = (
        "cache_dir",
        "_columns",
        "_bundles",
        "built",
        "loaded",
        "build_seconds",
        "load_seconds",
    )

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self._columns = {}
        self._bundles = []
        self.built = 0
        self.loaded = 0
        self.build_seconds = 0.0
        self.load_seconds = 0.0

    def columns_for(self, doc):
        """This document's :class:`DocColumns` (bundle view or built)."""
        columns = self._columns.get(doc.doc_id)
        if columns is not None:
            return columns
        for bundle in list(self._bundles) + list(_PROCESS_BUNDLES.values()):
            columns = bundle.columns_for(doc.doc_id)
            if columns is not None:
                self.loaded += 1
                self._columns[doc.doc_id] = columns
                return columns
        started = time.perf_counter()
        columns = build_doc_columns(doc)
        self.build_seconds += time.perf_counter() - started
        self.built += 1
        self._columns[doc.doc_id] = columns
        return columns

    def attach(self, artifacts):
        """Serve future lookups from this bundle's views."""
        self._bundles.append(artifacts)
        return artifacts

    def invalidate(self, doc_ids):
        """Forget columns for the given documents (in-place edit path).

        Built columns for those ids are dropped, and any attached bundle
        covering one of them is detached entirely — bundles are
        immutable snapshots of a whole corpus, so a single edited
        document stales the bundle's view of that id.  Lookups for the
        *unedited* documents fall back to (cheap) per-document builds,
        or to the fresh bundle the next :meth:`prepare` attaches.
        """
        doc_ids = set(doc_ids)
        for doc_id in doc_ids:
            self._columns.pop(doc_id, None)
        self._bundles = [
            bundle
            for bundle in self._bundles
            if not doc_ids.intersection(bundle.layout)
        ]

    def prepare(self, docs):
        """Build-or-map the bundle covering ``docs`` and attach it.

        With a cache directory: map the content-addressed bundle if it
        is present and sound, else build, persist, and *reload through
        the map* so the in-process store serves the same pages forked
        workers will.  Without one: build in memory.
        """
        docs = list(docs)
        digest = corpus_digest(docs)
        for bundle in self._bundles:
            if bundle.digest == digest:
                return bundle
        if self.cache_dir is not None:
            started = time.perf_counter()
            artifacts = load_artifacts(self.cache_dir, digest)
            if artifacts is not None:
                self.load_seconds += time.perf_counter() - started
                self.loaded += len(artifacts.layout)
                return self.attach(artifacts)
        started = time.perf_counter()
        artifacts = build_artifacts(docs, digest=digest)
        self.built += len(artifacts.layout)
        if self.cache_dir is not None:
            save_artifacts(artifacts, self.cache_dir)
            mapped = load_artifacts(self.cache_dir, digest)
            if mapped is not None:
                artifacts = mapped
        self.build_seconds += time.perf_counter() - started
        return self.attach(artifacts)

    def artifact_refs(self):
        """``(path, digest)`` for every persisted, attached bundle.

        These ride in the fork payload: a worker that does not inherit
        the mapping (or a future spawn-based backend) re-opens the same
        read-only files by path instead of receiving pickled copies.
        """
        return [
            bundle.ref() for bundle in self._bundles if bundle.path is not None
        ]

    def __len__(self):
        return len(self._columns)
