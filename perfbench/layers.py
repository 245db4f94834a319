"""Per-layer timing for the traced run.

:data:`PROBES` is the one table of layer wrappers: each row maps a
metric to a dotted public target in ``repro``.  :class:`Recorder.install`
replaces every target with a wrapper that times each call, records it as
a span on a :class:`repro.observability.spans.Tracer` (one tracer per
thread, since tracers are not thread-safe) and charges the call's *self*
time — its wall time minus the wrapped calls made inside it — to the
row's metric.  Self times therefore add up: together they split the
traced wall time across the program's modules without double counting.

Only the traced run installs the wrappers; the untraced run measures
the program as shipped.  A target that no longer resolves (a later
change may delete an accelerator) is skipped, and the metrics that
depend only on missing targets are reported as absent.
"""

import functools
import importlib
import os
import sys
import threading
import time
from contextlib import contextmanager

from repro.observability.spans import Tracer, write_chrome_trace
from repro.processor.context import ExecutionStats

__all__ = ["PROBES", "DERIVED", "Recorder", "TimedLock", "resolve", "layer_metrics"]

#: Spans kept per metric; calls beyond it are still timed and counted.
SPAN_CAP = 4000


def _stats(rec, engine, args, result):
    rec.merge_stats(result.stats)


def _payload(rec, scheduler, args, result):
    rec.count("schedulers.payload_bytes", getattr(scheduler, "last_map_payload_bytes", 0))


def _bytes_written(rec, _, args, data_path):
    meta_path = data_path[: -len(".npy")] + ".meta.json"
    for path in (data_path, meta_path):
        if os.path.exists(path):
            rec.count("columnar.result_bytes_written", os.path.getsize(path))


def _session(rec, session, args, trace):
    rec.count("assistant.simulations", session.simulations)
    rec.count("assistant.iterations", trace.iterations)
    rec.count("assistant.questions", trace.questions_asked)


def _wrap_lock(rec, service, args, result):
    service.lock = TimedLock(service.lock, rec)


_OPS = "repro.processor.operators."

#: (metric, dotted target, kind, extra).  ``call`` times each call and
#: then runs ``extra(recorder, self_or_None, args, result)`` if given;
#: ``iter`` times each step of the iterator the target returns (one span
#: per iterator) and counts the bytes it yields under the counter named
#: ``extra``; ``hook`` only runs the after-hook ``extra``.
PROBES = (
    ("text.parse_s", "repro.text.html_parser.parse_html", "call", None),
    ("analysis.lint_s", "repro.analysis.analyzer.analyze_program", "call", None),
    ("alog.unfold_s", "repro.alog.unfold.unfold_program", "call", None),
    ("plan.compile_s", "repro.processor.plan.compile_predicate", "call", None),
    ("plan.compile_s", "repro.processor.plan.compile_rule", "call", None),
    ("features.index_build_s", "repro.features.index.IndexStore.arrays", "call", None),
    ("features.index_build_s", "repro.features.index.IndexStore.index_for", "call", None),
    ("features.verify_s", "repro.processor.context.FeatureEvaluator.verify_value", "call", None),
    ("features.verify_s", "repro.processor.context.FeatureEvaluator.verify_span", "call", None),
    (
        "features.verify_s",
        "repro.processor.context.FeatureEvaluator.verify_span_batch",
        "call",
        None,
    ),
    ("features.refine_s", "repro.processor.context.FeatureEvaluator.refine_span", "call", None),
    (
        "features.refine_s",
        "repro.processor.context.FeatureEvaluator.refine_span_batch",
        "call",
        None,
    ),
    ("columnar.artifact_build_s", "repro.columnar.arrays.build_doc_columns", "call", None),
    ("columnar.artifact_build_s", "repro.columnar.store.build_artifacts", "call", None),
    ("columnar.result_save_s", "repro.columnar.results.ResultStore.save", "call", None),
    ("columnar.result_save_s", "repro.columnar.results.save_result", "call", _bytes_written),
    ("columnar.result_load_s", "repro.columnar.results.ResultStore.load", "call", None),
    ("ctables.encode_s", "repro.ctables.codec.encode_table", "call", None),
    ("ctables.decode_s", "repro.ctables.codec.decode_table", "call", None),
    ("ctables.export_s", "repro.ctables.export.cell_to_dict", "call", None),
    ("operators.scan_s", _OPS + "ScanExtensional.execute", "call", None),
    ("operators.scan_s", _OPS + "ScanIntensional.execute", "call", None),
    ("operators.scan_s", _OPS + "TableSource.execute", "call", None),
    ("operators.from_s", _OPS + "FromOp.execute", "call", None),
    ("operators.constraint_select_s", _OPS + "ConstraintSelect.execute", "call", None),
    ("operators.condition_select_s", _OPS + "ConditionSelect.execute", "call", None),
    ("operators.join_s", _OPS + "JoinOp.execute", "call", None),
    ("operators.project_s", _OPS + "ProjectOp.execute", "call", None),
    ("operators.ppredicate_s", _OPS + "PPredicateOp.execute", "call", None),
    ("operators.annotate_s", _OPS + "AnnotateOp.execute", "call", None),
    ("operators.union_s", _OPS + "UnionOp.execute", "call", None),
    (
        "conditions.evaluate_s",
        "repro.processor.conditions.ComparisonCondition.evaluate",
        "call",
        None,
    ),
    (
        "conditions.evaluate_s",
        "repro.processor.conditions.PFunctionCondition.evaluate",
        "call",
        None,
    ),
    ("schedulers.map_s", "repro.processor.schedulers.SerialBackend.map", "call", _payload),
    ("schedulers.map_s", "repro.processor.schedulers.ThreadBackend.map", "call", _payload),
    ("schedulers.map_s", "repro.processor.schedulers.ProcessBackend.map", "call", _payload),
    ("executor.self_s", "repro.processor.executor.IFlexEngine.execute", "call", _stats),
    ("executor.rebind_s", "repro.processor.executor.IFlexEngine.rebind_corpus", "call", None),
    (
        "assistant.simulate_s",
        "repro.assistant.session.RefinementSession.simulate_refinements",
        "call",
        None,
    ),
    ("assistant.select_s", "repro.assistant.strategies.SimulationStrategy.select", "call", None),
    ("assistant.select_s", "repro.assistant.strategies.SequentialStrategy.select", "call", None),
    ("assistant.iterations", "repro.assistant.session.RefinementSession.run", "hook", _session),
    ("service.execute_s", "repro.service.state.ExtractionService.run_program", "call", None),
    ("service.ingest_s", "repro.service.state.ExtractionService.ingest", "call", None),
    ("service.stream_s", "repro.service.app.NDJSONStream.__iter__", "iter", "service.stream_bytes"),
    ("service.lock_wait_s", "repro.service.state.ExtractionService.__init__", "hook", _wrap_lock),
)

#: Metrics computed from others, with the metrics they need.
DERIVED = {
    "plan.compile_calls": ("plan.compile_s",),
    "schedulers.map_calls": ("schedulers.map_s",),
    "schedulers.payload_bytes": ("schedulers.map_s",),
    "columnar.result_bytes_written": ("columnar.result_save_s",),
    "service.stream_bytes": ("service.stream_s",),
    "assistant.simulations": ("assistant.iterations",),
    "assistant.questions": ("assistant.iterations",),
    "features.verify_requests": ("executor.self_s",),
    "features.refine_requests": ("executor.self_s",),
    "features.eval_cache_hit_ratio": ("executor.self_s",),
    "features.index_answer_ratio": ("executor.self_s",),
    "conditions.values_enumerated": ("executor.self_s",),
    "conditions.cap_hits": ("executor.self_s",),
    "operators.tuples_built": ("executor.self_s",),
    "executor.partitions_recomputed": ("executor.self_s",),
    "executor.partitions_reused": ("executor.self_s",),
    "executor.result_cache_hit_ratio": ("executor.self_s",),
}


def resolve(target):
    """``(owner, attribute name, original)`` for a dotted target.

    Imports the longest importable module prefix, then walks attributes;
    raises ``LookupError`` when any part is missing.
    """
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            break
    raise LookupError("target %s does not resolve" % target)


class _ThreadState:
    """One thread's tracer, open frames and totals (merged on read)."""

    def __init__(self):
        self.tracer = Tracer()
        #: open calls, innermost last: [metric, start, child seconds, span]
        self.frames = []
        self.seconds = {}
        self.calls = {}
        self.spans = {}


class Recorder:
    """Layer wrappers plus what they measured.

    :attr:`seconds` maps a metric to its self time, :attr:`calls` to its
    call count, ``counts`` holds the counters after-hooks add, and
    :attr:`stats` merges the
    :class:`~repro.processor.context.ExecutionStats` of every execution.
    """

    def __init__(self):
        self.counts = {}
        self.stats = ExecutionStats()
        self.missing = set()
        self.resolved = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states = []
        self._undo = []
        self._active = True
        self._state()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _merged(self, field):
        totals = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for metric, value in getattr(state, field).items():
                totals[metric] = totals.get(metric, 0) + value
        return totals

    @property
    def seconds(self):
        return self._merged("seconds")

    @property
    def calls(self):
        return self._merged("calls")

    def count(self, name, amount):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def merge_stats(self, stats):
        with self._lock:
            self.stats.merge(stats)

    def _enter(self, metric, span=True):
        state = self._state()
        opened = None
        if span:
            kept = state.spans.get(metric, 0)
            if kept < SPAN_CAP:
                state.spans[metric] = kept + 1
                opened = state.tracer.begin(metric, metric.split(".")[0])
        state.frames.append([metric, time.perf_counter(), 0.0, opened])
        return state

    def _exit(self, state):
        metric, start, child, opened = state.frames.pop()
        elapsed = time.perf_counter() - start
        if opened is not None:
            state.tracer.end(opened)
        if state.frames:
            state.frames[-1][2] += elapsed
        state.seconds[metric] = state.seconds.get(metric, 0.0) + elapsed - child
        state.calls[metric] = state.calls.get(metric, 0) + 1

    def timed(self, metric, fn, *args, **kwargs):
        """Call ``fn`` as one timed call charged to ``metric``."""
        state = self._enter(metric)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(state)

    def phase(self, name):
        """A span on the calling thread that groups the calls inside it."""
        return self._state().tracer.span(name, "phase")

    @contextmanager
    def paused(self):
        """Calls made inside run unwrapped and are not charged."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, probes=PROBES):
        """Wrap every resolvable target; returns ``self``."""
        for metric, target, kind, after in probes:
            try:
                owner, name, original = resolve(target)
            except LookupError:
                self.missing.add(metric)
                continue
            self.resolved.add(metric)
            wrapper = self._wrapper(metric, kind, after, original)
            if isinstance(owner, type):
                self._undo.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        self.missing -= self.resolved
        return self

    def _patch_everywhere(self, original, wrapper):
        # callers bind functions at import (``from m import f``), so every
        # loaded module namespace that holds the function is rebound
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    def _wrapper(self, metric, kind, after, original):
        recorder = self

        if kind == "hook":

            @functools.wraps(original)
            def hooked(*args, **kwargs):
                result = original(*args, **kwargs)
                if recorder._active:
                    after(recorder, args[0] if args else None, args, result)
                return result

            return hooked

        if kind == "iter":

            @functools.wraps(original)
            def iterate(*args, **kwargs):
                if not recorder._active:
                    return original(*args, **kwargs)
                return recorder._timed_iter(metric, after, original(*args, **kwargs))

            return iterate

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if not recorder._active:
                return original(*args, **kwargs)
            state = recorder._enter(metric)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._exit(state)
            if after is not None:
                after(recorder, args[0] if args else None, args, result)
            return result

        return timed

    def _timed_iter(self, metric, bytes_counter, iterator):
        iterator = iter(iterator)
        start = time.perf_counter()
        items = 0
        size = 0
        try:
            while True:
                state = self._enter(metric, span=False)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._exit(state)
                items += 1
                size += len(item)
                yield item
        finally:
            self.count(bytes_counter, size)
            self._state().tracer.add(
                metric, metric.split(".")[0], start=start, end=time.perf_counter(), items=items
            )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def spans(self):
        """Every thread's spans in one tree (other threads as roots)."""
        merged = Tracer()
        with self._lock:
            states = list(self._states)
        for state in states:
            merged.adopt(state.tracer.spans, parent=None)
        return merged.spans

    def write_trace(self, path):
        return write_chrome_trace(path, self.spans())


class TimedLock:
    """A lock proxy charging the wait for ``acquire`` to ``service.lock_wait_s``."""

    def __init__(self, lock, recorder):
        self._lock = lock
        self._recorder = recorder

    def acquire(self, blocking=True, timeout=-1):
        return self._recorder.timed("service.lock_wait_s", self._lock.acquire, blocking, timeout)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(recorder):
    """``{metric: value}`` for every per-layer metric the recorder can give.

    Metrics that rest only on missing targets are left out.
    """
    stats = recorder.stats
    verify = stats.verify_calls + stats.index_verify_calls + stats.verify_cache_hits
    refine = stats.refine_calls + stats.index_refine_calls + stats.refine_cache_hits
    hits = stats.verify_cache_hits + stats.refine_cache_hits
    lookups = hits + stats.verify_cache_misses + stats.refine_cache_misses
    indexed = stats.index_verify_calls + stats.index_refine_calls
    evaluated = indexed + stats.verify_calls + stats.refine_calls
    store_lookups = stats.result_cache_hits + stats.result_cache_misses
    counts = recorder.counts
    seconds = recorder.seconds
    calls = recorder.calls
    values = {
        metric: seconds.get(metric, 0.0)
        for metric, _, _, _ in PROBES
        if metric.endswith("_s")
    }
    values.update(
        {
            "plan.compile_calls": calls.get("plan.compile_s", 0),
            "schedulers.map_calls": calls.get("schedulers.map_s", 0),
            "schedulers.payload_bytes": counts.get("schedulers.payload_bytes", 0),
            "columnar.result_bytes_written": counts.get("columnar.result_bytes_written", 0),
            "service.stream_bytes": counts.get("service.stream_bytes", 0),
            "assistant.simulations": counts.get("assistant.simulations", 0),
            "assistant.iterations": counts.get("assistant.iterations", 0),
            "assistant.questions": counts.get("assistant.questions", 0),
            "features.verify_requests": verify,
            "features.refine_requests": refine,
            "features.eval_cache_hit_ratio": _ratio(hits, lookups),
            "features.index_answer_ratio": _ratio(indexed, evaluated),
            "conditions.values_enumerated": stats.values_enumerated,
            "conditions.cap_hits": stats.cap_hits,
            "operators.tuples_built": stats.tuples_built,
            "executor.partitions_recomputed": stats.partitions_recomputed,
            "executor.partitions_reused": stats.partitions_reused,
            "executor.result_cache_hit_ratio": _ratio(stats.result_cache_hits, store_lookups),
        }
    )
    absent = set(recorder.missing)
    absent.update(
        name for name, needs in DERIVED.items() if all(need in recorder.missing for need in needs)
    )
    return {name: value for name, value in values.items() if name not in absent}
