"""The benchmark's four workloads.

Each workload generates its inputs from the run seed (untimed), then
offers three things to :mod:`run`:

* :meth:`Workload.setup` — one timed set-up: parse the generated HTML,
  build the ``Corpus`` and construct the engines (for the service:
  start the server, ingest, submit and run once);
* :meth:`Workload.measure` — repeat passes over the workload's fixed
  unit of work until ``seconds`` have passed (at least
  :data:`MIN_PASSES`), check every output, and fill in the end-to-end
  metrics;
* :meth:`Workload.unit` — one fixed unit of work (set-up included),
  run once untraced and once with the layer wrappers installed, for the
  per-layer split and the tracing overhead.

Every pass repeats the same work on freshly parsed documents and each
timed unit starts after a garbage collection.  Each unit's wall time is
reported at the reference host speed (:mod:`hostspeed`).  Timings are
medians over the run's passes; the run record keeps the sample counts.  The
end-to-end metrics mean the same on every workload, each measured on
the workload's own work:

``task_s``
    the fixed task: the suite of refinement sessions (``session-*``;
    each session's median over passes, summed), a batch cycle's cold,
    warm and edited executes (``batch-records``), a burst of both
    clients' closed loops (``service-mixed``);
``step_ms``
    the interactive step: the mean refinement-iteration wait of the
    suite, the median execute after a one-document edit, the mean run
    request to its last stream byte;
``superset_pct``
    result size as a percentage of the correct answer: the sessions'
    final results averaged over the suite, or the initial program's
    result.
"""

import gc
import http.client
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

from repro.ctables.assignments import value_text
from repro.ctables.export import table_to_dicts
from repro.experiments.runner import extracted_keys, run_iflex
from repro.experiments.tasks import build_task
from repro.observability.telemetry import TelemetrySink
from repro.processor.context import ExecConfig
from repro.processor.executor import IFlexEngine
from repro.text.corpus import Corpus
from repro.text.html_parser import parse_html
from repro.xlog.program import Program

from hostspeed import Clock
from layers import layer_metrics
from pages import page_html, page_task

__all__ = ["WORKLOADS", "Outcome"]

NPROC = os.cpu_count() or 1
#: every timed unit runs at least this often
MIN_PASSES = 2
HERE = os.path.dirname(os.path.abspath(__file__))


class Outcome:
    """What one run attempted, what failed, and what it measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}
        self.samples = {}
        self.info = {}

    def check(self, ok, message):
        """Record a failed operation unless ``ok``; returns ``ok``."""
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok


def _median(values):
    return statistics.median(values) if values else 0.0


def _html_tables(records):
    """``{table: [(doc_id, html)]}`` for datagen records."""
    return {
        table: [(r.doc.doc_id, r.html) for r in rows] for table, rows in records.items()
    }


def parse_corpus(tables):
    """Parse ``{table: [(doc_id, html)]}`` into a :class:`Corpus`."""
    return Corpus(
        {
            table: [parse_html(doc_id, html, meta={"table": table}) for doc_id, html in docs]
            for table, docs in tables.items()
        }
    )


def _chars_per_doc(corpus):
    return _median([len(doc.text) for name in corpus.table_names() for doc in corpus.table(name)])


def _image(result):
    """A byte-comparable image of every table an execution produced."""
    return json.dumps(
        {name: table_to_dicts(table) for name, table in sorted(result.tables.items())},
        sort_keys=True,
        ensure_ascii=False,
    )


def _naive(config):
    return ExecConfig(**dict(vars(config), use_index=False, use_eval_cache=False))


def _accel_speedup(program, tables, config):
    """Naive-config over default-config wall time of one cold execute.

    Each configuration runs on a freshly parsed corpus, so neither
    inherits the other's per-document memoisation.
    """
    times = []
    for cfg in (config, _naive(config)):
        engine = IFlexEngine(program, parse_corpus(tables), config=cfg)
        gc.collect()
        start = time.perf_counter()
        engine.execute()
        times.append(time.perf_counter() - start)
    return times[1] / times[0]


class _Stamps:
    """A telemetry stream that timestamps each record as it is emitted."""

    def __init__(self):
        self.iterations = []

    def write(self, line):
        if json.loads(line)["kind"] == "iteration":
            self.iterations.append(time.perf_counter())
        return len(line)

    def flush(self):
        pass


class Workload:
    """One workload: its generated inputs and how to set up, measure and trace it."""

    name = ""
    why = ""

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch
        self.recorder = None
        #: brackets the end-to-end units with host-speed reference samples
        self.clock = Clock()

    def setup(self):
        raise NotImplementedError

    def measure(self, seconds, outcome):
        raise NotImplementedError

    def prepare_unit(self):
        """Fresh inputs for the next :meth:`unit` (untimed)."""

    def unit(self, outcome):
        """One fixed unit of work with set-up; returns the per-layer extras."""
        raise NotImplementedError

    def traced_unit(self, outcome, recorder, trace_path):
        """:meth:`unit` under the layer wrappers; returns (extras, layers)."""
        self.recorder = recorder.install()
        try:
            with recorder.phase(self.name):
                extras = self.unit(outcome)
        finally:
            recorder.uninstall()
            self.recorder = None
        recorder.write_trace(trace_path)
        return extras, layer_metrics(recorder)

    def untraced(self):
        """Checks inside a traced unit run with the wrappers paused."""
        return self.recorder.paused() if self.recorder is not None else nullcontext()

    def accel_speedup(self):
        raise NotImplementedError

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        """Stop whatever :meth:`setup` left running (untimed)."""


# ----------------------------------------------------------------------
# refinement sessions
# ----------------------------------------------------------------------

class _Sessions(Workload):
    """Passes over a fixed suite of refinement sessions, one round per sub-seed."""

    #: (task id, size, page-sized?) run in every round
    TASKS = ()
    #: rounds (sub-seeds) in the suite, repeated every pass
    ROUNDS = 1

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self._first = self._generate(0)

    def _generate(self, index):
        """``[(task, html tables, sub-seed)]`` for round ``index``.

        Every call parses new documents, so no document carries memoised
        state from an earlier session.
        """
        sub = self.seed * 1000 + index
        tasks = []
        for task_id, size, paged in self.TASKS:
            task = build_task(task_id, size=size, seed=sub)
            if paged:
                task, html = page_task(task, sub)
            else:
                html = _html_tables(task.records)
            tasks.append((task, html, sub))
        return tasks

    def setup(self):
        for task, html, _ in self._first:
            corpus = parse_corpus(html)
            IFlexEngine(task.program, corpus)

    def _session(self, task, sub, outcome):
        """Run one session; returns (run, the wall time of each iteration).

        The last entry is the time from the last iteration record to the
        end of the session, so the entries sum to the session's time.
        """
        stamps = _Stamps()
        gc.collect()
        start = time.perf_counter()
        run = run_iflex(task, seed=sub, telemetry=TelemetrySink(stream=stamps))
        marks = [start] + stamps.iterations + [time.perf_counter()]
        parts = [b - a for a, b in zip(marks, marks[1:])]
        keys = extracted_keys(run.trace.final_result.query_table, task.key_attr)
        correct = {value_text(row[0]) for row in task.correct_rows}
        outcome.attempted += 1
        outcome.check(
            run.converged
            and run.final_count >= run.correct_count
            and (keys is None or keys >= correct),
            "%s sub-seed %d: session did not converge to a superset (converged=%s, %d of %d)"
            % (task.task_id, sub, run.converged, run.final_count, run.correct_count),
        )
        return run, parts

    def measure(self, seconds, outcome):
        """Rounds in suite order until ``seconds`` have passed (at least
        :data:`MIN_PASSES` whole passes); the deadline is checked after
        every round, so a run overshoots it by at most one round."""
        deadline = time.perf_counter() + seconds
        times, iterations, sessions, waits = {}, {}, [], []
        rounds = 0
        while rounds < MIN_PASSES * self.ROUNDS or time.perf_counter() < deadline:
            passes, index = divmod(rounds, self.ROUNDS)
            tasks = self._first if rounds == 0 else self._generate(index)
            for task, _, sub in tasks:
                self.clock.mark()
                run, parts = self._session(task, sub, outcome)
                factor = self.clock.factor()
                parts = [part * factor for part in parts]
                waits.extend(parts[:-1])
                key = (index, task.task_id)
                times.setdefault(key, []).append(sum(parts))
                iterations[key] = run.iterations
                if passes == 0:
                    sessions.append(
                        {
                            "task": run.task_id,
                            "sub_seed": sub,
                            "converged": run.converged,
                            "exact_keys": run.exact_keys,
                            "iterations": run.iterations,
                            "questions": run.questions,
                            "superset_pct": run.superset_pct,
                        }
                    )
            rounds += 1
        suite = sum(_median(samples) for samples in times.values())
        outcome.metrics.update(
            task_s=suite,
            step_ms=1000.0 * suite / sum(iterations.values()),
            superset_pct=statistics.fmean(s["superset_pct"] for s in sessions),
        )
        outcome.samples.update(rounds=rounds, sessions=len(sessions), iterations=len(waits))
        outcome.info.update(sessions=sessions, iteration_p50_ms=1000.0 * _median(waits))

    def prepare_unit(self):
        self._first = self._generate(0)

    def unit(self, outcome):
        self.setup()
        runs = [self._session(task, sub, outcome)[0] for task, _, sub in self._first]
        return {
            "text.chars_per_doc": _median([_chars_per_doc(task.corpus) for task, _, _ in self._first]),
            "ctables.tuples_out": sum(run.final_count for run in runs),
            "ctables.assignments_out": sum(run.trace.final_result.assignment_count for run in runs),
        }

    def accel_speedup(self):
        ratios = [_accel_speedup(task.program, html, ExecConfig()) for task, html, _ in self._first]
        return statistics.fmean(ratios)


class SessionPages(_Sessions):
    name = "session-pages"
    why = (
        "The paper's question loop (T7 and T5 sessions) on page-sized documents, "
        "where the feature indexes, columnar bundles and eval cache do their work."
    )
    TASKS = (("T7", 400, True), ("T5", 250, True))
    ROUNDS = 1


class SessionJoin(_Sessions):
    name = "session-join"
    why = (
        "T9 sessions joining B&N and Amazon with similar(): join, condition "
        "evaluation and psi dominate, and convergence quality is the anchor."
    )
    TASKS = (("T9", 80, False),)
    ROUNDS = 5


# ----------------------------------------------------------------------
# record-scale batch
# ----------------------------------------------------------------------

class BatchRecords(Workload):
    name = "batch-records"
    why = (
        "The T1 initial program over thousands of record-sized documents with a "
        "result store: per-tuple work, the codec, store reads and writes, the scheduler."
    )
    SIZE = 2000
    EDITS = 2

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.task = build_task("T1", size=self.SIZE, seed=seed)
        (self.table, rows), = self.task.records.items()
        self.html = [(r.doc.doc_id, r.html) for r in rows]
        self.corpus = None
        self._stores = 0
        #: images of the untimed cold references: unedited, fully edited
        self._reference = None

    def config(self, store):
        return ExecConfig(workers=NPROC, result_cache=store)

    def setup(self):
        self.corpus = parse_corpus({self.table: self.html})
        IFlexEngine(self.task.program, self.corpus, config=self.config(None))

    def _execute(self, corpus, store, clock=None):
        """(result, wall seconds), scaled by ``clock`` when given."""
        engine = IFlexEngine(self.task.program, corpus, config=self.config(store))
        gc.collect()
        if clock is not None:
            clock.mark()
        start = time.perf_counter()
        result = engine.execute()
        seconds = time.perf_counter() - start
        return result, seconds * clock.factor() if clock is not None else seconds

    def _edited(self, corpus, slot):
        """``corpus`` with document number ``slot`` of the pass revised."""
        doc_id, html = self.html[(slot + 1) * 7919 % len(self.html)]
        doc = parse_html(doc_id, html + "<p>Revised %d.</p>" % slot, meta={"table": self.table})
        docs = [doc if d.doc_id == doc_id else d for d in corpus.table(self.table)]
        return Corpus({self.table: docs})

    def cycle(self, outcome, clock=None):
        """Cold, warm and edited executes against one fresh store.

        Every cycle does the same work: the same documents are edited in
        the same order.  The first cycle's results are checked against
        untimed cold executes without a store; later cycles must
        reproduce them byte for byte.  Returns (cold result, cold s,
        warm s, [edit s]), each time scaled by ``clock`` when given.
        """
        self._stores += 1
        store = os.path.join(self.scratch, "store-%d" % self._stores)
        cold, cold_s = self._execute(self.corpus, store, clock)
        warm, warm_s = self._execute(self.corpus, store, clock)
        corpus, edit_times, results = self.corpus, [], []
        for slot in range(self.EDITS):
            corpus = self._edited(corpus, slot)
            result, seconds = self._execute(corpus, store, clock)
            edit_times.append(seconds)
            results.append(result)
        shutil.rmtree(store, ignore_errors=True)
        outcome.attempted += 2 + self.EDITS
        reference = self.references()
        images = [_image(r) for r in (cold, warm, results[-1])]
        outcome.check(images[0] == reference[0], "cold result differs from the reference")
        outcome.check(images[1] == reference[0], "warm result differs from the reference")
        outcome.check(images[2] == reference[1], "edited result differs from the reference")
        return cold, cold_s, warm_s, edit_times

    def references(self):
        """Images of untimed cold executes without a store: unedited, fully edited."""
        if self._reference is None:
            with self.untraced():
                corpus = parse_corpus({self.table: self.html})
                self._reference = [_image(self._execute(corpus, None)[0])]
                for slot in range(self.EDITS):
                    corpus = self._edited(corpus, slot)
                self._reference.append(_image(self._execute(corpus, None)[0]))
        return self._reference

    def prepare_unit(self):
        self.references()

    def measure(self, seconds, outcome):
        deadline = time.perf_counter() + seconds
        cycles, colds, warms, edits = [], [], [], []
        self.references()
        while len(colds) < MIN_PASSES or time.perf_counter() < deadline:
            if colds:
                self.corpus = parse_corpus({self.table: self.html})  # no memoised state
            cold, cold_s, warm_s, edit_times = self.cycle(outcome, self.clock)
            cycles.append(cold_s + warm_s + sum(edit_times))
            colds.append(cold_s)
            warms.append(warm_s)
            edits.append(edit_times)
        outcome.metrics.update(
            task_s=_median(cycles),
            step_ms=1000.0 * _median([t for times in edits for t in times]),
            superset_pct=100.0 * cold.tuple_count / len(self.task.correct_rows),
        )
        outcome.samples.update(passes=len(colds))
        outcome.info.update(cold_p50_s=_median(colds), warm_p50_s=_median(warms))

    def unit(self, outcome):
        self.setup()
        cold, _, _, _ = self.cycle(outcome)
        return {
            "text.chars_per_doc": _chars_per_doc(self.corpus),
            "ctables.tuples_out": cold.tuple_count,
            "ctables.assignments_out": cold.assignment_count,
        }

    def accel_speedup(self):
        return _accel_speedup(self.task.program, {self.table: self.html}, self.config(None))


# ----------------------------------------------------------------------
# live service
# ----------------------------------------------------------------------

class _Server:
    """One ``perfbench/serve.py`` subprocess (``repro serve --port 0``)."""

    def __init__(self, scratch, index, traced):
        self.stats_path = os.path.join(scratch, "server-%d.json" % index)
        self.trace_path = os.path.join(scratch, "server-%d-trace.json" % index)
        argv = [sys.executable, os.path.join(HERE, "serve.py"), self.stats_path]
        if traced:
            argv.append(self.trace_path)
        self.log = open(os.path.join(scratch, "server-%d.log" % index), "wb")
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self.log, cwd=os.path.dirname(HERE)
        )
        self.port = self._await_port(timeout=120)

    def _await_port(self, timeout):
        deadline = time.monotonic() + timeout
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 1.0)
            if ready:
                line = self.process.stdout.readline()
                if not line:
                    break
                if b"listening on" in line:
                    return int(line.strip().rsplit(b":", 1)[1])
        self.stop()
        raise RuntimeError("service did not start (last line %r)" % line)

    def request(self, method, path, payload=None):
        """``(status, body bytes)``; the body is read to its last byte."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=300)
        try:
            body = json.dumps(payload).encode("utf-8") if payload is not None else None
            conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self):
        """SIGTERM, wait, and return the launcher's stats (``{}`` if none)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()
        if not os.path.exists(self.stats_path):
            return {}
        with open(self.stats_path, encoding="utf-8") as fh:
            return json.load(fh)


def _stream_tuples(body):
    lines = [json.loads(line) for line in body.splitlines() if line.strip()]
    if not lines or lines[0].get("type") != "header" or lines[-1].get("type") != "summary":
        return None
    return [
        json.dumps({k: v for k, v in line.items() if k != "type"}, sort_keys=True)
        for line in lines
        if line.get("type") == "tuple"
    ]


class ServiceMixed(Workload):
    name = "service-mixed"
    why = (
        "A live repro serve with two closed-loop clients running the T7 program, "
        "one run in five after a page upsert: lock, NDJSON export and delta path."
    )
    SIZE = 700
    CLIENTS = min(2, NPROC)
    #: runs per client in one burst; the last is preceded by an upsert
    RUNS = 5
    #: bursts in the traced unit
    UNIT_BURSTS = 3

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        task = build_task("T7", size=self.SIZE, seed=seed)
        self.task, pages = page_task(task, seed)
        (self.table, self.pages), = pages.items()
        self.records = task.records[self.table]
        self.source = self.task.program.source()
        self.query = self.task.program.query
        self.current = dict(self.pages)
        # the server's work runs in another process, on any CPU
        self.clock = Clock(every_cpu=True)
        self.server = None
        self.program_id = None
        self.first_tuples = 0
        self.server_stats = {}
        self._servers = 0
        self._bursts = 0
        self._last_trace = None
        self._lock = threading.Lock()

    def _ok(self, status, body, what):
        if not 200 <= status < 300:
            raise RuntimeError("%s: HTTP %d %s" % (what, status, body[:200]))
        return body

    def setup(self, traced=False):
        """Start a server, ingest every page, submit the program, run once."""
        self.close()  # stopping an earlier server is not set-up time
        self._servers += 1
        self.server = _Server(self.scratch, self._servers, traced)
        self.current = dict(self.pages)
        documents = [{"doc_id": d, "html": h} for d, h in self.pages]
        request = self.server.request
        self._ok(*request("POST", "/documents", {"table": self.table, "documents": documents}), "ingest")
        program = {"source": self.source, "query": self.query, "tables": [self.table]}
        self.program_id = json.loads(self._ok(*request("POST", "/programs", program), "submit"))[
            "program_id"
        ]
        body = self._ok(*request("POST", "/programs/%s/run" % self.program_id, {}), "first run")
        self.first_tuples = len(_stream_tuples(body) or ())

    def _client(self, index, burst, outcome, record):
        """``RUNS`` run requests, one of them after an upsert of one edited page.

        Client ``i`` upserts before its run number ``RUNS - 2 * i``, so the
        clients' upserts do not meet: two upserts that land together are
        folded into one recompute, and a burst's time would depend on
        whether they met.
        """
        position = (burst * self.CLIENTS + index) % len(self.pages)
        rng = random.Random("edit-%d-%d-%d" % (self.seed, burst, index))
        edit_at = max(1, self.RUNS - 2 * index)
        for number in range(1, self.RUNS + 1):
            edit_start = None
            if number == edit_at:
                doc_id = self.pages[position][0]
                html = page_html(self.records[position].html, rng)
                edit_start = time.perf_counter()
                status, _ = self.server.request(
                    "POST",
                    "/documents",
                    {"table": self.table, "documents": [{"doc_id": doc_id, "html": html}]},
                )
                with self._lock:
                    outcome.attempted += 1
                    outcome.check(200 <= status < 300, "upsert HTTP %d" % status)
                    self.current[doc_id] = html
                    record["requests"] += 1
            start = time.perf_counter()
            status, body = self.server.request("POST", "/programs/%s/run" % self.program_id, {})
            end = time.perf_counter()
            with self._lock:
                outcome.attempted += 1
                outcome.check(
                    200 <= status < 300 and b'"summary"' in body[-4096:], "run HTTP %d" % status
                )
                record["requests"] += 1
                record["runs"].append(end - start)
                if edit_start is not None:
                    record["edits"].append(end - edit_start)

    def burst(self, outcome):
        """Both clients' closed loops, started together; returns the record."""
        self._bursts += 1
        record = {"requests": 0, "runs": [], "edits": []}
        threads = [
            threading.Thread(target=self._client, args=(i, self._bursts, outcome, record))
            for i in range(self.CLIENTS)
        ]
        gc.collect()
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        record["seconds"] = time.perf_counter() - start
        return record

    def _final_check(self, outcome):
        """The last stream must equal an in-bench execute over the final corpus."""
        status, body = self.server.request("POST", "/programs/%s/run" % self.program_id, {})
        outcome.attempted += 1
        streamed = _stream_tuples(body) if status == 200 else None
        program = Program.parse(self.source, extensional=[self.table], query=self.query)
        corpus = parse_corpus({self.table: [(d, self.current[d]) for d, _ in self.pages]})
        result = IFlexEngine(program, corpus).execute()
        expected = [
            json.dumps(row, sort_keys=True) for row in table_to_dicts(result.query_table)["tuples"]
        ]
        outcome.check(
            streamed is not None and sorted(streamed) == sorted(expected),
            "last stream differs from an in-bench execute over the final corpus",
        )
        return result

    def measure(self, seconds, outcome):
        deadline = time.perf_counter() + seconds
        bursts = []
        self.clock.mark()  # bursts follow each other: one sample between two
        while len(bursts) < MIN_PASSES or time.perf_counter() < deadline:
            record = self.burst(outcome)
            factor = self.clock.factor()
            for key in ("runs", "edits"):
                record[key] = [t * factor for t in record[key]]
            record["seconds"] *= factor
            bursts.append(record)
        self._final_check(outcome)
        runs = sorted(t for b in bursts for t in b["runs"])
        outcome.metrics.update(
            task_s=_median([b["seconds"] for b in bursts]),
            step_ms=1000.0 * statistics.fmean(runs),
            superset_pct=100.0 * self.first_tuples / len(self.task.correct_rows),
        )
        outcome.samples.update(passes=len(bursts), runs=len(runs))
        outcome.info.update(
            run_p50_ms=1000.0 * _median(runs),
            run_p95_ms=1000.0 * runs[int(0.95 * (len(runs) - 1))],
            edit_p50_ms=1000.0 * _median([t for b in bursts for t in b["edits"]]),
            requests_per_s=sum(b["requests"] for b in bursts) / sum(b["seconds"] for b in bursts),
        )

    def unit(self, outcome, traced=False):
        self.setup(traced)
        for _ in range(self.UNIT_BURSTS):
            self.burst(outcome)
        result = self._final_check(outcome)
        self.close()
        return {
            "text.chars_per_doc": _chars_per_doc(self.task.corpus),
            "ctables.tuples_out": result.tuple_count,
            "ctables.assignments_out": result.assignment_count,
        }

    def traced_unit(self, outcome, recorder, trace_path):
        """The unit against a server that installs the layer wrappers itself."""
        extras = self.unit(outcome, traced=True)
        shutil.copyfile(self._last_trace, trace_path)
        return extras, self.server_stats.get("layers", {})

    def accel_speedup(self):
        return _accel_speedup(
            self.task.program, {self.table: self.pages}, ExecConfig(partition_docs=1)
        )

    def peak_rss_mb(self):
        self.close()
        return self.server_stats.get("peak_rss_mb", 0.0)

    def close(self):
        if self.server is not None:
            self.server_stats = self.server.stop()
            self._last_trace = self.server.trace_path
            self.server = None


WORKLOADS = {
    cls.name: cls for cls in (SessionPages, SessionJoin, BatchRecords, ServiceMixed)
}
