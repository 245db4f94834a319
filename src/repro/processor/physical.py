"""The physical execution layer: partitioned, scheduled plan execution.

:class:`PhysicalExecutor` sits between the engine's per-predicate loop
and the operator trees.  For each predicate it

1. asks the plan-analysis layer (:mod:`repro.processor.split`) for the
   document-local prefix / global suffix split;
2. partitions the corpus (``Corpus.partition``) and executes the prefix
   once per partition on the configured :class:`Scheduler` backend —
   a scan of a partition-local upstream predicate reads that
   predicate's table *for the same partition*, which each partition
   context binds into ``context.relations``;
3. unions the per-partition compact tables (``CompactTable.union``,
   preserving maybe flags and multiset semantics — and, because
   partitions are contiguous document slices processed in order, the
   exact serial tuple order);
4. executes the global suffix once against the merged tables.

With one worker (the default) every plan executes exactly as the
original single-threaded engine did — same operators, same context,
same statistics — so serial behaviour is the identity baseline the
determinism tests compare the backends against.

Per-partition work re-compiles the predicate's plan from the program:
compilation is deterministic and cheap relative to extraction, and
fresh trees mean no operator state is shared across workers.
"""

from contextlib import nullcontext

from repro.ctables.ctable import CompactTable
from repro.features.registry import default_registry
from repro.observability.logs import get_logger
from repro.processor.context import ExecutionContext
from repro.processor.plan import compile_predicate
from repro.processor.schedulers import TaskError, make_scheduler
from repro.processor.split import PlanSplit, align, bind_tables
from repro.processor.tracing import merge_traces, trace_plan

__all__ = ["PhysicalExecutor"]

logger = get_logger("processor")


def _partition_span(tracer, corpus, pid):
    """The per-partition root span (or a no-op without a tracer)."""
    if tracer is None:
        return nullcontext()
    return tracer.span(
        "partition[%d]" % pid,
        category="partition",
        partition=pid,
        documents=sum(corpus.size_of(name) for name in corpus.table_names()),
    )


class PhysicalExecutor:
    """Executes one (unfolded) program's plans over a partitioned corpus.

    With a ``tracer``, every scheduler ``map`` records a scheduler span
    and each partition task builds its *own*
    :class:`~repro.observability.spans.Tracer` whose spans ride back as
    the last element of the task's result tuple — across the process
    backend's fork result pipe exactly like ``ExecutionStats`` — and are
    grafted under the scheduler span on arrival.  Timestamps stay
    comparable because ``time.perf_counter`` is the system-wide
    monotonic clock, shared by forked children.

    ``order`` is the program's evaluation order (groups of predicate
    names, dependencies first); with it the executor judges which
    predicates are partition-local (:func:`~repro.processor.split.align`).
    Without it every intensional scan stays global.

    The partition-level methods take ``upstream`` — ``{predicate:
    [table per partition]}`` for the partition-local predicates this
    execution computed partition by partition.  A plan that scans only
    those is local as a whole; any other scan reads the merged table.
    """

    def __init__(
        self,
        program,
        corpus,
        features,
        config,
        scheduler=None,
        index_store=None,
        tracer=None,
        order=None,
    ):
        self.program = program
        self.order = order or ()
        self.corpus = corpus
        # resolved once: feature objects are stateless, so every
        # partition context shares one registry, as a serial run does
        self.features = features or default_registry()
        self.config = config
        self.tracer = tracer
        #: shared per-document feature indexes (thread-shared /
        #: fork-inherited; content-keyed, so sharing is always sound)
        self.index_store = index_store
        self.scheduler = scheduler or make_scheduler(
            getattr(config, "backend", "serial"), getattr(config, "workers", 1)
        )
        workers = getattr(config, "workers", 1)
        partition_docs = getattr(config, "partition_docs", None)
        if partition_docs:
            # fixed-size chunks: boundaries are positionally stable, so
            # a resident engine's partition-keyed reuse survives corpus
            # growth (appends only touch the tail chunks)
            self.partitions = corpus.chunk(partition_docs)
        else:
            self.partitions = corpus.partition(workers) if workers > 1 else [corpus]
        self.timeout = getattr(config, "partition_timeout", None)
        self._plans = {}
        self._splits = {}
        self._aligned = None
        #: fork-inherited objects result spans point into; the process
        #: backend ships these by reference instead of re-pickling the
        #: corpus once per partition
        self._shared = [
            doc for name in corpus.table_names() for doc in corpus.table(name)
        ]
        #: bytes shipped across address-space boundaries by this
        #: executor's scheduler ``map`` calls (the
        #: ``repro.sched.payload_bytes`` metric; 0 in-process)
        self.payload_bytes = 0

    def _artifact_refs(self):
        """Columnar-bundle mmap refs for the fork payload (maybe empty)."""
        store = getattr(self.index_store, "columnar", None)
        if store is None:
            return ()
        return tuple(store.artifact_refs())

    @property
    def parallel(self):
        return len(self.partitions) > 1

    # ------------------------------------------------------------------
    # plan analysis (cached per predicate; used for routing decisions)
    # ------------------------------------------------------------------
    def _plan(self, name):
        """The predicate's compiled plan, for analysis only (never run)."""
        if name not in self._plans:
            self._plans[name] = compile_predicate(name, self.program)
        return self._plans[name]

    @property
    def aligned(self):
        """``{predicate: doc-anchored positions}`` of the partition-local
        predicates, judged once in evaluation order."""
        if self._aligned is None:
            aligned = {}
            for group in self.order:
                for name in group:
                    align(name, self._plan(name), aligned)
            self._aligned = aligned
        return self._aligned

    def split(self, name, upstream=None):
        """The plan split of ``name`` given the ``upstream`` slices."""
        aligned = {p: self.aligned[p] for p in upstream or () if p in self.aligned}
        key = (name, frozenset(aligned))
        if key not in self._splits:
            self._splits[key] = PlanSplit(self._plan(name), aligned)
        return self._splits[key]

    def fully_local(self, name, upstream=None):
        return self.split(name, upstream).fully_local

    # ------------------------------------------------------------------
    # partition-level execution
    # ------------------------------------------------------------------
    def _map(self, work, pids, label=""):
        """Scheduler ``map`` with partition-attributed failures.

        The scheduler reports failures by *task index*; this layer knows
        which corpus partition each task was, stamps it onto the
        failure, and re-raises the bare :class:`ExecutionFailure` so the
        engine's error policy sees the same exception type whether the
        plan ran serially or partitioned.

        With a tracer, the whole ``map`` is recorded as a scheduler
        span, and each task's result tuple carries its partition span
        list as the *last* element; that element is stripped here and
        adopted into the tracer, so callers see the untraced result
        shapes.
        """
        if self.tracer is None:
            return self._map_raw(work, pids)
        with self.tracer.span(
            "scheduler.map",
            category="scheduler",
            backend=self.scheduler.name,
            workers=self.scheduler.workers,
            tasks=len(pids),
            predicate=label,
        ) as scheduler_span:
            results = self._map_raw(work, pids)
            stripped = []
            for result in results:
                *rest, spans = result
                self.tracer.adopt(spans, parent=scheduler_span)
                stripped.append(tuple(rest))
            return stripped

    def _map_raw(self, work, pids):
        try:
            return self.scheduler.map(
                work,
                pids,
                shared=self._shared,
                timeout=self.timeout,
                artifacts=self._artifact_refs(),
            )
        except TaskError as error:
            failure = error.failure if error.failure is not None else error
            if failure.partition is None and error.task_index is not None:
                failure.partition = pids[error.task_index]
            if failure.__cause__ is None:
                failure.__cause__ = error.__cause__
            raise failure from error.__cause__
        finally:
            self.payload_bytes += getattr(
                self.scheduler, "last_map_payload_bytes", 0
            )

    def _partition_context(self, pid, tracer=None, upstream=None):
        # The index store is shared (document content never changes);
        # the eval cache is *fresh* per partition so hit/miss counters
        # are backend-independent and sum to the serial counts — cache
        # keys are document-scoped and partitions document-disjoint, so
        # a shared cache could not produce extra hits anyway.
        context = ExecutionContext(
            self.program,
            self.partitions[pid],
            self.features,
            self.config,
            index_store=self.index_store,
            tracer=tracer,
        )
        for predicate, tables in (upstream or {}).items():
            context.relations[predicate] = tables[pid]
        return context

    def _worker_tracer(self):
        """A fresh tracer for one partition task, or ``None``.

        Workers never write to the executor's own tracer (thread races;
        fork children mutate a dead copy) — each task records into its
        own and the spans travel home inside the result tuple.
        """
        if self.tracer is None:
            return None
        from repro.observability.spans import Tracer

        return Tracer()

    def _run_local_roots(self, name, pids, upstream, traced):
        """Execute the split's local roots once per partition in ``pids``.

        Returns ``[(tables, stats, collected)]`` in ``pids`` order:
        one table per local root, and — when ``traced`` — one operator
        trace list per local root (``None`` otherwise).  Each task
        compiles a fresh plan, so no operator state crosses workers;
        the upstream slices reach forked workers by inheritance.
        """
        whole = self.split(name, upstream).fully_local

        def work(pid):
            tracer = self._worker_tracer()
            context = self._partition_context(pid, tracer, upstream)
            plan = compile_predicate(name, self.program)
            roots = [plan] if whole else PlanSplit(plan).local_roots
            if traced:
                roots = [trace_plan(root) for root in roots]
            with _partition_span(tracer, self.partitions[pid], pid):
                tables = [root.execute(context) for root in roots]
            collected = [root.collect() for root in roots] if traced else None
            if tracer is None:
                return tables, context.stats, collected
            return tables, context.stats, collected, tracer.spans

        return self._map(work, list(pids), label=name)

    def execute_local_partitions(self, name, pids=None, upstream=None, traced=False):
        """Run a *fully local* predicate plan on each requested partition.

        Returns ``[(table, stats, traces)]`` in partition order;
        ``traces`` is the operator trace list when ``traced`` (else
        ``None``).  The engine's partition-keyed reuse cache calls this
        with only the partitions whose cached tables could not be
        reused, so a traced call measures exactly the recomputed work.
        """
        pids = range(len(self.partitions)) if pids is None else pids
        return [
            (tables[0], stats, collected[0] if traced else None)
            for tables, stats, collected in self._run_local_roots(
                name, pids, upstream, traced
            )
        ]

    # ------------------------------------------------------------------
    # whole-plan execution
    # ------------------------------------------------------------------
    def execute_plan(self, name, context, traced=False):
        """Execute one predicate's plan over the whole corpus.

        Returns ``(table, traces)``; ``traces`` is ``None`` unless
        ``traced``, else a depth-ordered list of
        :class:`~repro.processor.tracing.OperatorTrace` rows.  Parallel
        runs partition the document-local prefix across the scheduler;
        serial runs (or plans with no local work, e.g. pure joins over
        merged intensional tables) execute the tree directly.  Partition
        statistics merge into ``context.stats``, so counters match a
        serial execution exactly.  Traced prefix operators are measured
        in every partition and merged positionally (tuple counts sum to
        the serial counts; elapsed is the summed per-partition self
        time), nested under the suffix's gather leaf so
        ``explain_analyze`` still attributes cost per operator.
        """
        info = self.split(name)
        if not self.parallel or not info.has_local_work:
            plan = compile_predicate(name, self.program)
            if not traced:
                return plan.execute(context), None
            plan = trace_plan(plan)
            return plan.execute(context), plan.collect()

        pids = range(len(self.partitions))
        per_partition = self._run_local_roots(name, pids, None, traced)
        for _, stats, _ in per_partition:
            context.stats.merge(stats)
        gathered = self._gather(info, [tables for tables, _, _ in per_partition])
        suffix = bind_tables(
            PlanSplit(compile_predicate(name, self.program)),
            gathered,
            partitions=len(self.partitions),
        )
        if not traced:
            return suffix.execute(context), None
        merged = [
            merge_traces([collected[i] for _, _, collected in per_partition])
            for i in range(len(info.local_roots))
        ]
        traced_suffix = trace_plan(suffix)
        table = traced_suffix.execute(context)
        return table, _collect_with_prefixes(traced_suffix, merged)

    def _gather(self, info, tables_per_partition):
        """Union each local root's per-partition tables, root by root."""
        return [
            CompactTable.union(
                [tables[i] for tables in tables_per_partition],
                attrs=info.local_roots[i].attrs,
            )
            for i in range(len(info.local_roots))
        ]


def _collect_with_prefixes(traced, merged_by_index):
    """Suffix traces with each gather leaf's merged prefix nested under it."""
    from repro.processor.split import GatherOp
    from repro.processor.tracing import OperatorTrace

    out = [traced.trace]
    operator = traced._operator
    if isinstance(operator, GatherOp):
        base_depth = traced.trace.depth + 1
        for row in merged_by_index[operator.index]:
            out.append(
                OperatorTrace(
                    describe=row.describe,
                    depth=row.depth + base_depth,
                    elapsed=row.elapsed,
                    subtree_elapsed=row.subtree_elapsed,
                    out_tuples=row.out_tuples,
                    out_assignments=row.out_assignments,
                    maybe_tuples=row.maybe_tuples,
                    cache_hits=row.cache_hits,
                    cache_misses=row.cache_misses,
                )
            )
    for child in traced.children():
        out.extend(_collect_with_prefixes(child, merged_by_index))
    return out
