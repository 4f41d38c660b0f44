"""Spans and Spark counters for the traced run, recorded from outside the program.

The traced process replaces the module attributes the program itself
calls (``repro.core.gm.build_rig`` and friends, see ``PATCHES``) with
wrappers that open a span around the original. Nothing under ``src/``
changes; an untraced run never installs the wrappers.

A span holds its name, start, end, parent and query id, plus the number
of Spark jobs launched while it was open. Jobs are counted as the
difference of the highest job id the status tracker knows, which stays
right when the tracker has dropped old jobs (it keeps only the last
``spark.ui.retainedJobs``).
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

from pyspark.sql import DataFrame

from repro.core.matchsets import MatchContext

# (module, attribute, span name): every call the program makes through
# these names is timed.
PATCHES = (
    ("repro.core.gm", "transitive_reduction", "queries.reduce"),
    ("repro.core.gm", "build_rig", "core.rig"),
    ("repro.core.rig", "fb_sim", "core.simulation"),
    ("repro.core.gm", "pick_order", "core.ordering"),
    ("repro.core.gm", "mjoin", "core.mjoin.build"),
    ("repro.core.matchsets", "transitive_closure", "reach.closure"),
)


class SparkCounters:
    """Job, stage, task and storage counts read from a live SparkContext."""

    def __init__(self, sc):
        self.sc = sc
        self.tracker = sc.statusTracker()
        self._jvm = sc._jvm

    def last_job(self) -> int:
        """Highest job id the status tracker knows, or -1 before the first job."""
        ids = self.tracker._jtracker.getJobIdsForGroup(None)
        # Take the max on the JVM side: iterating a Java array from
        # Python costs one gateway round trip per element.
        return self._jvm.java.util.Arrays.stream(ids).max().orElse(-1)

    def stages_and_tasks(self, first_job: int, last_job: int) -> tuple[int, int]:
        """Stages that ran and tasks they completed, over jobs ``first_job..last_job``."""
        stages: set[int] = set()
        tasks = 0
        for j in range(first_job, last_job + 1):
            job = self.tracker.getJobInfo(j)
            for s in job.stageIds if job is not None else ():
                if s in stages:
                    continue
                info = self.tracker.getStageInfo(s)
                if info is not None and info.numCompletedTasks > 0:  # not skipped
                    stages.add(s)
                    tasks += info.numCompletedTasks
        return len(stages), tasks

    def storage_mb(self, *roots) -> float:
        """Memory plus disk, in MB, of the cached and checkpointed RDD blocks ``roots`` hold.

        Only RDDs behind the DataFrames reachable from ``roots`` count.
        Superseded intermediates (the closure's earlier rounds) stay in
        storage until the JVM collects them, at no predictable time.
        """
        ids = set()
        for df in _dataframes(roots):
            qe = df._jdf.queryExecution()
            for plan in (qe.analyzed(), qe.withCachedData()):
                leaves = plan.collectLeaves()
                for i in range(leaves.size()):
                    ids.update(_rdd_ids(leaves.apply(i)))
        infos = self.sc._jsc.sc().getRDDStorageInfo()
        return sum(i.memSize() + i.diskSize() for i in infos if i.id() in ids) / 1e6


def _rdd_ids(leaf) -> list[int]:
    kind = leaf.getClass().getSimpleName()
    if kind == "LogicalRDD":
        return [leaf.rdd().id()]
    if kind == "InMemoryRelation" and leaf.cacheBuilder().isCachedColumnBuffersLoaded():
        return [leaf.cacheBuilder().cachedColumnBuffers().id()]
    return []


def _dataframes(roots):
    """DataFrames reachable from ``roots`` through attributes, dicts and sequences."""
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, DataFrame):
            yield obj
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and type(obj).__module__.startswith("repro."):
            stack.extend(vars(obj).values())


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    query: str | None
    jobs: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder. ``query`` tags spans and counters opened under it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str | None, Counter] = {}
        self.query: str | None = None
        self.spark: SparkCounters | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, 0.0, 0.0, parent, self.query)
        self.spans.append(sp)
        self._stack.append(idx)
        j0 = self.spark.last_job()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.jobs = self.spark.last_job() - j0
            self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.query, Counter())[key] += n

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Route the program's calls through spans while the block runs."""
        undo = []
        for mod_name, attr, span_name in PATCHES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            undo.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, span_name))
        ms_edge = MatchContext.ms_edge
        tracer = self

        @functools.wraps(ms_edge)
        def counted_ms_edge(ctx, p, e):
            before = len(ctx._edge_ms)
            out = ms_edge(ctx, p, e)
            tracer.count("ms_edge_calls")
            tracer.count("ms_edge_misses", len(ctx._edge_ms) - before)
            return out

        undo.append((MatchContext, "ms_edge", ms_edge))
        MatchContext.ms_edge = counted_ms_edge
        try:
            yield self
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)

    def self_times(self) -> list[tuple[float, int]]:
        """Per span: (seconds, jobs) not covered by its child spans."""
        out = [[sp.seconds, sp.jobs] for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent][0] -= sp.seconds
                out[sp.parent][1] -= sp.jobs
        return [(s, j) for s, j in out]

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for sp, (self_s, self_jobs) in zip(self.spans, self.self_times()):
                f.write(json.dumps({**asdict(sp), "self_s": self_s, "self_jobs": self_jobs}) + "\n")


class NullTracer:
    """The untraced run's tracer: spans cost nothing and record nothing."""

    def span(self, name: str):
        return nullcontext()
