"""Set-up, the closed query loop and the metrics of one benchmark run.

Imported only after ``run.py`` has fixed the process environment
(``PYSPARK_SUBMIT_ARGS``, scratch directories, ``sys.path``).
"""
from __future__ import annotations

import statistics
import subprocess
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

import pandas as pd
from pyspark import SparkContext
from pyspark.sql import SparkSession

from repro.core.gm import GMResult, gm
from repro.core.matchsets import MatchContext
from repro.core.ordering import estimated_cost
from repro.graphs.model import Graph
from repro.queries.pattern import Pattern

from perfbench.gate import Gate
from perfbench.trace import NullTracer, SparkCounters, Tracer
from perfbench.workloads import Workload, load_graph

# The tier-1 session settings of the root conftest.py.
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
}
SETUP_REPS = 3


def start_session() -> SparkSession:
    b = SparkSession.builder.appName("perfbench")
    for k, v in SESSION_CONF.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown_jvm() -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    spark = SparkSession.getActiveSession()
    if spark is not None:
        spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    gw.shutdown()
    proc = getattr(gw, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway server exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


@dataclass
class Setup:
    """One set-up: a fresh session, the workload's graph and its MatchContext."""

    spark: SparkSession
    graph: Graph
    ctx: MatchContext
    seconds: float
    storage_mb: float

    def release(self) -> None:
        self.ctx.release()
        self.ctx.reach.unpersist()
        self.graph.unpersist()
        self.spark.stop()


def set_up(w: Workload, seed: int, tracer) -> Setup:
    """Session start + graph load + ``MatchContext`` (which builds the closure)."""
    t0 = time.perf_counter()
    spark = start_session()
    tracer.spark = SparkCounters(spark.sparkContext)
    with tracer.span("graphs.load"):
        g = load_graph(spark, w, seed)
        g.nodes.count()  # fill the caches: load means "held by Spark"
        g.edges.count()
    ctx = MatchContext(graph=g)
    seconds = time.perf_counter() - t0
    return Setup(spark, g, ctx, seconds, tracer.spark.storage_mb(g, ctx))


@dataclass
class QueryRun:
    """One issued query: its latency, and the answer or the error."""

    pattern: Pattern
    seconds: float
    answer: pd.DataFrame | None = None
    result: GMResult | None = None
    error: str = ""
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    verdict: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.error) or self.verdict is not None


def run_query(ctx: MatchContext, p: Pattern, w: Workload, tracer) -> QueryRun:
    """``gm()`` then collect every answer row: the paper's listing time."""
    kw = {"limit": w.cap, "partial_cap": 2 * w.cap} if w.cap else {}
    tracer.query = p.name
    traced = isinstance(tracer, Tracer)
    j0 = tracer.spark.last_job() if traced else 0
    t0 = time.perf_counter()
    try:
        with tracer.span("query"):
            with tracer.span("core.gm"):
                res = gm(ctx, p, **kw)
            with tracer.span("core.mjoin.exec"):
                answer = res.df.toPandas()
    except Exception as e:  # a failed query is counted; the loop goes on
        return QueryRun(p, time.perf_counter() - t0, error=f"{type(e).__name__}: {e}")
    finally:
        tracer.query = None
    run = QueryRun(p, time.perf_counter() - t0, answer, res)
    if traced:
        j1 = tracer.spark.last_job()
        run.jobs = j1 - j0
        run.stages, run.tasks = tracer.spark.stages_and_tasks(j0 + 1, j1)
    return run


def measure_pass(s: Setup, w: Workload, queries: list[Pattern], tracer) -> list[QueryRun]:
    """One pass, closed loop, one client: a query is issued once the previous one's rows are in.

    Each pass gets a fresh match-set cache, so every pass does the same
    work; the closure is shared.
    """
    ctx = MatchContext(graph=s.graph, reach=s.ctx.reach)
    try:
        return [run_query(ctx, p, w, tracer) for p in queries]
    finally:
        ctx.release()


def measure(s: Setup, w: Workload, queries: list[Pattern], seconds: float) -> list[QueryRun]:
    """Whole passes: the first always, then more while the last pass's time fits ``seconds``."""
    runs = measure_pass(s, w, queries, NullTracer())
    spent = last = sum(r.seconds for r in runs)
    while spent + last <= seconds:
        more = measure_pass(s, w, queries, NullTracer())
        last = sum(r.seconds for r in more)
        spent += last
        runs += more
    return runs


def _pass_seconds(runs: list[QueryRun]) -> float:
    return sum(r.seconds for r in runs)


def per_query_median(runs: list[QueryRun]) -> dict[str, float]:
    by_name: dict[str, list[float]] = {}
    for r in runs:
        by_name.setdefault(r.pattern.name, []).append(r.seconds)
    return {n: statistics.median(v) for n, v in by_name.items()}


def end_to_end(setups: list[tuple[float, float]], runs: list[QueryRun]) -> dict:
    lat = per_query_median(runs)
    return {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "query_p50_s": (statistics.median(lat.values()), "s"),
        "workload_s": (sum(lat.values()), "s"),
        "setup_storage_mb": (statistics.median(m for _, m in setups), "MB"),
    }


def layer_metrics(
    tracer: Tracer,
    runs: list[QueryRun],
    *,
    label_sizes: dict[str, int],
    n_nodes: int,
    closure_rows: int,
    overhead_s: float,
) -> dict:
    """Per-layer figures of one traced pass: sums over its queries, medians over set-ups."""
    pairs = list(zip(tracer.spans, tracer.self_times()))

    def setup_median(name, attr):
        return statistics.median(getattr(sp, attr) for sp, _ in pairs if sp.name == name)

    def total(name, attr="seconds"):
        return sum(getattr(sp, attr) for sp, _ in pairs if sp.name == name and sp.query)

    def self_total(name, k):
        return sum(own[k] for sp, own in pairs if sp.name == name and sp.query)

    def per_query(attr):
        return statistics.median(getattr(r, attr) for r in ok) if ok else 0

    ok = [r for r in runs if r.result is not None]
    rigs = [r.result.rig for r in ok]
    fb_rows = sum(sum(g.sim.counts.values()) for g in rigs)
    ms_rows = sum(
        label_sizes.get(r.result.pattern.label_of(q), 0)
        for r in ok
        for q in r.result.pattern.node_ids()
    )
    passes = sum(g.sim.passes for g in rigs)
    counts = sum(tracer.counts.values(), start=Counter())
    rig_edges = sum(sum(g.edge_counts.values()) for g in rigs)
    answers = sum(len(r.answer) for r in ok)
    sim_jobs = total("core.simulation", "jobs")
    return {
        "graphs.load_s": (setup_median("graphs.load", "seconds"), "s"),
        "graphs.jobs": (setup_median("graphs.load", "jobs"), "count"),
        "reach.closure_s": (setup_median("reach.closure", "seconds"), "s"),
        "reach.closure_jobs": (setup_median("reach.closure", "jobs"), "count"),
        "reach.closure_rows": (closure_rows, "rows"),
        "reach.closure_density": (closure_rows / n_nodes**2, "ratio"),
        "queries.reduce_s": (total("queries.reduce"), "s"),
        "queries.edges_removed": (
            sum(len(r.pattern.edges) - len(r.result.pattern.edges) for r in ok), "count"),
        "core.matchsets.ms_edge_calls": (counts["ms_edge_calls"], "count"),
        "core.matchsets.ms_edge_misses": (counts["ms_edge_misses"], "count"),
        "core.matchsets.hit_ratio": (
            1 - counts["ms_edge_misses"] / max(1, counts["ms_edge_calls"]), "ratio"),
        "core.simulation.s": (total("core.simulation"), "s"),
        "core.simulation.jobs": (sim_jobs, "count"),
        "core.simulation.passes": (passes, "count"),
        "core.simulation.jobs_per_pass": (sim_jobs / max(1, passes), "jobs/pass"),
        "core.simulation.fb_rows": (fb_rows, "rows"),
        "core.simulation.keep_ratio": (fb_rows / max(1, ms_rows), "ratio"),
        "core.rig.expand_s": (self_total("core.rig", 0), "s"),
        "core.rig.jobs": (self_total("core.rig", 1), "count"),
        "core.rig.nodes": (sum(sum(g.node_counts.values()) for g in rigs), "count"),
        "core.rig.edges": (rig_edges, "count"),
        "core.rig.empty_frac": (sum(g.empty for g in rigs) / max(1, len(rigs)), "ratio"),
        "core.ordering.s": (total("core.ordering"), "s"),
        "core.ordering.est_cost": (
            sum(estimated_cost(r.result.rig, r.result.order) for r in ok), "rows"),
        "core.mjoin.build_s": (total("core.mjoin.build"), "s"),
        "core.mjoin.exec_s": (total("core.mjoin.exec"), "s"),
        "core.mjoin.jobs": (total("core.mjoin.build", "jobs") + total("core.mjoin.exec", "jobs"), "count"),
        "core.mjoin.answers": (answers, "rows"),
        "core.mjoin.answers_per_rig_edge": (answers / max(1, rig_edges), "ratio"),
        "core.gm.other_s": (self_total("query", 0) + self_total("core.gm", 0), "s"),
        "spark.jobs_per_query": (per_query("jobs"), "count"),
        "spark.stages_per_query": (per_query("stages"), "count"),
        "spark.tasks_per_query": (per_query("tasks"), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def execute(w: Workload, seed: int, seconds: float, traced: bool, scratch) -> tuple[dict, dict]:
    """One benchmark run: returns the result object and the run record."""
    import pyspark

    tracer = Tracer() if traced else NullTracer()
    queries = w.queries()
    setups: list[tuple[float, float]] = []
    gate = None
    try:
        with tracer.installed() if traced else nullcontext():
            s = None
            for _ in range(SETUP_REPS):
                if s is not None:
                    s.release()
                s = set_up(w, seed, tracer)
                setups.append((s.seconds, s.storage_mb))
        nodes, edges = s.graph.to_pandas()
        gate = Gate(nodes, edges, temp_dir=str(scratch))
        if traced:
            # The untraced pass runs second, on a warmer JVM, so the
            # overhead (traced minus untraced) is an upper bound.
            with tracer.installed():
                runs = measure_pass(s, w, queries, tracer)
            untraced = measure_pass(s, w, queries, NullTracer())
            attempted = runs + untraced
        else:
            runs = attempted = measure(s, w, queries, seconds)
        for r in attempted:
            if r.answer is not None:
                r.verdict = gate.check(r.pattern, r.answer, w.cap)
        if traced:
            metrics = layer_metrics(
                tracer, runs,
                label_sizes=nodes["label"].value_counts().to_dict(),
                n_nodes=len(nodes),
                closure_rows=s.ctx.reach.count(),
                overhead_s=_pass_seconds(runs) - _pass_seconds(untraced),
            )
            tracer.dump(scratch.parent / f"{w.name}-seed{seed}-spans.jsonl")
        else:
            metrics = end_to_end(setups, runs)
        spark_conf = dict(s.spark.sparkContext.getConf().getAll())
    finally:
        if gate is not None:
            gate.close()
        shutdown_jvm()
    failed = sum(r.failed for r in attempted)
    result = {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "pyspark": pyspark.__version__,
        "spark_conf": spark_conf,
        "gate_reach_rows": gate.reach_rows,
        "setups": [{"seconds": t, "storage_mb": mb} for t, mb in setups],
        "queries": [
            {
                "name": r.pattern.name,
                "pattern": r.pattern.describe(),
                "seconds": r.seconds,
                "answers": None if r.answer is None else len(r.answer),
                "error": r.error,
                "verdict": r.verdict,
                "jobs": r.jobs,
            }
            for r in attempted
        ],
        "failed_frac": failed / len(attempted),
        "result": result,
    }
    return result, record
