"""Double simulation (paper §4.2-§4.4) as one set-at-a-time fixpoint.

The double simulation ``FB`` of a query Q by a graph G is the largest
relation S ⊆ V_Q × V_G whose pairs satisfy label equality plus forward
(every out-edge of q has a matching successor/descendant in S) and
backward (every in-edge has a matching predecessor/ancestor) conditions
— with edge-to-path matches for reachability edges (Def. 4.1).

The paper's FBSimBas, FBSimDag and FBSim (Dag+Δ) are three schedules
that reach this one unique fixpoint. :func:`fb_sim` runs a single
schedule over two tagged relations, so the plan of a pass has the same
size whatever |E_Q| is:

* ``M(_e, qs, qd, src, dst)`` — every ms(e) tagged with its edge index
  and endpoint query nodes, built and checkpointed once per query;
* ``C(_q, id)`` — the candidates of every query node, checkpointed
  after each pass.

A pass joins M to C on each edge end: a candidate v of q gets a forward
tag per out-edge with a partner in C(qd) and a backward tag per in-edge
with a partner in C(qs). v survives iff its distinct tags number q's
undirected degree. Candidates shrink monotonically, so unchanged
per-node counts certify the fixpoint.

``max_passes`` implements §4.5's approximation (the paper fixes N=3);
``None`` runs to the exact fixpoint. Pass 1 from ``C = ms`` is the
one-pass node pre-filter [11,63] (partners in ms(e) already carry the
right labels), and ``max_passes=0`` keeps the match sets. A capped run
never loses answers — any superset of os(q) remains a valid RIG node
set (Def. 4.1).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.matchsets import MatchContext
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern

M_SCHEMA = "_e INT, qs INT, qd INT, src LONG, dst LONG"


@dataclass
class SimResult:
    """Final FB sets, per-node cardinalities, and passes to converge.

    ``matches`` (M) and ``candidates`` (C) are the tagged relations the
    pass ran on; RIG expansion reuses them.
    """

    fb: dict[int, DataFrame]
    counts: dict[int, int]
    passes: int
    converged: bool
    matches: DataFrame
    candidates: DataFrame

    @property
    def empty(self) -> bool:
        return any(c == 0 for c in self.counts.values())


def materialize(tagged: DataFrame, tag: str, keys) -> tuple[DataFrame, dict[int, int]]:
    """Checkpoint a tagged relation in ONE job and count it per tag in one more.

    Returns the checkpoint and the row count of each of ``keys`` (0 when
    absent). Per-tag sets are views filtered from the checkpoint, so a
    caller pays O(1) Spark actions instead of one per query node or edge.
    """
    tagged = tagged.localCheckpoint(eager=True)
    counted = {
        r[tag]: int(r["n"])
        for r in tagged.groupBy(tag).agg(F.count("*").alias("n")).collect()
    }
    return tagged, {k: counted.get(k, 0) for k in keys}


def _match_union(ctx: MatchContext, p: Pattern) -> DataFrame:
    """M: every ms(e) tagged with its edge index and endpoint query nodes."""
    if not p.edges:
        return ctx.graph.edges.sparkSession.createDataFrame([], M_SCHEMA)
    parts = (
        ctx.ms_edge(p, e).select(
            F.lit(i).alias("_e"), F.lit(e.src).alias("qs"), F.lit(e.dst).alias("qd"),
            "src", "dst",
        )
        for i, e in enumerate(p.edges)
    )
    return reduce(DataFrame.unionByName, parts).localCheckpoint(eager=True)


def semijoin_candidates(m: DataFrame, c: DataFrame, q: str, v: str) -> DataFrame:
    """Rows of M whose ``(q, v)`` end — ``("qs", "src")`` or ``("qd", "dst")`` — is in C."""
    return m.join(c.select(F.col("_q").alias(q), F.col("id").alias(v)), [q, v], "leftsemi")


def _one_pass(m: DataFrame, c: DataFrame, degree) -> DataFrame:
    """Keep (q, v) iff every edge incident to q has a partner of v in C."""
    fwd = semijoin_candidates(m, c, "qd", "dst").select(
        F.col("qs").alias("_q"), F.col("src").alias("id"), "_e"
    )
    # Backward tags are -e-1, so they never collide with forward tags.
    bwd = semijoin_candidates(m, c, "qs", "src").select(
        F.col("qd").alias("_q"), F.col("dst").alias("id"), (-F.col("_e") - 1).alias("_e")
    )
    support = fwd.unionByName(bwd).groupBy("_q", "id").agg(F.countDistinct("_e").alias("n"))
    return support.where(F.col("n") == F.element_at(degree, F.col("_q"))).select("_q", "id")


def fb_sim(
    ctx: MatchContext, p: Pattern, *, max_passes: int | None = 3,
    guard: Guard | None = None,
) -> SimResult:
    """Largest double simulation of Q (or its ``max_passes`` approximation).

    Stops on unchanged counts, on ``max_passes``, or on an empty FB(q):
    Q is connected, so one empty set empties every set (§4.3 example).
    """
    nodes = p.node_ids()
    degree = F.create_map(*chain.from_iterable(
        (F.lit(q), F.lit(p.undirected_degree(q))) for q in nodes
    ))
    m = _match_union(ctx, p)
    initial = (ctx.ms_node(p, q).select(F.lit(q).alias("_q"), "id") for q in nodes)
    c, counts = materialize(reduce(DataFrame.unionByName, initial), "_q", nodes)
    passes = 0
    # A lone query node has no edge to check; an empty FB(q) ends the run.
    converged = not p.edges or 0 in counts.values()
    while not converged and (max_passes is None or passes < max_passes):
        c, new_counts = materialize(_one_pass(m, c, degree), "_q", nodes)
        passes += 1
        if guard is not None:
            guard.tick(max(new_counts.values()))
        converged = new_counts == counts or 0 in new_counts.values()
        counts = new_counts
    if 0 in counts.values():
        c = c.limit(0)
        counts = {q: 0 for q in nodes}
    fb = {q: c.where(F.col("_q") == q).select("id") for q in nodes}
    return SimResult(
        fb=fb, counts=counts, passes=passes, converged=converged, matches=m, candidates=c,
    )
