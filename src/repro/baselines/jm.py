"""JM: the join-based baseline (paper §1, §7.1; R-Join style [12]).

JM decomposes the query into its edges, computes one match relation per
edge, picks an optimized *left-deep* plan by exhaustive dynamic
programming over edge orders, and evaluates it as a sequence of binary
(edge-at-a-time) joins. Its two documented failure modes, which the
guard surfaces as the paper's statuses:

* **OM** — intermediate join results explode (each step materializes
  the partial relation; ``guard.tick(rows)`` trips the row cap);
* **TO** — the DP planner enumerates exponentially many plans for
  queries with tens of nodes (the paper reports 2.4M plans for a
  24-node query), tripping the wall clock before evaluation starts.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.matchsets import MatchContext
from repro.core.simulation import fb_sim
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern, PEdge
from repro.queries.sql import col_name


def edge_relations(
    ctx: MatchContext, p: Pattern, *, prefilter: bool = True,
    guard: Guard | None = None,
) -> dict[PEdge, DataFrame]:
    """Per-edge match relations, optionally node-pre-filtered [11,63].

    The pre-filter is one double-simulation pass from the match sets.
    """
    rels: dict[PEdge, DataFrame] = {}
    pf = fb_sim(ctx, p, max_passes=1, guard=guard).fb if prefilter else None
    for e in p.edges:
        ms = ctx.ms_edge(p, e)
        if pf is not None:
            ms = ms.join(pf[e.src], ms["src"] == pf[e.src]["id"], "leftsemi")
            ms = ms.join(pf[e.dst], ms["dst"] == pf[e.dst]["id"], "leftsemi")
        rels[e] = ms.localCheckpoint(eager=True)
        if guard is not None:
            guard.tick(rels[e].count())
    return rels


def plan_left_deep(
    p: Pattern, card: dict[PEdge, int], node_card: dict[int, int],
    *, guard: Guard | None = None,
) -> list[PEdge]:
    """Exhaustive DP over connected left-deep edge orders.

    Cost = sum of estimated intermediate cardinalities under an
    independence model (joining edge e multiplies by |rel(e)| and by
    1/|ms(endpoint)| per already-bound endpoint). O(2^m) subsets — for
    large queries this loop is where JM legitimately times out.
    """
    edges = list(p.edges)
    eidx = {e: i for i, e in enumerate(edges)}
    states: dict[int, tuple[float, float, tuple[PEdge, ...], frozenset]] = {}
    for e in edges:
        c = float(max(1, card[e]))
        states[1 << eidx[e]] = (c, c, (e,), frozenset({e.src, e.dst}))
    best_full = None
    for _ in range(len(edges) - 1):
        nxt: dict[int, tuple[float, float, tuple[PEdge, ...], frozenset]] = {}
        for mask, (cost, crd, order, bound) in states.items():
            if guard is not None:
                guard.tick()
            for e in edges:
                b = 1 << eidx[e]
                if mask & b or (e.src not in bound and e.dst not in bound):
                    continue
                new_card = crd * max(1, card[e])
                for endpoint in (e.src, e.dst):
                    if endpoint in bound:
                        new_card /= max(1, node_card[endpoint])
                key = mask | b
                new_cost = cost + new_card
                if key not in nxt or new_cost < nxt[key][0]:
                    nxt[key] = (new_cost, new_card, order + (e,), bound | {e.src, e.dst})
        states = nxt
    full = (1 << len(edges)) - 1
    if full in states:
        best_full = list(states[full][2])
    if best_full is None:  # disconnected pattern: fall back to input order
        best_full = edges
    return best_full


def jm(
    ctx: MatchContext,
    p: Pattern,
    *,
    prefilter: bool = True,
    limit: int | None = None,
    guard: Guard | None = None,
) -> DataFrame:
    """Evaluate Q with edge-at-a-time binary joins along the DP plan."""
    rels = edge_relations(ctx, p, prefilter=prefilter, guard=guard)
    card = {e: rels[e].count() for e in p.edges}
    node_card = {q: ctx.ms_node(p, q).count() for q in p.node_ids()}
    plan = plan_left_deep(p, card, node_card, guard=guard)

    first = plan[0]
    partial = rels[first].select(
        rels[first]["src"].alias(col_name(first.src)),
        rels[first]["dst"].alias(col_name(first.dst)),
    )
    bound = {first.src, first.dst}
    for e in plan[1:]:
        rel = rels[e].select(
            rels[e]["src"].alias("_es"), rels[e]["dst"].alias("_ed")
        )
        conds = []
        if e.src in bound:
            conds.append(partial[col_name(e.src)] == rel["_es"])
        if e.dst in bound:
            conds.append(partial[col_name(e.dst)] == rel["_ed"])
        cond = conds[0]
        for c in conds[1:]:
            cond = cond & c
        partial = partial.join(rel, cond)
        if e.src not in bound:
            partial = partial.withColumnRenamed("_es", col_name(e.src))
        if e.dst not in bound:
            partial = partial.withColumnRenamed("_ed", col_name(e.dst))
        partial = partial.drop("_es", "_ed")
        bound |= {e.src, e.dst}
        # Edge-at-a-time: each binary-join intermediate is materialized,
        # which is exactly where JM explodes (guard -> OM).
        partial = partial.localCheckpoint(eager=True)
        if guard is not None:
            guard.tick(partial.count())
    out = partial.select(*[col_name(q) for q in p.node_ids()])
    if limit is not None:
        out = out.limit(limit)
    return out
