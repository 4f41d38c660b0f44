"""Runtime Index Graph (paper §4.1, §4.5).

A RIG of Q over G is a k-partite graph: one candidate occurrence node
set ``cos(q)`` per query node and one candidate edge set ``cos(e)`` per
query edge, with os ⊆ cos ⊆ ms (Def. 4.1). It losslessly encodes every
homomorphism from Q to G (Prop. 4.1) and is the search space MJoin
enumerates over.

``build_rig`` follows Algorithm 4: *node selection* runs the double
simulation and takes ``cos(q) = FB(q)``; *node expansion* connects the
selected nodes in one batch over the simulation's tagged relations,
``cos(e) = M ⋉ C(qs, src) ⋉ C(qd, dst)`` — the dataflow analogue of the
paper's batched bitmap intersections ``adj(v) ∩ cos(q)``. The pass cap
selects the RIG the evaluation uses:

* ``max_passes=0``      -> match RIG G_Q^m (cos = ms; GF and EH)
* ``max_passes=1``      -> node pre-filtered RIG (GM-F)
* ``max_passes=3``      -> the paper's approximate FB (GM, default)
* ``max_passes=None``   -> exact double simulation
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.matchsets import MatchContext
from repro.core.simulation import SimResult, fb_sim, materialize, semijoin_candidates
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern, PEdge


@dataclass
class RIG:
    """k-partite candidate graph: node sets per query node, edge sets per query edge."""

    pattern: Pattern
    cos: dict[int, DataFrame]
    cos_edges: dict[PEdge, DataFrame]
    node_counts: dict[int, int]
    edge_counts: dict[PEdge, int]
    sim: SimResult | None
    build_seconds: float = 0.0

    @property
    def empty(self) -> bool:
        return any(c == 0 for c in self.node_counts.values()) or any(
            c == 0 for c in self.edge_counts.values()
        )

    def size(self) -> int:
        """Total nodes + edges — the paper's RIG-size metric (§7.4)."""
        return sum(self.node_counts.values()) + sum(self.edge_counts.values())


def build_rig(
    ctx: MatchContext,
    p: Pattern,
    *,
    max_passes: int | None = 3,
    guard: Guard | None = None,
) -> RIG:
    """Algorithm 4 (BuildRIG): select nodes via FB, then expand edges."""
    t0 = time.perf_counter()
    sim = fb_sim(ctx, p, max_passes=max_passes, guard=guard)
    c = sim.candidates
    cos_all = semijoin_candidates(sim.matches, c, "qs", "src")
    cos_all, counted = materialize(
        semijoin_candidates(cos_all, c, "qd", "dst"), "_e", range(len(p.edges))
    )
    cos_edges: dict[PEdge, DataFrame] = {}
    edge_counts: dict[PEdge, int] = {}
    for i, e in enumerate(p.edges):
        cos_edges[e] = cos_all.where(F.col("_e") == i).select("src", "dst")
        edge_counts[e] = counted[i]
        if guard is not None:
            guard.tick(edge_counts[e])
    return RIG(
        pattern=p,
        cos=dict(sim.fb),
        cos_edges=cos_edges,
        node_counts=dict(sim.counts),
        edge_counts=edge_counts,
        sim=sim,
        build_seconds=time.perf_counter() - t0,
    )
