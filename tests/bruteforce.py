"""Driver-side reference implementations for cross-checking Spark results.

Independent of every module under test: reachability by per-source DFS,
homomorphism enumeration by backtracking, double simulation by naive
pruning to fixpoint, node pre-filtering by one existence check per
edge. Only for tiny graphs (tens of nodes).
"""
from __future__ import annotations

import pandas as pd

from repro.queries.pattern import CHILD, Pattern


def adjacency(edges: pd.DataFrame) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for s, d in edges.itertuples(index=False):
        adj.setdefault(int(s), []).append(int(d))
    return adj


def reach_pairs(edges: pd.DataFrame) -> set[tuple[int, int]]:
    """All (u,v) with a >=1-edge path, via DFS from every node."""
    adj = adjacency(edges)
    out: set[tuple[int, int]] = set()
    nodes = set(edges.src) | set(edges.dst)
    for s in nodes:
        stack = list(adj.get(s, []))
        seen: set[int] = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj.get(v, []))
        out.update((s, v) for v in seen)
    return out


def homomorphisms(
    p: Pattern, nodes: pd.DataFrame, edges: pd.DataFrame
) -> set[tuple[int, ...]]:
    """All occurrence tuples of Q on G, ordered by sorted node ids."""
    labels = dict(zip(nodes.id.astype(int), nodes.label))
    edge_set = {(int(s), int(d)) for s, d in edges.itertuples(index=False)}
    reach = reach_pairs(edges)
    qids = p.node_ids()
    by_label: dict[str, list[int]] = {}
    for v, lab in labels.items():
        by_label.setdefault(lab, []).append(v)

    results: set[tuple[int, ...]] = set()
    assignment: dict[int, int] = {}

    def ok(q: int, v: int) -> bool:
        for e in p.incident(q):
            other = e.dst if e.src == q else e.src
            if other not in assignment:
                continue
            pair = (v, assignment[other]) if e.src == q else (assignment[other], v)
            rel = edge_set if e.kind == CHILD else reach
            if pair not in rel:
                return False
        return True

    def rec(i: int) -> None:
        if i == len(qids):
            results.add(tuple(assignment[q] for q in qids))
            return
        q = qids[i]
        for v in by_label.get(p.label_of(q), []):
            if ok(q, v):
                assignment[q] = v
                rec(i + 1)
                del assignment[q]

    rec(0)
    return results


def double_simulation(
    p: Pattern, nodes: pd.DataFrame, edges: pd.DataFrame
) -> dict[int, set[int]]:
    """Naive FB fixpoint per Def. 1 (both directions, edge-to-path)."""
    labels = dict(zip(nodes.id.astype(int), nodes.label))
    edge_set = {(int(s), int(d)) for s, d in edges.itertuples(index=False)}
    reach = reach_pairs(edges)
    fb = {
        q: {v for v, lab in labels.items() if lab == p.label_of(q)}
        for q in p.node_ids()
    }
    changed = True
    while changed:
        changed = False
        for e in p.edges:
            rel = edge_set if e.kind == CHILD else reach
            keep = {
                v for v in fb[e.src]
                if any((v, w) in rel for w in fb[e.dst])
            }
            if keep != fb[e.src]:
                fb[e.src] = keep
                changed = True
            keep = {
                v for v in fb[e.dst]
                if any((u, v) in rel for u in fb[e.src])
            }
            if keep != fb[e.dst]:
                fb[e.dst] = keep
                changed = True
    return fb



def one_pass_prefilter(
    p: Pattern, nodes: pd.DataFrame, edges: pd.DataFrame
) -> dict[int, set[int]]:
    """Node pre-filter [11,63]: v stays in ms(q) iff each edge at q has a partner in ms."""
    labels = dict(zip(nodes.id.astype(int), nodes.label))
    edge_set = {(int(s), int(d)) for s, d in edges.itertuples(index=False)}
    reach = reach_pairs(edges)
    ms = {q: {v for v, lab in labels.items() if lab == p.label_of(q)} for q in p.node_ids()}

    def supported(q: int, v: int, e) -> bool:
        rel = edge_set if e.kind == CHILD else reach
        if e.src == q:
            return any((v, w) in rel for w in ms[e.dst])
        return any((u, v) in rel for u in ms[e.src])

    return {
        q: {v for v in ms[q] if all(supported(q, v, e) for e in p.incident(q))}
        for q in p.node_ids()
    }
