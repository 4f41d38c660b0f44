"""The gate accepts a correct answer and rejects corrupted ones.

For every query of every workload, the correct answer (or, above the
cap, ``cap`` correct rows) is taken from DuckDB, then corrupted: one row
dropped, one non-homomorphic row added, one row swapped for a
non-homomorphic one. Homomorphism is decided here in plain Python,
independently of the gate's SQL.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""
from __future__ import annotations

import pandas as pd
import pytest

from perfbench.gate import Gate
from perfbench.workloads import WORKLOADS, load_graph
from repro.queries.pattern import CHILD
from repro.queries.sql import col_name

@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def graph(request, spark):
    w = WORKLOADS[request.param]
    g = load_graph(spark, w, seed=1)
    nodes, edges = g.to_pandas()
    g.unpersist()
    gate = Gate(nodes, edges)
    yield w, nodes, edges, gate
    gate.close()


def _reach(edges: pd.DataFrame) -> set[tuple[int, int]]:
    out: dict[int, set[int]] = {}
    for s, d in zip(edges.src, edges.dst):
        out.setdefault(int(s), set()).add(int(d))
    reach = set()
    for s in out:
        seen, stack = set(), list(out[s])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(out.get(v, ()))
        reach.update((s, v) for v in seen)
    return reach


def _is_hom(p, row: dict, labels, edges, reach) -> bool:
    return all(labels.get(row[q]) == p.label_of(q) for q in p.node_ids()) and all(
        (row[e.src], row[e.dst]) in (edges if e.kind == CHILD else reach) for e in p.edges
    )


def _broken(p, row: dict, labels, edges, reach, *, same_label: bool) -> dict:
    """``row`` with one node moved so that it is no longer a homomorphism."""
    for q in p.node_ids():
        for v in sorted(labels):
            if (labels[v] == p.label_of(q)) != same_label:
                continue
            cand = {**row, q: v}
            if not _is_hom(p, cand, labels, edges, reach):
                return cand
    raise AssertionError("no non-homomorphic variant found")


def test_gate_rejects_corrupted_answers(graph):
    w, nodes, edges_df, gate = graph
    labels = dict(zip(nodes.id.astype(int), nodes.label))
    edges = set(zip(edges_df.src.astype(int), edges_df.dst.astype(int)))
    reach = _reach(edges_df)
    limit = f" LIMIT {w.cap}" if w.cap else ""
    for p in w.queries():
        cols = [col_name(q) for q in p.node_ids()]
        answer = gate.con.execute(gate._answer_sql(p) + limit).fetchdf()[cols]
        assert len(answer) > 0, "a corruption test needs a non-empty answer"
        assert gate.check(p, answer, w.cap) is None

        first = {q: int(answer.iloc[0][col_name(q)]) for q in p.node_ids()}
        assert _is_hom(p, first, labels, edges, reach)

        def frame(rows):
            return pd.DataFrame([{col_name(q): r[q] for q in p.node_ids()} for r in rows])

        bad_edge = frame([_broken(p, first, labels, edges, reach, same_label=True)])
        bad_label = frame([_broken(p, first, labels, edges, reach, same_label=False)])
        corrupted = {
            "dropped": answer.iloc[1:],
            "added": pd.concat([answer, bad_edge], ignore_index=True),
            "swapped-edge": pd.concat([answer.iloc[1:], bad_edge], ignore_index=True),
            "swapped-label": pd.concat([answer.iloc[1:], bad_label], ignore_index=True),
        }
        for kind, bad in corrupted.items():
            assert gate.check(p, bad, w.cap) is not None, f"{p.name}: {kind} answer accepted"
