"""The correctness gate: every collected answer is checked in DuckDB.

Reachability is materialised once per graph into a ``reach`` table (the
recursive-CTE form of ``repro.queries.sql`` inlined into every query
spills tens of GB on dense descendant queries). Per query the gate
computes ``min(|Q(G)|, cap+1)`` and accepts an answer when either

* ``|Q(G)| <= cap`` and the answer equals Q(G) row for row, or
* ``|Q(G)| > cap``, the answer has exactly ``cap`` distinct rows and
  every row is a homomorphism: labels match ``nodes``, child edges are
  in ``edges`` and descendant edges in ``reach``.
"""
from __future__ import annotations

import duckdb
import pandas as pd

from repro.queries.pattern import CHILD, Pattern
from repro.queries.sql import col_name

_REACH = """
CREATE TABLE reach AS
WITH RECURSIVE r(src, dst) AS (
  SELECT src, dst FROM edges
  UNION
  SELECT r.src, e.dst FROM r JOIN edges e ON r.dst = e.src
)
SELECT src, dst FROM r
"""


def _conditions(p: Pattern, bind) -> tuple[list[str], list[str]]:
    """FROM items and WHERE terms that make ``bind(q)`` a homomorphism of ``p``."""
    froms = [f"nodes n{q}" for q in p.node_ids()]
    wheres = []
    for q in p.node_ids():
        wheres += [f"n{q}.id = {bind(q)}", f"n{q}.label = '{p.label_of(q)}'"]
    for i, e in enumerate(p.edges):
        froms.append(f"{'edges' if e.kind == CHILD else 'reach'} e{i}")
        wheres += [f"e{i}.src = {bind(e.src)}", f"e{i}.dst = {bind(e.dst)}"]
    return froms, wheres


class Gate:
    """DuckDB oracle over one data graph; build once, check many answers."""

    def __init__(self, nodes: pd.DataFrame, edges: pd.DataFrame, temp_dir: str | None = None):
        self.con = duckdb.connect()
        if temp_dir is not None:
            self.con.execute(f"SET temp_directory = '{temp_dir}'")
        self.con.register("nodes_df", nodes)
        self.con.register("edges_df", edges)
        self.con.execute("CREATE TABLE nodes AS SELECT id, label FROM nodes_df")
        self.con.execute("CREATE TABLE edges AS SELECT src, dst FROM edges_df")
        self.con.execute(_REACH)
        self.reach_rows = self.con.execute("SELECT count(*) FROM reach").fetchone()[0]

    def close(self) -> None:
        self.con.close()

    def _answer_sql(self, p: Pattern) -> str:
        froms, wheres = _conditions(p, lambda q: f"n{q}.id")
        cols = ", ".join(f"n{q}.id AS {col_name(q)}" for q in p.node_ids())
        return f"SELECT {cols} FROM {', '.join(froms)} WHERE {' AND '.join(wheres)}"

    def capped_count(self, p: Pattern, cap: int) -> int:
        """``min(|Q(G)|, cap + 1)``."""
        sql = f"SELECT count(*) FROM ({self._answer_sql(p)} LIMIT {cap + 1})"
        return self.con.execute(sql).fetchone()[0]

    def valid_rows(self, p: Pattern) -> int:
        """How many rows of the registered answer ``a`` are homomorphisms of ``p``."""
        froms, wheres = _conditions(p, lambda q: f"a.{col_name(q)}")
        sql = f"SELECT count(*) FROM a, {', '.join(froms)} WHERE {' AND '.join(wheres)}"
        return self.con.execute(sql).fetchone()[0]

    def check(self, p: Pattern, answer: pd.DataFrame, cap: int | None) -> str | None:
        """None when ``answer`` is correct for ``p`` under ``cap``, else the reason."""
        cols = [col_name(q) for q in p.node_ids()]
        if sorted(answer.columns) != sorted(cols):
            return f"columns {sorted(answer.columns)} != {sorted(cols)}"
        self.con.register("a", answer[cols].astype("int64"))
        try:
            return self._check(p, len(answer), cap, ", ".join(cols))
        finally:
            self.con.unregister("a")

    def _check(self, p: Pattern, n: int, cap: int | None, cols: str) -> str | None:
        def one(sql):
            return self.con.execute(sql).fetchone()[0]

        if cap is not None and self.capped_count(p, cap) > cap:
            if n != cap:
                return f"|Q(G)| > cap {cap} but {n} rows came back"
            distinct = one("SELECT count(*) FROM (SELECT DISTINCT * FROM a)")
            if distinct != cap:
                return f"{cap - distinct} duplicate rows"
            bad = cap - self.valid_rows(p)
            return f"{bad} rows are not homomorphisms" if bad else None
        want = self._answer_sql(p)
        extra = one(f"SELECT count(*) FROM (SELECT {cols} FROM a EXCEPT ALL {want})")
        missing = one(f"SELECT count(*) FROM ({want} EXCEPT ALL SELECT {cols} FROM a)")
        if extra or missing:
            return f"{extra} rows not in Q(G), {missing} rows of Q(G) missing"
        return None
