"""The benchmark's workloads: one data graph and a short list of queries each.

Every workload is a scaled synthetic dataset from ``repro.graphs`` plus
queries instantiated from the paper's Fig. 7 templates with the
paper-table label seed (1). The workload seed does not change the
queries: it relabels the graph's node ids by a seeded affine bijection
``id -> (a*id + b) mod V``. Every seed therefore gives a different but
isomorphic input with the same amount of work, so the run-to-run spread
measures the system and not the luck of a label draw (a different label
draw changes one query's cost by 5x or more at these sizes).

Sizes are chosen so that one run (three set-ups, one pass of queries,
the gate) ends within about 40-80 s on 4 cores: the cost here is Spark
job launches (50-120 ms each), not data volume.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.graphs.datasets import PROFILES
from repro.graphs.generators import generate_graph
from repro.graphs.model import Graph
from repro.queries.pattern import Pattern
from repro.queries.templates import instantiate

# The label seed the paper-table harnesses use (repro.harness.tables).
QUERY_SEED = 1
# The dataset default graph seed of repro.graphs.datasets.load_dataset.
GRAPH_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n_nodes: int
    qtype: str  # 'C' | 'H' | 'D'
    templates: tuple[int, ...]
    cap: int | None = None  # answer cap (gm limit); None lists every answer

    def queries(self) -> list[Pattern]:
        n_labels = PROFILES[self.dataset].n_labels
        return [
            instantiate(t, qtype=self.qtype, n_labels=n_labels, seed=QUERY_SEED)
            for t in self.templates
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Child edges only: queries never read the closure that set-up
        # still builds; simulation does most of the work.
        Workload("bs-child", "bs", 220, "C", (1, 9)),
        # Descendant edges over 3 labels: a 4-clique that transitive
        # reduction cuts to a path, a large RIG and an answer that fills
        # the cap, so RIG expansion, ordering and MJoin do real work.
        Workload("am-desc-enum", "am", 100, "D", (11,), cap=200_000),
    )
}


def _salt(name: str) -> int:
    # load_dataset's stable per-dataset salt, so the graphs are the
    # dataset defaults at the chosen size.
    return sum(ord(c) * 31**i for i, c in enumerate(name)) % 1000


def id_permutation(n: int, seed: int) -> tuple[int, int]:
    """``(a, b)`` with gcd(a, n) == 1: ``id -> (a*id + b) mod n`` is a bijection."""
    rnd = random.Random(seed)
    while True:
        a = rnd.randrange(1, n)
        if math.gcd(a, n) == 1:
            return a, rnd.randrange(n)


def load_graph(spark: SparkSession, w: Workload, seed: int) -> Graph:
    """Generate the workload's graph, relabel its ids by ``seed``, and cache it."""
    g = generate_graph(
        spark,
        n_nodes=w.n_nodes,
        profile=PROFILES[w.dataset],
        seed=GRAPH_SEED + _salt(w.dataset),
        name=f"{w.dataset}-{w.n_nodes}",
    )
    a, b = id_permutation(w.n_nodes, seed)

    def perm(c: str):
        return ((F.col(c) * a + b) % w.n_nodes).alias(c)

    return Graph(
        nodes=g.nodes.select(perm("id"), "label"),
        edges=g.edges.select(perm("src"), perm("dst")),
        name=g.name,
    ).cache()
