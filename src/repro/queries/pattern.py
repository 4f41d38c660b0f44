"""Hybrid graph pattern queries (paper Def. 2.3/2.4).

A pattern is a small driver-side object (queries have tens of nodes at
most — they parameterize Catalyst plans, they are not data). Each edge
is ``CHILD`` (direct, edge-to-edge mapped) or ``DESC`` (reachability,
edge-to-path mapped); a pattern with both kinds is *hybrid*.
"""
from __future__ import annotations

from dataclasses import dataclass, field

CHILD = "child"
DESC = "desc"


@dataclass(frozen=True)
class PEdge:
    """A pattern edge ``src -> dst`` of kind CHILD or DESC."""

    src: int
    dst: int
    kind: str = CHILD

    def __post_init__(self):
        if self.kind not in (CHILD, DESC):
            raise ValueError(f"bad edge kind {self.kind!r}")
        if self.src == self.dst:
            raise ValueError("pattern self-loops are not supported")


@dataclass(frozen=True)
class Pattern:
    """A connected directed pattern: node id -> label, plus typed edges."""

    labels: tuple[tuple[int, str], ...]  # (node_id, label), node ids unique
    edges: tuple[PEdge, ...]
    name: str = "Q"
    # q -> (label, out-edges, in-edges, incident edges), in edge order.
    _adj: dict = field(default=None, compare=False, hash=False, repr=False)

    def __post_init__(self):
        adj = {q: (lab, [], [], []) for q, lab in self.labels}
        for e in self.edges:
            for q, k in ((e.src, 1), (e.dst, 2)):
                if q in adj:  # unknown endpoints are reported by validate()
                    adj[q][k].append(e)
                    adj[q][3].append(e)
        object.__setattr__(self, "_adj", adj)

    @staticmethod
    def of(labels: dict[int, str], edges, name: str = "Q") -> "Pattern":
        """Convenience constructor; ``edges`` as (src, dst, kind) tuples."""
        es = tuple(e if isinstance(e, PEdge) else PEdge(*e) for e in edges)
        p = Pattern(labels=tuple(sorted(labels.items())), edges=es, name=name)
        p.validate()
        return p

    # -- basic accessors -------------------------------------------------
    def label_of(self, q: int) -> str:
        return self._adj[q][0]

    def node_ids(self) -> list[int]:
        return [q for q, _ in self.labels]

    def n_nodes(self) -> int:
        return len(self.labels)

    def out_edges(self, q: int) -> list[PEdge]:
        return list(self._adj[q][1])

    def in_edges(self, q: int) -> list[PEdge]:
        return list(self._adj[q][2])

    def incident(self, q: int) -> list[PEdge]:
        return list(self._adj[q][3])

    def undirected_degree(self, q: int) -> int:
        return len(self.incident(q))

    def neighbors(self, q: int) -> set[int]:
        return {e.dst if e.src == q else e.src for e in self.incident(q)}

    # -- structure -------------------------------------------------------
    def validate(self) -> None:
        ids = set(self.node_ids())
        if len(ids) != len(self.labels):
            raise ValueError("duplicate node ids")
        for e in self.edges:
            if e.src not in ids or e.dst not in ids:
                raise ValueError(f"edge {e} references unknown node")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        if len(ids) > 1 and not self.is_connected():
            raise ValueError("pattern must be connected (Def. 2.3)")

    def is_connected(self) -> bool:
        ids = self.node_ids()
        if not ids:
            return True
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            q = stack.pop()
            for nb in self.neighbors(q):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(ids)

    def is_dag(self) -> bool:
        return self.topological_order() is not None

    def topological_order(self) -> list[int] | None:
        """Kahn's algorithm; None if the directed pattern has a cycle."""
        indeg = {q: 0 for q in self.node_ids()}
        for e in self.edges:
            indeg[e.dst] += 1
        ready = sorted(q for q, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            q = ready.pop(0)
            order.append(q)
            for e in self.out_edges(q):
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
            ready.sort()
        return order if len(order) == self.n_nodes() else None

    def has_path(self, x: int, y: int, *, excluding: PEdge | None = None) -> bool:
        """Directed path from x to y, optionally ignoring one edge."""
        stack, seen = [x], {x}
        while stack:
            q = stack.pop()
            for e in self.out_edges(q):
                if e == excluding:
                    continue
                if e.dst == y:
                    return True
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        return False

    def with_edges(self, edges, name: str | None = None) -> "Pattern":
        return Pattern(
            labels=self.labels,
            edges=tuple(edges),
            name=name or self.name,
        )

    def describe(self) -> str:
        es = ", ".join(f"{e.src}{'=>' if e.kind == DESC else '->'}{e.dst}" for e in self.edges)
        return f"{self.name}[{self.n_nodes()}n/{len(self.edges)}e: {es}]"
