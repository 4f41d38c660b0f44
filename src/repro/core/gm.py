"""GM: the paper's end-to-end graph pattern matching pipeline (§7.1).

transitive reduction (§3) -> double simulation + RIG (§4) -> search
order (§5.2) -> MJoin enumeration (§5.1). The evaluation's variants are
settings of :func:`gm`:

* GM    — the defaults: reduction, simulation capped at 3 passes, JO order.
* GM-F  — ``sim_passes=1``: one pass is the node pre-filter [11,63], so
  the RIG is built from pre-filtered match sets — larger RIG, slower
  enumeration.
* GM-NR — ``reduce=False``: skip the pattern transitive reduction
  (Fig. 15 ablation).

GM-S (no pre-filter before simulation) needs no setting: the simulation
starts from the raw match sets and its first pass is the pre-filter.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.core.matchsets import MatchContext
from repro.core.mjoin import mjoin
from repro.core.ordering import pick_order
from repro.core.rig import RIG, build_rig
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern
from repro.queries.transitive_reduction import transitive_reduction


@dataclass
class GMResult:
    """Answer DataFrame plus the phase metrics the paper reports."""

    df: DataFrame
    rig: RIG
    order: list[int]
    pattern: Pattern
    timings: dict[str, float] = field(default_factory=dict)

    def count(self) -> int:
        return self.df.count()


def gm(
    ctx: MatchContext,
    p: Pattern,
    *,
    order_method: str = "jo",
    sim_passes: int | None = 3,
    limit: int | None = None,
    reduce: bool = True,
    guard: Guard | None = None,
    partial_cap: int | None = None,
) -> GMResult:
    """Run GM and return the lazy answer DataFrame."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    if reduce:
        p = transitive_reduction(p)
    timings["reduce"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rig = build_rig(ctx, p, max_passes=sim_passes, guard=guard)
    timings["rig"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    order = pick_order(order_method, rig, guard=guard)
    timings["order"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    df = mjoin(rig, order, limit=limit, guard=guard, partial_cap=partial_cap)
    timings["mjoin_build"] = time.perf_counter() - t0
    return GMResult(df=df, rig=rig, order=order, pattern=p, timings=timings)
