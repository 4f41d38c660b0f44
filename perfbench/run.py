"""GM query-listing benchmark: ``gm()`` followed by collecting every answer row.

Run from the repository root:

    python3 perfbench/run.py --workload bs-child --seed 1 --seconds 15 --trace 0

One process per run, Spark ``local[4]`` with the tier-1 session
settings, one client in a closed loop. The run sets up ``SETUP_REPS``
times (session start, graph load, ``MatchContext``), then issues the
workload's queries (see ``perfbench/workloads.py``) and checks every
answer against the DuckDB gate (``perfbench/gate.py``), outside every
timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs a
traced and then an untraced pass and reports the per-layer metrics of
the traced one, with the tracing overhead. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The run record
(seed, machine, Spark conf, per-query answers) and, when traced, the
spans are written under ``.bench_build/perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
MASTER = "local[4]"
DRIVER_MEMORY = "2g"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="GM query-listing benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_process() -> None:
    """Keep Spark's, the JVM's and Python's scratch files inside the checkout.

    Must run before pyspark is imported: the JVM reads these at launch.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # Every JVM, the launcher's too: no perf-data file under /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def source_identity() -> dict:
    """The git commit when there is one, and a digest of ``src/`` either way."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    prepare_process()
    from perfbench.bench import execute
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, record = execute(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORK / "tmp"
    )
    record.update(source_identity(), nproc=os.cpu_count(), driver_memory=DRIVER_MEMORY)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}; record: {out}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
