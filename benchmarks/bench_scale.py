"""Scale sweep: all trees x policies at p = q >= 48, written to ``BENCH_scale.json``.

Tens of thousands of ops per DAG (~150k for the greedy tree at p=48):
every tree is compiled once through the shared program cache and replayed
under every scheduling policy on one 24-core node.  Each row reports the
DAG size, the compile time, the replay time of all policies and the best
policy's makespan.

Scaled-down by default (CI smoke-runs it in this reduced mode, also
reachable as ``python benchmarks/bench_scale.py --reduced``); set
``REPRO_FULL_SCALE=1`` for a million-op sweep (p = q = 96).
"""

from __future__ import annotations

import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.figures import format_rows, full_scale  # noqa: E402
from repro.ir import get_program  # noqa: E402
from repro.runtime.engine import SimulationEngine  # noqa: E402
from repro.runtime.machine import Machine  # noqa: E402
from repro.trees import make_tree  # noqa: E402

ARTIFACT = os.path.join(_ROOT, "BENCH_scale.json")

TREES = ("flatts", "flattt", "greedy", "auto")
SCALE_P = 96 if full_scale() else 48
SCALE_POLICIES = ("list", "critical-path", "locality", "fifo")


def scale_sweep():
    p = q = SCALE_P
    machine = Machine(n_nodes=1, cores_per_node=24, tile_size=160)
    rows = []
    total_start = time.perf_counter()
    for tree_name in TREES:
        tree = make_tree(tree_name) if tree_name != "auto" else make_tree(
            "auto", n_cores=24
        )
        t0 = time.perf_counter()
        program = get_program("bidiag", p, q, tree)
        compile_seconds = time.perf_counter() - t0
        makespans = {}
        t0 = time.perf_counter()
        for policy in SCALE_POLICIES:
            schedule = SimulationEngine(machine, policy=policy).run(program)
            makespans[policy] = schedule.makespan
        replay_seconds = time.perf_counter() - t0
        rows.append(
            {
                "tree": tree_name,
                "n_ops": len(program),
                "n_edges": program.n_edges,
                "compile_s": compile_seconds,
                "replay_s_all_policies": replay_seconds,
                "best_policy": min(makespans, key=makespans.get),
                "best_makespan_s": min(makespans.values()),
            }
        )
    return rows, time.perf_counter() - total_start


def main() -> int:
    rows, total = scale_sweep()
    n_scale = len(TREES) * len(SCALE_POLICIES)
    title = (
        f"Scale sweep, p=q={SCALE_P}, {len(TREES)} trees x "
        f"{len(SCALE_POLICIES)} policies"
    )
    print(f"\n{'=' * len(title)}\n{title}\n{'=' * len(title)}")
    print(format_rows(rows))
    print(f"sweep total: {total:.2f}s "
          f"({n_scale} candidates, cache-shared compiles)")

    trajectory = {
        "scale_sweep": {
            "p": SCALE_P,
            "q": SCALE_P,
            "n_cores": 24,
            "trees": list(TREES),
            "policies": list(SCALE_POLICIES),
            "rows": rows,
            "total_seconds": total,
        },
    }
    with open(ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
    print(f"wrote {ARTIFACT}")
    return 0


if __name__ == "__main__":
    if "--reduced" in sys.argv[1:]:
        os.environ.pop("REPRO_FULL_SCALE", None)
    raise SystemExit(main())
