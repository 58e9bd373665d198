#!/usr/bin/env python3
"""Critical-path study: reproduce the Section IV analysis interactively.

For a sweep of tile shapes this example

* traces the BIDIAG and R-BIDIAG task graphs with the FLATTS, FLATTT and
  GREEDY trees,
* measures their critical paths on the DAG and compares them with the
  paper's closed-form expressions,
* verifies the asymptotic results of Theorem 1 (the ``(12+6a) q log2 q``
  growth and the ``1 + a/2`` BIDIAG / R-BIDIAG ratio), and
* locates the crossover ratio ``delta_s = p/q`` at which R-BIDIAG starts to
  win (the paper finds it oscillates between 5 and 8).

Run:  python examples/critical_path_study.py
      (REPRO_EXAMPLE_FAST=1 shrinks the problem sizes for smoke tests)
"""

import os

from repro.analysis.asymptotics import asymptotic_sweep, theorem1_limit_ratio
from repro.analysis.crossover import crossover_table
from repro.analysis.formulas import bidiag_cp, rbidiag_cp
from repro.dag.analysis import graph_stats
from repro.dag.critical_path import critical_path_length
from repro.ir import get_program
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree


FAST = os.environ.get("REPRO_EXAMPLE_FAST", "0") not in ("", "0")


def main() -> None:
    trees = {"flatts": FlatTSTree(), "flattt": FlatTTTree(), "greedy": GreedyTree()}

    shapes = ((8, 8), (16, 8)) if FAST else ((8, 8), (16, 8), (32, 8), (16, 16), (48, 8))
    print("== measured vs closed-form critical paths (units of nb^3/3 flops) ==")
    print(f"{'tiles':>10s} {'tree':>8s} {'BIDIAG meas':>12s} {'formula':>9s} "
          f"{'R-BIDIAG meas':>14s} {'formula':>9s}")
    for p, q in shapes:
        for name, tree in trees.items():
            b_meas = critical_path_length(get_program("bidiag", p, q, tree))
            r_meas = critical_path_length(get_program("rbidiag", p, q, tree))
            print(f"{p:5d}x{q:<4d} {name:>8s} {b_meas:12.0f} {bidiag_cp(p, q, name):9d} "
                  f"{r_meas:14.0f} {rbidiag_cp(p, q, name):9d}")

    print("\n== parallelism of the three trees (16x16 tiles, BIDIAG) ==")
    for name, tree in trees.items():
        stats = graph_stats(get_program("bidiag", 16, 16, tree))
        print(f"  {name:8s}: work={stats.work:8.0f}  span={stats.span:6.0f}  "
              f"average parallelism={stats.average_parallelism:6.1f}")

    q_values = [64, 256] if FAST else [64, 256, 1024, 4096]
    print("\n== Theorem 1: normalized critical path and BIDIAG/R-BIDIAG ratio ==")
    for alpha in (0.0, 0.25, 0.5):
        points = asymptotic_sweep(q_values, alpha=alpha)
        last = points[-1]
        print(f"  alpha={alpha:4.2f}: CP / ((12+6a) q log2 q) = {last.normalized_bidiag:5.3f}  "
              f"ratio = {last.ratio:5.3f}  (limit {theorem1_limit_ratio(alpha):4.2f})")

    print("\n== crossover ratio delta_s(q) (paper: oscillates between 5 and 8) ==")
    for point in crossover_table([4, 6] if FAST else [4, 6, 8, 10, 12, 16]):
        print(f"  q={point.q:3d}: delta_s = {point.delta_s:5.2f}  (p at crossover = {point.p_at_crossover})")


if __name__ == "__main__":
    main()
