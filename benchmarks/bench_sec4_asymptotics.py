"""Section IV / Theorem 1 — asymptotic critical-path behaviour.

Verifies, with the closed-form GREEDY critical paths, that

* ``BIDIAG(p, q) / ((12 + 6a) q log2 q)`` converges to 1, and
* ``BIDIAG / R-BIDIAG`` converges to ``1 + a/2``

for ``p = q^(1+a)``, and that the measured DAG critical paths match the
closed forms on the sizes where tracing is feasible.
"""

from benchmarks.conftest import print_table
from repro.analysis.asymptotics import asymptotic_sweep, theorem1_limit_ratio
from repro.analysis.formulas import bidiag_greedy_cp
from repro.dag.critical_path import critical_path_length
from repro.ir import get_program
from repro.experiments.figures import format_rows
from repro.trees import GreedyTree

Q_VALUES = (64, 256, 1024, 4096)


def test_theorem1_normalization_and_ratio(benchmark):
    def run():
        rows = []
        for alpha in (0.0, 0.25, 0.5, 0.75):
            points = asymptotic_sweep(Q_VALUES, alpha=alpha)
            for point in points:
                rows.append(
                    {
                        "alpha": alpha,
                        "q": point.q,
                        "p": point.p,
                        "normalized_cp": point.normalized_bidiag,
                        "bidiag/rbidiag": point.ratio,
                        "limit": theorem1_limit_ratio(alpha),
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Theorem 1: normalized CP and BIDIAG/R-BIDIAG ratio", format_rows(rows))
    for alpha in (0.0, 0.25, 0.5, 0.75):
        sub = [r for r in rows if r["alpha"] == alpha]
        # The normalized critical path approaches 1 from above.
        assert sub[-1]["normalized_cp"] < sub[0]["normalized_cp"]
        assert 0.95 < sub[-1]["normalized_cp"] < 1.25
        # The BIDIAG / R-BIDIAG ratio approaches 1 + alpha/2 from below.
        limit = theorem1_limit_ratio(alpha)
        assert sub[-1]["bidiag/rbidiag"] <= limit + 0.05
        assert sub[-1]["bidiag/rbidiag"] >= limit - 0.25


def test_measured_cp_matches_closed_form(benchmark):
    shapes = ((8, 8), (16, 8), (16, 16), (32, 8))

    def run():
        rows = []
        for p, q in shapes:
            measured = critical_path_length(get_program("bidiag", p, q, GreedyTree()))
            formula = bidiag_greedy_cp(p, q)
            rows.append({"p": p, "q": q, "measured": measured, "formula": formula})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Measured DAG critical path vs closed form (GREEDY)", format_rows(rows))
    for row in rows:
        assert row["measured"] == row["formula"]
