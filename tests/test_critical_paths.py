"""Validation of Section IV: measured critical paths vs closed forms."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.crossover import (
    CHAN_FLOP_CROSSOVER,
    asymptotic_ratio,
    crossover_ratio,
    crossover_table,
)
from repro.analysis.formulas import (
    bidiag_cp,
    bidiag_flatts_cp,
    bidiag_flattt_cp,
    bidiag_greedy_cp,
    greedy_asymptotic_cp,
    lq_step_cp,
    qr_factorization_cp,
    qr_step_cp,
    rbidiag_cp,
)
from repro.dag.critical_path import critical_path_length
from repro.ir import get_program
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree

SHAPES = [(1, 1), (2, 1), (3, 2), (4, 4), (6, 3), (8, 2), (8, 8), (10, 5), (12, 4), (7, 7)]


class TestStepFormulas:
    def test_flatts_step(self):
        assert qr_step_cp(5, 1, "flatts") == 4 + 6 * 4
        assert qr_step_cp(5, 3, "flatts") == 4 + 6 + 12 * 4

    def test_flattt_step(self):
        assert qr_step_cp(5, 1, "flattt") == 4 + 2 * 4
        assert qr_step_cp(5, 3, "flattt") == 4 + 6 + 6 * 4

    def test_greedy_step(self):
        assert qr_step_cp(8, 1, "greedy") == 4 + 2 * 3
        assert qr_step_cp(9, 2, "greedy") == 4 + 6 + 6 * 4

    def test_lq_step_is_transposed_qr_step(self):
        assert lq_step_cp(5, 3, "flatts") == qr_step_cp(3, 5, "flatts")

    def test_unknown_tree(self):
        with pytest.raises(ValueError):
            qr_step_cp(4, 4, "bogus")

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            qr_step_cp(0, 1, "flatts")

    def test_single_step_matches_dag(self):
        # A p x 1 tile matrix exercises exactly one QR step.
        for p in (1, 2, 3, 5, 9):
            measured = critical_path_length(get_program("qr", p, 1, FlatTSTree()))
            assert measured == qr_step_cp(p, 1, "flatts")
            measured_g = critical_path_length(get_program("qr", p, 1, GreedyTree()))
            assert measured_g == qr_step_cp(p, 1, "greedy")


class TestBidiagClosedForms:
    """The headline validation: the DAGs we execute have exactly the critical
    paths the paper derives analytically."""

    @pytest.mark.parametrize("p,q", SHAPES)
    def test_flatts_closed_form(self, p, q):
        assert bidiag_flatts_cp(p, q) == 12 * p * q - 6 * p + 2 * q - 4
        assert bidiag_cp(p, q, "flatts") == bidiag_flatts_cp(p, q)
        measured = critical_path_length(get_program("bidiag", p, q, FlatTSTree()))
        assert measured == bidiag_flatts_cp(p, q)

    @pytest.mark.parametrize("p,q", SHAPES)
    def test_flattt_closed_form(self, p, q):
        assert bidiag_flattt_cp(p, q) == 6 * p * q - 4 * p + 12 * q - 10
        assert bidiag_cp(p, q, "flattt") == bidiag_flattt_cp(p, q)
        measured = critical_path_length(get_program("bidiag", p, q, FlatTTTree()))
        assert measured == bidiag_flattt_cp(p, q)

    @pytest.mark.parametrize("p,q", SHAPES)
    def test_greedy_closed_form(self, p, q):
        assert bidiag_cp(p, q, "greedy") == bidiag_greedy_cp(p, q)
        measured = critical_path_length(get_program("bidiag", p, q, GreedyTree()))
        assert measured == bidiag_greedy_cp(p, q)

    def test_greedy_power_of_two_square_formula(self):
        # BIDIAG_GREEDY(q, q) = 12 q log2 q + 8q - 6 log2 q - 4 for q = 2^k.
        for q in (2, 4, 8, 16, 32):
            lg = int(math.log2(q))
            expected = 12 * q * lg + 8 * q - 6 * lg - 4
            assert bidiag_greedy_cp(q, q) == expected

    def test_greedy_power_of_two_rectangular_formula(self):
        # 6q log2 p + 6q log2 q + 14q - 4 log2 p - 6 log2 q - 10, p > q powers of 2.
        for p, q in ((8, 4), (16, 4), (16, 8), (32, 8)):
            lp, lq_ = int(math.log2(p)), int(math.log2(q))
            expected = 6 * q * lp + 6 * q * lq_ + 14 * q - 4 * lp - 6 * lq_ - 10
            assert bidiag_greedy_cp(p, q) == expected

    @settings(max_examples=25, deadline=None)
    @given(q=st.integers(min_value=1, max_value=10), extra=st.integers(min_value=0, max_value=12))
    def test_property_measured_equals_formula(self, q, extra):
        p = q + extra
        assert critical_path_length(get_program("bidiag", p, q, FlatTSTree())) == bidiag_flatts_cp(p, q)
        assert critical_path_length(get_program("bidiag", p, q, GreedyTree())) == bidiag_greedy_cp(p, q)

    def test_greedy_asymptotically_better(self):
        # Θ(q log p) vs Θ(pq): the ratio must grow with the problem size.
        small = bidiag_flatts_cp(16, 16) / bidiag_greedy_cp(16, 16)
        large = bidiag_flatts_cp(64, 64) / bidiag_greedy_cp(64, 64)
        assert large > small > 1.0

    def test_asymptotic_equivalent(self):
        # BIDIAG_GREEDY(q, q) / (12 q log2 q) -> 1.
        for q in (64, 256, 1024):
            ratio = bidiag_greedy_cp(q, q) / greedy_asymptotic_cp(q, alpha=0.0)
            assert 0.9 < ratio < 1.3

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            bidiag_flatts_cp(2, 4)
        with pytest.raises(ValueError):
            bidiag_cp(2, 4, "greedy")


class TestRBidiag:
    @pytest.mark.parametrize("p,q", [(4, 4), (8, 4), (12, 3), (16, 4), (10, 10)])
    @pytest.mark.parametrize("tree_name,tree", [
        ("flatts", FlatTSTree()), ("flattt", FlatTTTree()), ("greedy", GreedyTree())
    ])
    def test_measured_at_most_formula(self, p, q, tree_name, tree):
        # The closed form ignores the QR/BIDIAG overlap, so it is an upper
        # bound on the DAG critical path — and not a loose one.
        measured = critical_path_length(get_program("rbidiag", p, q, tree))
        formula = rbidiag_cp(p, q, tree_name)
        assert measured <= formula
        # The overlap between the preliminary QR and the bidiagonalization of
        # the R factor can be substantial (that is the point of R-BIDIAG),
        # but the measured path can never drop below the critical path of the
        # square bidiagonalization minus its first QR step.
        lower = bidiag_cp(q, q, tree_name) - qr_step_cp(q, q, tree_name)
        assert measured >= lower

    def test_qr_factorization_cp_components(self):
        assert qr_factorization_cp(4, 1, "flatts") == qr_step_cp(4, 1, "flatts")
        with pytest.raises(ValueError):
            qr_factorization_cp(2, 4, "greedy")

    def test_rbidiag_beats_bidiag_for_tall_skinny(self):
        # Uses the measured DAG critical paths: the advantage of R-BIDIAG
        # relies on the pipelining of the preliminary QR factorization.
        from repro.analysis.crossover import measured_bidiag_cp, measured_rbidiag_cp

        q = 4
        p = 8 * q  # very tall
        assert measured_rbidiag_cp(p, q) < measured_bidiag_cp(p, q)

    def test_bidiag_beats_rbidiag_for_square(self):
        for q in (4, 8, 16):
            assert bidiag_cp(q, q, "greedy") < rbidiag_cp(q, q, "greedy")

    def test_pipelined_greedy_qr_has_short_critical_path(self):
        """The cross-panel GREEDY QR factorization has a critical path close
        to the 22q + o(q) bound of the paper, essentially independent of p."""
        from repro.trees import GreedyTree

        q = 6
        cp_tall = critical_path_length(get_program("qr", 12 * q, q, GreedyTree()))
        cp_very_tall = critical_path_length(get_program("qr", 24 * q, q, GreedyTree()))
        assert cp_tall <= 22 * q + 6 * math.ceil(math.log2(12 * q)) + 10
        # Doubling p only adds a logarithmic amount.
        assert cp_very_tall - cp_tall <= 12


class TestCrossover:
    @pytest.mark.slow
    def test_crossover_exists_and_grows_with_q(self):
        # Section IV-C: the crossover delta_s exists and oscillates in a
        # narrow band (the paper reports [5, 8] for the widths it plots; at
        # the small widths swept here it sits a little lower and grows).
        points = crossover_table([4, 8, 12])
        deltas = [pt.delta_s for pt in points]
        assert all(2.0 <= d <= 9.0 for d in deltas)
        assert deltas[0] <= deltas[-1]

    def test_crossover_requires_q_at_least_2(self):
        with pytest.raises(ValueError):
            crossover_ratio(1)

    def test_chan_flop_crossover(self):
        assert CHAN_FLOP_CROSSOVER == pytest.approx(5.0 / 3.0)

    def test_asymptotic_ratio(self):
        assert asymptotic_ratio(0.0) == 1.0
        assert asymptotic_ratio(0.5) == 1.25
        with pytest.raises(ValueError):
            asymptotic_ratio(1.5)

    def test_ratio_grows_with_alpha(self):
        """BIDIAG/R-BIDIAG critical-path ratio increases with matrix elongation."""
        from repro.analysis.crossover import measured_bidiag_cp, measured_rbidiag_cp

        q = 8
        ratios = []
        for p in (q, 4 * q, 10 * q):
            ratios.append(measured_bidiag_cp(p, q) / measured_rbidiag_cp(p, q))
        assert ratios[0] < ratios[1] < ratios[2]
