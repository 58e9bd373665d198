"""Tests for hand-built programs, the recorder and the critical-path engine."""

import numpy as np
import pytest

from repro.dag.critical_path import critical_path_length, critical_path_tasks
from repro.ir import Op, Program, ProgramRecorder, get_program
from repro.kernels.costs import KernelName
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree


def _mk_op(tid, weight=1, kernel=KernelName.GEQRT):
    return Op(
        index=tid,
        kernel=kernel,
        params=(tid,),
        reads=frozenset(),
        writes=frozenset(),
        weight=weight,
        owner_tile=(0, 0),
    )


def _program(weights, pred_lists):
    return Program([_mk_op(i, w) for i, w in enumerate(weights)], pred_lists)


class TestHandBuiltProgram:
    def test_edges_in_both_csr_directions(self):
        g = _program([1, 1], [[], [0]])
        assert list(g.successors(0)) == [1]
        assert list(g.predecessors(1)) == [0]
        assert g.n_edges == 1

    def test_backward_edge_rejected(self):
        with pytest.raises(ValueError, match="insertion-order topology"):
            _program([1, 1], [[1], []])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="insertion-order topology"):
            _program([1], [[0]])

    def test_pred_list_count_must_match(self):
        with pytest.raises(ValueError, match="predecessor lists"):
            _program([1, 1], [[]])

    def test_sources(self):
        g = _program([1, 1, 1], [[], [0], [1]])
        assert g.sources() == [0]

    def test_total_weight(self):
        g = _program([4, 6], [[], []])
        assert g.total_weight() == 10


class TestCriticalPathEngine:
    def test_chain(self):
        g = _program([2, 2, 2, 2], [[], [0], [1], [2]])
        assert critical_path_length(g) == 8

    def test_diamond(self):
        g = _program([1, 5, 2, 1], [[], [0], [0], [1, 2]])
        assert critical_path_length(g) == 7
        path = critical_path_tasks(g)
        assert [op.index for op in path] == [0, 1, 3]

    def test_empty_program(self):
        assert critical_path_length(Program([], [])) == 0.0
        assert critical_path_tasks(Program([], [])) == []

    def test_ties_go_to_the_earliest_op(self):
        g = _program([1, 2, 2, 1], [[], [0], [0], [1, 2]])
        assert [op.index for op in critical_path_tasks(g)] == [0, 1, 3]

    def test_custom_weight_function(self):
        g = _program([4, 4], [[], [0]])
        assert critical_path_length(g, weight_fn=lambda op: 1.0) == 2.0
        path = critical_path_tasks(g, weight_fn=lambda op: 1.0)
        assert [op.index for op in path] == [0, 1]


class TestRecorder:
    def test_shape_properties(self):
        recorder = ProgramRecorder(5, 3)
        assert recorder.p == 5
        assert recorder.q == 3

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            ProgramRecorder(0, 3)

    def test_qr_task_count_flatts(self):
        # FlatTS QR of a p x q tile matrix: per step k (0-based, u = p-k,
        # v = q-k-1): 1 GEQRT + v UNMQR + (u-1) TSQRT + (u-1)*v TSMQR.
        p, q = 5, 3
        g = get_program("qr", p, q, FlatTSTree())
        expected = 0
        for k in range(q):
            u, v = p - k, q - k - 1
            expected += 1 + v + (u - 1) + (u - 1) * v
        assert len(g) == expected

    def test_bidiag_kernel_mix(self):
        g = get_program("bidiag", 4, 4, FlatTSTree())
        counts = g.kernel_counts()
        assert counts[KernelName.GEQRT] == 4          # one per QR step
        assert counts[KernelName.GELQT] == 3          # one per LQ step
        assert KernelName.TTQRT not in counts         # FlatTS never uses TT
        assert counts[KernelName.TSQRT] == 3 + 2 + 1  # rows below diagonal

    def test_greedy_uses_tt_kernels_only(self):
        g = get_program("bidiag", 6, 3, GreedyTree())
        counts = g.kernel_counts()
        assert KernelName.TSQRT not in counts
        assert KernelName.TSMQR not in counts
        assert counts[KernelName.TTQRT] > 0

    def test_insertion_order_is_topological(self):
        g = get_program("bidiag", 6, 4, GreedyTree())
        assert all(src < dst for src, dst in g.edges())

    def test_flattt_same_work_shorter_span_than_flatts(self):
        # FlatTS and FlatTT perform exactly the same number of flops
        # (a TS elimination costs 6+12v, a TT elimination 4+6v+2+6v = 6+12v),
        # but FlatTT's critical path is shorter: a pure work/span trade-off.
        g_ts = get_program("bidiag", 6, 4, FlatTSTree())
        g_tt = get_program("bidiag", 6, 4, FlatTTTree())
        assert g_tt.total_weight() == g_ts.total_weight()
        assert critical_path_length(g_tt) < critical_path_length(g_ts)

    def test_rbidiag_has_more_tasks_than_bidiag_for_square(self):
        # For square matrices R-BIDIAG repeats work (QR then square BIDIAG).
        g_b = get_program("bidiag", 6, 6, GreedyTree())
        g_r = get_program("rbidiag", 6, 6, GreedyTree())
        assert len(g_r) > len(g_b)

    def test_tracer_and_numeric_executor_same_operation_count(self, rng):
        """The numeric executor and the recorder see exactly the same kernel calls."""
        from repro.algorithms.bidiag import bidiag_ge2bnd
        from repro.algorithms.executor import MultiExecutor, NumericExecutor
        from repro.tiles.matrix import TiledMatrix

        a = rng.standard_normal((20, 12))
        mat = TiledMatrix.from_dense(a, 4)
        numeric = NumericExecutor(mat)
        recorder = ProgramRecorder(mat.p, mat.q)
        bidiag_ge2bnd(MultiExecutor([numeric, recorder]), GreedyTree())
        # The recording matches a standalone compile of the same configuration.
        standalone = get_program("bidiag", mat.p, mat.q, GreedyTree())
        assert len(recorder) == len(standalone)
        # And the numeric result is still correct.
        ref = np.linalg.svd(a, compute_uv=False)
        got = np.linalg.svd(mat.to_dense(), compute_uv=False)
        np.testing.assert_allclose(got, ref, atol=1e-9)


class TestMultiExecutorValidation:
    def test_empty_rejected(self):
        from repro.algorithms.executor import MultiExecutor

        with pytest.raises(ValueError):
            MultiExecutor([])

    def test_shape_mismatch_rejected(self):
        from repro.algorithms.executor import MultiExecutor

        with pytest.raises(ValueError):
            MultiExecutor([ProgramRecorder(2, 2), ProgramRecorder(3, 2)])


class TestStructuralAnalyses:
    """graph_stats and the ASAP profile on a hand-built diamond."""

    def _diamond(self):
        return _program([1, 5, 2, 1], [[], [0], [0], [1, 2]])

    def test_graph_stats(self):
        from repro.dag.analysis import graph_stats

        stats = graph_stats(self._diamond())
        assert (stats.n_tasks, stats.n_edges) == (4, 4)
        assert (stats.work, stats.span) == (9.0, 7.0)
        assert (stats.max_in_degree, stats.max_out_degree) == (2, 2)
        assert (stats.n_sources, stats.n_sinks) == (1, 1)

    def test_parallelism_profile(self):
        from repro.dag.analysis import parallelism_profile

        # ASAP starts 0, 1, 1, 6 and finishes 1, 6, 3, 7.
        profile = parallelism_profile(self._diamond(), n_bins=7)
        assert [t for t, _ in profile] == [b + 0.5 for b in range(7)]
        assert [active for _, active in profile] == [1, 2, 2, 1, 1, 1, 1]
