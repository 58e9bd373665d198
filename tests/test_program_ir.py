"""Tests for the compiled op-stream Program IR (repro.ir).

Covers the dependency analyzer, the Program/CSR structure, the compiler
and its shared in-process cache, replay onto the numeric executor, and the
1x1 / empty-post-stage edge cases.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.algorithms.bidiag import bidiag_ge2bnd
from repro.algorithms.executor import NumericExecutor
from repro.algorithms.rbidiag import rbidiag_ge2bnd
from repro.ir import (
    Program,
    ProgramCache,
    ProgramRecorder,
    clear_program_cache,
    compile_program,
    get_program,
    program_cache_stats,
    program_key,
    replay,
    tree_fingerprint,
)
from repro.ir.program import analyze_coded_stream
from repro.kernels.costs import KernelName
from repro.tiles.matrix import TiledMatrix
from repro.trees import AutoTree, FlatTSTree, GreedyTree


@pytest.fixture(autouse=True)
def _fresh_program_cache():
    """Each test starts from an empty process-wide program cache."""
    clear_program_cache()
    yield
    clear_program_cache()


def _analyze(*accesses):
    """Sorted predecessor lists of a stream of ``(reads, writes)`` item codes."""
    reads = [tuple(r) for r, _ in accesses]
    writes = [tuple(w) for _, w in accesses]
    n_items = 1 + max((max(r + w, default=0) for r, w in zip(reads, writes)), default=0)
    pred_lists, _levels = analyze_coded_stream(reads, writes, n_items)
    return [sorted(preds) for preds in pred_lists]


class TestCodedAnalyzer:
    """The superscalar rules of ``analyze_coded_stream`` on integer items."""

    def test_raw_dependency(self):
        # 0 writes item 0, 1 reads it.
        assert _analyze(((), (0,)), ((0,), ())) == [[], [0]]

    def test_war_dependency(self):
        # 0 writes, 1 reads; 2 rewrites: depends on the writer (RAW chain)
        # and the reader (WAR).
        preds = _analyze(((), (0,)), ((0,), ()), ((), (0,)))
        assert preds[2] == [0, 1]

    def test_write_resets_reader_set(self):
        # 0 writes, 1 overwrites; 2 only sees the most recent writer.
        preds = _analyze(((), (0,)), ((), (0,)), ((0,), ()))
        assert preds[2] == [1]

    def test_no_duplicate_or_self_edges(self):
        # 1 reads item 0 and rewrites items 1 and 2: op 0 (which wrote
        # items 0 and 1) is reached through two items but listed once,
        # and 1 never depends on itself.
        preds = _analyze(((), (0, 1)), ((0,), (1, 2)))
        assert preds == [[], [0]]


class TestProgramStructure:
    def test_csr_is_consistent(self):
        program = compile_program("bidiag", 5, 4, GreedyTree())
        n = len(program)
        edges_via_preds = {(s, d) for d in range(n) for s in program.predecessors(d)}
        edges_via_succs = {(s, d) for s in range(n) for d in program.successors(s)}
        assert edges_via_preds == edges_via_succs
        assert len(edges_via_preds) == program.n_edges
        for dst in range(n):
            preds = list(program.predecessors(dst))
            assert preds == sorted(preds)
            assert all(0 <= s < dst for s in preds)

    def test_object_form_matches_column_form(self):
        program = compile_program("bidiag", 5, 5, FlatTSTree())
        back = Program(
            program.ops, [list(program.predecessors(i)) for i in range(len(program))]
        )
        assert back.columns is None
        assert len(back) == len(program)
        assert list(back.edges()) == list(program.edges())
        assert back.total_weight() == program.total_weight()
        assert back.kernel_counts() == program.kernel_counts()
        assert back.critical_path() == program.critical_path()
        assert back.levels_np.tolist() == program.levels_np.tolist()

    def test_sources_and_indegrees(self):
        program = compile_program("bidiag", 4, 3, GreedyTree())
        indeg = program.indegrees()
        assert sum(indeg) == program.n_edges
        assert program.sources() == [i for i, d in enumerate(indeg) if d == 0]
        # Exactly the first-panel GEQRTs are sources.
        assert all(program.ops[i].kernel == KernelName.GEQRT for i in program.sources())

    def test_rejects_backward_edges(self):
        ops = compile_program("qr", 2, 1, GreedyTree()).ops
        with pytest.raises(ValueError):
            Program(ops, [[1]] + [[] for _ in range(len(ops) - 1)])


class TestRecorder:
    def test_recorder_matches_compiler(self):
        recorder = ProgramRecorder(4, 3)
        bidiag_ge2bnd(recorder, GreedyTree())
        program = recorder.program()
        compiled = compile_program("bidiag", 4, 3, GreedyTree())
        assert len(recorder) == len(program) == len(compiled)
        assert list(program.edges()) == list(compiled.edges())

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            ProgramRecorder(1, 0)


class TestProgramCache:
    def test_hit_returns_same_object(self):
        p1 = get_program("bidiag", 4, 4, GreedyTree())
        p2 = get_program("bidiag", 4, 4, GreedyTree())
        assert p1 is p2
        stats = program_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_key_distinguishes_configurations(self):
        k1 = program_key("bidiag", 4, 4, AutoTree(n_cores=4))
        k2 = program_key("bidiag", 4, 4, AutoTree(n_cores=24))
        k3 = program_key("bidiag", 4, 4, GreedyTree())
        assert len({k1, k2, k3}) == 3
        assert program_key("bidiag", 4, 4, GreedyTree(), n_cores=2) != k3

    def test_tree_fingerprint(self):
        assert tree_fingerprint(None) == "none"
        assert tree_fingerprint(GreedyTree()) == tree_fingerprint(GreedyTree())
        assert tree_fingerprint(AutoTree(n_cores=2)) != tree_fingerprint(
            AutoTree(n_cores=3)
        )

    def test_tree_fingerprint_sees_attributes_without_custom_repr(self):
        # A parameterized subclass relying on the base ReductionTree repr
        # ("ClassName()") must still fingerprint per configuration.
        class ShiftedGreedy(GreedyTree):
            def __init__(self, shift):
                self.shift = shift

        assert tree_fingerprint(ShiftedGreedy(1)) != tree_fingerprint(ShiftedGreedy(2))
        assert tree_fingerprint(ShiftedGreedy(1)) == tree_fingerprint(ShiftedGreedy(1))

    def test_tree_fingerprint_recurses_into_nested_trees(self):
        from repro.trees import HierarchicalTree

        h1 = HierarchicalTree(local_tree=AutoTree(n_cores=2), top="greedy", grid_rows=2)
        h2 = HierarchicalTree(local_tree=AutoTree(n_cores=8), top="greedy", grid_rows=2)
        assert tree_fingerprint(h1) != tree_fingerprint(h2)

    def test_cache_false_bypasses(self):
        p1 = get_program("bidiag", 4, 4, GreedyTree(), cache=False)
        p2 = get_program("bidiag", 4, 4, GreedyTree(), cache=False)
        assert p1 is not p2
        assert program_cache_stats()["entries"] == 0

    def test_explicit_cache_and_eviction(self):
        cache = ProgramCache(maxsize=1)
        a = cache.get_or_compile("qr", 2, 2, GreedyTree())
        cache.get_or_compile("qr", 3, 2, GreedyTree())  # evicts the 2x2 entry
        assert len(cache) == 1
        b = cache.get_or_compile("qr", 2, 2, GreedyTree())
        assert a is not b  # recompiled after eviction
        with pytest.raises(ValueError):
            ProgramCache(maxsize=0)

    def test_clear(self):
        get_program("qr", 3, 3, GreedyTree())
        assert clear_program_cache() == 1
        assert program_cache_stats() == {
            "hits": 0, "misses": 0, "entries": 0, "total_ops": 0,
        }

    def test_total_ops_budget_evicts_lru(self):
        cache = ProgramCache(maxsize=10, max_ops=1)  # any 2nd entry overflows
        a = cache.get_or_compile("bidiag", 4, 4, GreedyTree())
        assert cache.stats["total_ops"] == len(a)
        b = cache.get_or_compile("bidiag", 5, 4, GreedyTree())
        # The older program was evicted, the newest is always kept.
        assert len(cache) == 1
        assert cache.stats["total_ops"] == len(b)
        assert cache.get_or_compile("bidiag", 5, 4, GreedyTree()) is b
        with pytest.raises(ValueError):
            ProgramCache(max_ops=0)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            compile_program("cholesky", 4, 4, GreedyTree())


class TestReplay:
    def _factor_both_ways(self, rng, variant, shape, nb, tree):
        a = rng.standard_normal(shape)
        direct = TiledMatrix.from_dense(a.copy(), nb)
        driver = bidiag_ge2bnd if variant == "bidiag" else rbidiag_ge2bnd
        driver(NumericExecutor(direct), tree)
        replayed = TiledMatrix.from_dense(a.copy(), nb)
        program = get_program(variant, replayed.p, replayed.q, tree)
        replay(program, NumericExecutor(replayed))
        return direct.to_dense(), replayed.to_dense()

    def test_replay_matches_direct_drive_bitwise(self, rng):
        for variant, shape in (("bidiag", (24, 16)), ("rbidiag", (40, 12))):
            direct, replayed = self._factor_both_ways(rng, variant, shape, 4, GreedyTree())
            # Same op stream in the same order: bit-identical arithmetic.
            assert np.array_equal(direct, replayed)

    def test_replay_onto_recorder_reproduces_program(self):
        program = compile_program("bidiag", 4, 3, FlatTSTree())
        recorder = ProgramRecorder(4, 3)
        replay(program, recorder)
        again = recorder.program()
        assert [op.kernel for op in again.ops] == [op.kernel for op in program.ops]
        assert set(again.edges()) == set(program.edges())

    def test_replay_shape_guard(self):
        program = compile_program("qr", 4, 4, GreedyTree())
        with pytest.raises(ValueError):
            replay(program, ProgramRecorder(3, 3))


class TestEdgeCases:
    """1x1 tile problems and empty post-stages (satellite hardening)."""

    def test_single_tile_programs(self):
        for alg in ("qr", "bidiag", "rbidiag"):
            program = compile_program(alg, 1, 1, GreedyTree())
            assert len(program) == 1
            assert program.ops[0].kernel == KernelName.GEQRT
            assert program.n_edges == 0
            assert program.critical_path() == program.total_weight()

    def test_single_column_has_no_lq_stage(self):
        # p x 1: one QR panel, never an LQ step (the post-QR stages are empty).
        program = compile_program("bidiag", 5, 1, GreedyTree())
        counts = program.kernel_counts()
        assert KernelName.GELQT not in counts
        assert KernelName.UNMLQ not in counts
        assert counts[KernelName.GEQRT] >= 1

    def test_single_tile_numeric_replay(self, rng):
        a = rng.standard_normal((6, 6))
        mat = TiledMatrix.from_dense(a.copy(), 6)  # 1x1 tile grid
        assert (mat.p, mat.q) == (1, 1)
        program = get_program("bidiag", 1, 1, GreedyTree())
        replay(program, NumericExecutor(mat))
        ref = np.linalg.svd(a, compute_uv=False)
        got = np.linalg.svd(mat.to_dense(), compute_uv=False)
        np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_single_tile_simulation(self):
        from repro.runtime.engine import SimulationEngine
        from repro.runtime.machine import Machine

        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        program = get_program("bidiag", 1, 1, GreedyTree())
        engine = SimulationEngine(machine, policy="list").run(program)
        assert engine.makespan == machine.kernel_duration(KernelName.GEQRT) > 0

    def test_ge2val_single_tile_simulation(self):
        from repro.runtime.machine import Machine
        from repro.runtime.simulator import simulate_ge2val

        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        result = simulate_ge2val(100, 100, machine)  # p = q = 1
        assert result.p == result.q == 1
        assert result.time_seconds > 0
        assert result.post_seconds > 0


class TestHashSeedIndependence:
    """The analyzer iterates data items in sorted order, so the compiled
    edge structure is identical under any PYTHONHASHSEED (satellite fix)."""

    SNIPPET = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.ir import compile_program\n"
        "from repro.trees import GreedyTree\n"
        "p = compile_program('bidiag', 6, 4, GreedyTree())\n"
        "print(p.n_edges)\n"
        "print(list(p.edges()))\n"
    )

    def _run(self, hash_seed):
        import os

        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", self.SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            cwd=__file__.rsplit("/tests/", 1)[0],
            check=True,
        )
        return proc.stdout

    @pytest.mark.slow
    def test_edge_stream_identical_across_hash_seeds(self):
        out0 = self._run("0")
        out1 = self._run("4242")
        assert out0 == out1
