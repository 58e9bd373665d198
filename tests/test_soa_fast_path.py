"""Differential and property tests for the structure-of-arrays pipeline.

The contract: the SoA pipeline (column recording, integer-coded
dependency analysis, vectorized CSR/level construction, array-native
engine preparation) is **bit-identical** to the per-op object path on
every observable it replaces — rank arrays, critical paths, bottom levels,
static communication counts — and independent of ``PYTHONHASHSEED``.
Full schedules across all policies x networks x grids are pinned by the
golden digests of ``tests/test_golden_schedules.py``.
"""

import gc
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.communication import (
    communication_matrix,
    communication_volume,
)
from repro.dag.critical_path import critical_path_length, critical_path_tasks
from repro.ir import Program, clear_program_cache, compile_program, get_program
from repro.runtime.engine import (
    _OWNER_VECTORS,
    SimulationEngine,
    critical_path_seconds,
    engine_memo_stats,
    serial_seconds,
)
from repro.runtime.machine import Machine
from repro.runtime.network import get_network_model
from repro.runtime.policies import POLICIES, RandomPolicy, get_policy
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree
from repro.verify.dataflow import verify_program
from repro.verify.schedule import verify_schedule


@pytest.fixture(autouse=True)
def _fresh_program_cache():
    clear_program_cache()
    yield
    clear_program_cache()


#: (algorithm, p, q, tree, machine) configurations spanning single- and
#: multi-node shapes, square and tall-skinny grids.
CONFIGS = [
    ("bidiag", 10, 8, GreedyTree(), Machine(n_nodes=1, cores_per_node=8, tile_size=160)),
    ("bidiag", 8, 8, FlatTTTree(), Machine(n_nodes=4, cores_per_node=4, tile_size=100)),
    ("bidiag", 9, 6, FlatTSTree(), Machine(n_nodes=6, cores_per_node=2, tile_size=120)),
    ("rbidiag", 12, 4, GreedyTree(), Machine(n_nodes=2, cores_per_node=4, tile_size=100)),
]


def _assert_schedules_identical(a, b):
    assert a.makespan == b.makespan  # bitwise, not approx
    assert a.start == b.start
    assert a.finish == b.finish
    assert a.node_of_task == b.node_of_task
    assert a.core_of_task == b.core_of_task
    assert a.busy_time_per_node == b.busy_time_per_node
    assert a.messages == b.messages
    assert a.comm_bytes == b.comm_bytes
    assert a.comm_time_per_node == b.comm_time_per_node
    assert a.messages_per_node == b.messages_per_node


def _object_built(program, ops=None):
    """``program`` rebuilt through ``Program(ops, pred_lists)`` (no columns)."""
    preds = [list(program.predecessors(i)) for i in range(len(program))]
    return Program(program.ops if ops is None else ops, preds)


class TestSingleRuns:
    """Edge shapes of one engine run (the full policy x network x grid
    matrix is pinned by tests/test_golden_schedules.py)."""

    def test_single_op_program(self):
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        program = get_program("bidiag", 1, 1, GreedyTree())
        sched = SimulationEngine(machine).run(program)
        assert len(program) == 1
        assert sched.start == [0.0]
        assert sched.makespan == machine.kernel_duration(program.ops[0].kernel)
        assert sched.busy_time_per_node == [sched.makespan]

    def test_empty_program(self):
        machine = Machine(n_nodes=2, cores_per_node=4, tile_size=100)
        sched = SimulationEngine(machine).run(Program([], []))
        assert sched.makespan == 0.0
        assert sched.start == [] and sched.core_of_task == []
        assert sched.busy_time_per_node == [0.0, 0.0]
        assert sched.messages_per_node == [0, 0]


class TestRankArrays:
    """Vectorized policy ranking == legacy per-node recursion, bitwise."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("alg,p,q,tree,machine", CONFIGS[:2])
    def test_rank_array_matches_rank(self, alg, p, q, tree, machine, policy_name):
        program = get_program(alg, p, q, tree)
        engine = SimulationEngine(machine, policy=policy_name)
        durations = engine.duration_vector(program)
        node_np = engine.owner_vector(program)
        node_list = (
            node_np.tolist() if node_np is not None else [0] * len(program)
        )
        policy = get_policy(policy_name)
        legacy = policy.rank(program, durations.tolist(), node_list, machine)
        vectorized = policy.rank_array(program, durations, node_np, machine)
        assert vectorized is not None
        assert list(vectorized) == list(legacy)

    def test_bottom_levels_vectorized_bitwise(self):
        program = get_program("bidiag", 12, 10, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
        durations = machine.kernel_duration_table()[program.kernel_codes_np]
        assert program.bottom_levels_np(durations).tolist() == (
            program.bottom_levels(durations.tolist())
        )

    def test_critical_path_vectorized_bitwise(self):
        for alg, p, q, tree, machine in CONFIGS:
            program = get_program(alg, p, q, tree)
            # Default Table-I weights: vectorized sweep vs per-op loop.
            assert program.critical_path() == program.critical_path(
                weight_fn=lambda op: float(op.weight)
            )
            # Duration weights: vectorized sweep vs explicit weight_fn loop.
            want = program.critical_path(
                weight_fn=lambda op: machine.kernel_duration(op.kernel)
            )
            assert critical_path_seconds(program, machine) == want

    def test_critical_path_tasks_sum_to_length(self):
        program = get_program("bidiag", 6, 5, GreedyTree())
        path = critical_path_tasks(program)
        assert sum(op.weight for op in path) == critical_path_length(program)
        for src, dst in zip(path, path[1:]):
            assert src.index in program.predecessors(dst.index)

    def test_serial_seconds_matches_per_op_sum(self):
        program = get_program("bidiag", 8, 6, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
        want = sum(machine.kernel_duration(op.kernel) for op in program.ops)
        assert serial_seconds(program, machine) == want


class TestSoAColumns:
    """The packed columns agree with the materialized object form."""

    def test_columns_match_ops(self):
        program = compile_program("bidiag", 7, 5, GreedyTree())
        ops = program.ops
        assert program.kernel_codes_np.tolist() == [
            list(type(op.kernel)).index(op.kernel) for op in ops
        ]
        assert program.weights_np.tolist() == [op.weight for op in ops]
        assert program.owner_rows_np.tolist() == [op.owner_tile[0] for op in ops]
        assert program.owner_cols_np.tolist() == [op.owner_tile[1] for op in ops]
        assert program.writes_count_np.tolist() == [len(op.writes) for op in ops]
        assert program.total_weight() == sum(op.weight for op in ops)

    def test_ops_materialize_lazily(self):
        program = compile_program("bidiag", 6, 6, FlatTSTree())
        assert program._ops is None  # compiled in column form
        assert len(program) > 0  # length needs no materialization
        assert program.columns is not None
        ops = program.ops  # first touch materializes
        assert program._ops is ops
        assert all(op.index == i for i, op in enumerate(ops))

    def test_levels_are_topological(self):
        for alg in ("qr", "bidiag", "rbidiag"):
            program = compile_program(alg, 6, 4, GreedyTree())
            levels = program.levels_np
            for src, dst in program.edges():
                assert levels[src] < levels[dst]

    def test_levels_match_object_path(self):
        program = compile_program("bidiag", 6, 5, FlatTTTree())
        rebuilt = _object_built(program)
        assert program.levels_np.tolist() == rebuilt.levels_np.tolist()

    def test_coded_analysis_matches_dataflow_oracle(self):
        # The independent dataflow verifier re-derives every RAW/WAR edge
        # from the kernel semantics; the analyzer's CSR must match it.
        for alg, tree in (("bidiag", GreedyTree()), ("rbidiag", FlatTSTree())):
            report = verify_program(compile_program(alg, 6, 4, tree))
            assert report.count("P-MISSING-EDGE") == 0
            assert report.count("P-SPURIOUS-EDGE") == 0

    def test_from_columns_rejects_backward_edges(self):
        program = compile_program("qr", 2, 1, GreedyTree())
        cols = program.columns
        bad = [[1]] + [[] for _ in range(len(program) - 1)]
        with pytest.raises(ValueError):
            Program.from_columns(cols, bad)

    def test_replay_column_dispatch_matches_object_dispatch(self):
        from repro.ir import ProgramRecorder, replay

        program = compile_program("bidiag", 5, 4, GreedyTree())
        assert program.columns is not None
        via_columns = ProgramRecorder(5, 4)
        replay(program, via_columns)
        rebuilt = _object_built(program)  # no columns
        assert rebuilt.columns is None
        via_ops = ProgramRecorder(5, 4)
        replay(rebuilt, via_ops)
        a, b = via_columns.columns(), via_ops.columns()
        assert list(a.kernels) == list(b.kernels)
        assert list(a.params) == list(b.params)


class TestOwnerVector:
    def test_owner_array_matches_owner(self):
        dist = BlockCyclicDistribution(ProcessGrid(3, 2))
        rows = np.arange(40) % 7
        cols = np.arange(40) % 5
        want = [dist.owner(int(i), int(j)) for i, j in zip(rows, cols)]
        assert dist.owner_array(rows, cols).tolist() == want

    def test_owner_array_rejects_negative(self):
        dist = BlockCyclicDistribution(ProcessGrid(2, 2))
        with pytest.raises(IndexError):
            dist.owner_array(np.array([0, -1]), np.array([0, 0]))

    def test_precomputed_node_of_op(self):
        # A caller-supplied placement (round-robin, ignoring the block-cyclic
        # rule) must be honoured, and the schedule must stay feasible for it.
        program = get_program("bidiag", 6, 6, GreedyTree())
        machine = Machine(n_nodes=3, cores_per_node=4, tile_size=100)
        placement = [i % 3 for i in range(len(program))]
        for network in ("uniform", "alpha-beta"):
            sched = SimulationEngine(machine, network=network).run(
                program, node_of_op=placement
            )
            assert sched.node_of_task == placement
            verify_schedule(
                sched, program, machine, network=network, node_of_op=placement
            ).raise_if_failed()

    def test_node_of_op_length_validated(self):
        program = get_program("bidiag", 4, 4, GreedyTree())
        machine = Machine(n_nodes=2, cores_per_node=4, tile_size=100)
        with pytest.raises(ValueError):
            SimulationEngine(machine).run(program, node_of_op=[0, 1])


class TestMemoization:
    """Duration/owner/rank tables are shared across engines and runs."""

    def test_duration_vector_memoized_across_engines(self):
        program = get_program("bidiag", 6, 6, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
        a = SimulationEngine(machine).duration_vector(program)
        b = SimulationEngine(machine).duration_vector(program)
        assert a is b  # same read-only vector, no re-pricing
        want = [machine.kernel_duration(op.kernel) for op in program.ops]
        assert a.tolist() == want
        # A different machine gets its own vector.
        other = Machine(n_nodes=1, cores_per_node=8, tile_size=100)
        c = SimulationEngine(other).duration_vector(program)
        assert c is not a

    def test_rank_order_memoized_per_policy(self):
        program = get_program("bidiag", 6, 6, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
        e1 = SimulationEngine(machine, policy="list")
        e2 = SimulationEngine(machine, policy="list")
        d = e1.duration_vector(program)
        o1 = e1.rank_order(program, d, None)
        o2 = e2.rank_order(program, d, None)
        assert o1 is o2
        # On one node locality folds onto list's order (same memo entry).
        local = SimulationEngine(machine, policy="locality")
        assert local.rank_order(program, d, None) is o1
        # Different random seeds must not collide in the memo.
        r0 = SimulationEngine(machine, policy=RandomPolicy(seed=0))
        r1 = SimulationEngine(machine, policy=RandomPolicy(seed=1))
        assert r0.rank_order(program, d, None) != r1.rank_order(program, d, None)

    def test_owner_vector_memoized_per_grid(self):
        program = get_program("bidiag", 8, 8, FlatTTTree())
        machine = Machine(n_nodes=4, cores_per_node=4, tile_size=100)
        e = SimulationEngine(machine)
        assert e.owner_vector(program) is e.owner_vector(program)
        tall = SimulationEngine(
            machine,
            BlockCyclicDistribution(ProcessGrid.for_tall_skinny_matrix(4)),
        )
        assert tall.owner_vector(program) is not e.owner_vector(program)

    def test_memo_tables_release_dropped_programs(self):
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        before = engine_memo_stats()["duration_programs"]
        program = compile_program("bidiag", 5, 5, GreedyTree())
        SimulationEngine(machine).run(program)
        assert engine_memo_stats()["duration_programs"] == before + 1
        del program
        gc.collect()
        assert engine_memo_stats()["duration_programs"] == before

    def test_custom_distribution_falls_back_to_per_op_owner(self):
        # A distribution subclass with its own owner() must not be fed
        # through the vectorized block-cyclic mapping (or the memo).
        class ShiftedDistribution(BlockCyclicDistribution):
            def owner(self, i, j):
                return (super().owner(i, j) + 1) % self.grid.size

        program = get_program("bidiag", 6, 6, GreedyTree())
        machine = Machine(n_nodes=4, cores_per_node=2, tile_size=100)
        plain = BlockCyclicDistribution(ProcessGrid(2, 2))
        shifted = ShiftedDistribution(ProcessGrid(2, 2))
        sched = SimulationEngine(machine, shifted).run(program)
        want = [(plain.owner(*op.owner_tile) + 1) % 4 for op in program.ops]
        assert sched.node_of_task == want
        assert _OWNER_VECTORS.get(program) is None

    def test_custom_distribution_never_hits_rank_memo(self):
        # Regression: rank keys memoized under (machine, grid shape) for
        # the canonical block-cyclic mapping must not be served to a
        # distribution subclass with the same grid shape but a different
        # owner() — and vice versa.
        class TransposedDistribution(BlockCyclicDistribution):
            def owner(self, i, j):
                return self.grid.rank_of(j % self.grid.rows, i % self.grid.cols)

        program = get_program("bidiag", 8, 8, GreedyTree())
        machine = Machine(n_nodes=6, cores_per_node=2, tile_size=100)
        grid = ProcessGrid(2, 3)
        # The custom mapping on a cold memo is the reference.
        custom_cold = SimulationEngine(
            machine, TransposedDistribution(grid), policy="locality"
        ).run(program)
        # Populate the memo with the canonical mapping, then rerun.
        plain = SimulationEngine(
            machine, BlockCyclicDistribution(grid), policy="locality"
        ).run(program)
        custom = SimulationEngine(
            machine, TransposedDistribution(grid), policy="locality"
        ).run(program)
        _assert_schedules_identical(custom, custom_cold)
        assert custom.node_of_task != plain.node_of_task
        # ... and the custom runs must not have poisoned the memo either.
        plain_again = SimulationEngine(
            machine, BlockCyclicDistribution(grid), policy="locality"
        ).run(program)
        _assert_schedules_identical(plain, plain_again)

    def test_network_subclass_overriding_message_bytes_only(self):
        # Regression: a network that customizes only the per-op
        # message_bytes hook must be priced per op by the fast path, not
        # through the stale inherited vector form.
        from repro.runtime.network import AlphaBetaNetwork

        class QuarterTile(AlphaBetaNetwork):
            name = "quarter-tile"

            def message_bytes(self, op, machine):
                return machine.tile_bytes // 4

        program = get_program("bidiag", 8, 8, FlatTTTree())
        machine = Machine(n_nodes=4, cores_per_node=4, tile_size=100)
        sched = SimulationEngine(machine, network=QuarterTile()).run(program)
        assert sched.messages > 0
        assert sched.comm_bytes == sched.messages * (machine.tile_bytes // 4)

    def test_object_built_programs_honor_custom_weights(self):
        # Regression: object-built programs carry whatever weight the
        # caller stamped on each Op; the packed weight column must read it
        # rather than re-deriving Table-I values.
        import dataclasses

        base = get_program("bidiag", 4, 4, GreedyTree())
        ops = [dataclasses.replace(op, weight=op.weight * 7) for op in base.ops]
        program = _object_built(base, ops)
        assert program.total_weight() == 7 * base.total_weight()
        assert program.critical_path() == 7 * base.critical_path()
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        policy = get_policy("critical-path")
        durations = SimulationEngine(machine).duration_vector(program)
        keys = policy.rank_array(program, durations, None, machine)
        assert list(keys) == policy.rank(
            program, durations.tolist(), [0] * len(program), machine
        )
        assert list(keys) == [7 * k for k in policy.rank(
            base, durations.tolist(), [0] * len(base), machine
        )]

    def test_csr_views_are_read_only(self):
        program = get_program("bidiag", 5, 4, GreedyTree())
        for vec in (program.pred_indptr_np, program.pred_ids_np,
                    program.succ_indptr_np, program.succ_ids_np,
                    program.weights_np, program.kernel_codes_np):
            assert not vec.flags.writeable

    def test_rank_array_may_return_ndarray(self):
        from repro.runtime.policies import SchedulingPolicy

        class NdFifo(SchedulingPolicy):
            name = "nd-fifo"

            def rank(self, program, durations, node_of_op, machine):
                return [float(i) for i in range(len(program))]

            def rank_array(self, program, durations, node_of_op, machine):
                return np.arange(len(program), dtype=np.float64)

        program = get_program("bidiag", 5, 5, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        nd = SimulationEngine(machine, policy=NdFifo()).run(program)
        fifo = SimulationEngine(machine, policy="fifo").run(program)
        _assert_schedules_identical(nd, fifo)

    def test_custom_policy_not_cached(self):
        from repro.runtime.policies import SchedulingPolicy

        class Custom(SchedulingPolicy):
            name = "custom"

            def rank(self, program, durations, node_of_op, machine):
                return [float(i) for i in range(len(program))]

        program = get_program("bidiag", 5, 5, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        engine = SimulationEngine(machine, policy=Custom())
        assert engine.policy.cache_token is None
        schedule = engine.run(program)  # fast path falls back to rank()
        fifo = SimulationEngine(machine, policy="fifo").run(program)
        _assert_schedules_identical(schedule, fifo)


class _WalkedDistribution(BlockCyclicDistribution):
    """The stock owner rule under a subclass: static counts then take the
    scalar per-edge walk instead of the vectorized path."""


class TestStaticCommunication:
    """Vectorized static message counts == scalar per-edge walk."""

    @pytest.mark.parametrize("grid", [ProcessGrid(2, 2), ProcessGrid(3, 2),
                                      ProcessGrid(4, 1)])
    def test_volume_and_matrix_match_scalar_walk(self, grid):
        program = get_program("bidiag", 8, 6, GreedyTree())
        dist = BlockCyclicDistribution(grid)
        walked = _WalkedDistribution(grid)
        fast = communication_volume(program, dist)
        slow = communication_volume(program, walked)
        assert fast.messages == slow.messages
        assert fast.bytes_moved == slow.bytes_moved
        assert fast.per_node_sent == slow.per_node_sent
        assert fast.per_node_received == slow.per_node_received
        assert communication_matrix(program, dist) == communication_matrix(
            program, walked
        )

    def test_message_bytes_vector_matches_per_op(self):
        program = get_program("bidiag", 6, 5, GreedyTree())
        machine = Machine(n_nodes=4, cores_per_node=2, tile_size=120)
        for name in ("uniform", "alpha-beta"):
            model = get_network_model(name)
            vec = model.message_bytes_vector(program, machine)
            want = [model.message_bytes(op, machine) for op in program.ops]
            assert vec.tolist() == want


class TestHashSeedDeterminism:
    """Rank arrays, levels and schedules are PYTHONHASHSEED-independent."""

    SNIPPET = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.ir import compile_program\n"
        "from repro.runtime.engine import SimulationEngine\n"
        "from repro.runtime.machine import Machine\n"
        "from repro.trees import GreedyTree\n"
        "program = compile_program('bidiag', 7, 5, GreedyTree())\n"
        "machine = Machine(n_nodes=4, cores_per_node=2, tile_size=100)\n"
        "for policy in ('list', 'critical-path', 'locality'):\n"
        "    engine = SimulationEngine(machine, policy=policy)\n"
        "    d = engine.duration_vector(program)\n"
        "    order = engine.rank_order(program, d, engine.owner_vector(program))\n"
        "    print(policy, order)\n"
        "print(program.levels_np.tolist())\n"
        "print(SimulationEngine(machine).run(program).makespan)\n"
    )

    def _run(self, hash_seed):
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
    def test_rank_arrays_identical_across_hash_seeds(self):
        assert self._run("0") == self._run("4242")
