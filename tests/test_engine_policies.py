"""Tests for the event-driven SimulationEngine and its scheduling policies.

Pins the contract of the tentpole refactor:

* the ``list`` policy's makespans are pinned to absolute numbers (the
  full schedules are pinned by ``tests/test_golden_schedules.py``);
* every policy's makespan respects the fundamental scheduling bounds
  (critical path <= makespan <= serial time);
* schedules are bit-reproducible across runs and Python hash seeds
  (stable task-id tie-breaking in the ready queue);
* the policy registry and the CLI surface (``repro policies``,
  ``--policy``) behave.
"""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.ir import clear_program_cache, get_program
from repro.runtime.engine import (
    SimulationEngine,
    critical_path_seconds,
    run_policy,
    serial_seconds,
)
from repro.runtime.machine import Machine
from repro.runtime.policies import (
    POLICIES,
    RandomPolicy,
    SchedulingPolicy,
    available_policies,
    get_policy,
)
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree


@pytest.fixture(autouse=True)
def _fresh_program_cache():
    clear_program_cache()
    yield
    clear_program_cache()


#: (algorithm, p, q, tree, machine) configurations used across the tests.
CONFIGS = [
    ("bidiag", 8, 6, GreedyTree(), Machine(n_nodes=1, cores_per_node=8, tile_size=160)),
    ("bidiag", 10, 10, FlatTSTree(), Machine(n_nodes=1, cores_per_node=24, tile_size=160)),
    ("rbidiag", 12, 4, GreedyTree(), Machine(n_nodes=1, cores_per_node=8, tile_size=100)),
    ("bidiag", 8, 8, FlatTTTree(), Machine(n_nodes=4, cores_per_node=4, tile_size=100)),
]


class TestListPolicyPins:
    def test_golden_pins(self):
        """Absolute makespans of the list policy on paper-scale shapes.

        Pinned at the time of the engine refactor; if these move,
        scheduling semantics changed.
        """
        pins = {
            ("bidiag", 8, 6): (0.030137913139087435, 0),
            ("bidiag", 10, 10): (0.07270787239075735, 0),
            ("rbidiag", 12, 4): (0.005789154880303859, 0),
            ("bidiag", 8, 8): (0.014644620654039035, 441),
        }
        for alg, p, q, tree, machine in CONFIGS:
            schedule = SimulationEngine(machine, policy="list").run(
                get_program(alg, p, q, tree)
            )
            makespan, messages = pins[(alg, p, q)]
            assert schedule.makespan == pytest.approx(makespan, rel=1e-13)
            assert schedule.messages == messages


class TestPolicyBounds:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("alg,p,q,tree,machine", CONFIGS)
    def test_makespan_between_cp_and_serial(self, policy, alg, p, q, tree, machine):
        program = get_program(alg, p, q, tree)
        schedule = SimulationEngine(machine, policy=policy).run(program)
        lower = critical_path_seconds(program, machine)
        upper = serial_seconds(program, machine)
        assert lower <= schedule.makespan + 1e-12
        # Communication can push a multi-node schedule past the serial
        # compute time; the upper bound is only guaranteed without messages.
        if schedule.messages == 0:
            assert schedule.makespan <= upper + 1e-12

    def test_all_policies_respect_dependencies(self):
        program = get_program("bidiag", 6, 5, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        for policy in sorted(POLICIES):
            schedule = SimulationEngine(machine, policy=policy).run(program)
            for dst in range(len(program)):
                for src in program.predecessors(dst):
                    assert schedule.start[dst] >= schedule.finish[src] - 1e-12

    def test_informed_policies_beat_random_here(self):
        program = get_program("bidiag", 12, 10, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
        random_makespan = run_policy(program, machine, policy="random").makespan
        for policy in ("list", "critical-path", "locality"):
            assert run_policy(program, machine, policy=policy).makespan < random_makespan


class TestDeterminism:
    """Stable task-id tie-breaking: bit-reproducible schedules (satellite)."""

    def test_repeated_runs_are_bitwise_identical(self):
        machine = Machine(n_nodes=4, cores_per_node=4, tile_size=100)
        runs = [
            SimulationEngine(machine, policy="list").run(
                get_program("bidiag", 8, 8, FlatTTTree())
            )
            for _ in range(3)
        ]
        assert runs[0].makespan == runs[1].makespan == runs[2].makespan
        assert runs[0].start == runs[1].start == runs[2].start
        assert runs[0].core_of_task == runs[1].core_of_task

    SNIPPET = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.ir import get_program\n"
        "from repro.runtime.engine import SimulationEngine\n"
        "from repro.runtime.machine import Machine\n"
        "from repro.trees import FlatTTTree\n"
        "m = Machine(n_nodes=4, cores_per_node=4, tile_size=100)\n"
        "for policy in ('list', 'critical-path', 'locality', 'random'):\n"
        "    s = SimulationEngine(m, policy=policy).run(\n"
        "        get_program('bidiag', 8, 8, FlatTTTree()))\n"
        "    print(policy, repr(s.makespan), s.messages, s.comm_bytes)\n"
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
    def test_makespans_identical_across_hash_seeds(self):
        assert self._run("0") == self._run("31337")


class TestRandomPolicy:
    def test_same_seed_reproduces(self):
        program = get_program("bidiag", 6, 5, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=4, tile_size=100)
        a = run_policy(program, machine, policy=RandomPolicy(seed=7))
        b = run_policy(program, machine, policy=RandomPolicy(seed=7))
        assert a.makespan == b.makespan
        assert a.start == b.start

    def test_seed_is_an_axis(self):
        program = get_program("bidiag", 10, 8, GreedyTree())
        machine = Machine(n_nodes=1, cores_per_node=8, tile_size=100)
        makespans = {
            run_policy(program, machine, policy=RandomPolicy(seed=s)).makespan
            for s in range(5)
        }
        assert len(makespans) > 1  # different seeds explore different orders


class TestRegistry:
    def test_get_policy_by_name_and_instance(self):
        policy = get_policy("critical-path")
        assert policy.name == "critical-path"
        assert get_policy(policy) is policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            get_policy("magic")
        with pytest.raises(ValueError):
            SimulationEngine(Machine(), policy="magic")

    def test_available_policies_listing(self):
        listing = available_policies()
        assert [name for name, _ in listing] == sorted(POLICIES)
        assert all(desc for _, desc in listing)
        assert {"list", "critical-path", "locality", "random"} <= set(POLICIES)

    def test_policy_rank_length_checked(self):
        class Broken(SchedulingPolicy):
            name = "broken"

            def rank(self, program, durations, node_of_op, machine):
                return [0.0]

        machine = Machine(n_nodes=1, cores_per_node=2, tile_size=100)
        with pytest.raises(ValueError):
            SimulationEngine(machine, policy=Broken()).run(
                get_program("qr", 3, 2, GreedyTree())
            )

    def test_distribution_process_count_must_match(self):
        machine = Machine(n_nodes=4)
        with pytest.raises(ValueError):
            SimulationEngine(machine, BlockCyclicDistribution(ProcessGrid(1, 2)))


class TestCli:
    def test_policies_listing(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in POLICIES:
            assert name in out

    @pytest.mark.parametrize("policy", ["critical-path", "random"])
    def test_simulate_with_policy(self, capsys, policy):
        assert main(["simulate", "1000", "1000", "--nb", "100", "--cores", "4",
                     "--policy", policy]) == 0
        out = capsys.readouterr().out
        assert f"policy         : {policy}" in out

    def test_simulate_default_policy_is_list(self, capsys):
        assert main(["simulate", "800", "800", "--nb", "100", "--cores", "4"]) == 0
        assert "policy         : list" in capsys.readouterr().out

    def test_tune_with_policy(self, capsys, tmp_path):
        args = ["tune", "--m", "400", "--n", "400", "--n-cores", "4",
                "--tile-sizes", "50,100", "--trees", "greedy",
                "--variants", "bidiag", "--policy", "critical-path",
                "--cache-file", str(tmp_path / "cache.json")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "best tile size" in out
