"""Golden full-schedule digests: every replay entry point, pinned bit for bit.

``tests/data/golden_schedules.json`` holds one sha256 per case over every
:class:`~repro.runtime.scheduler.Schedule` field (makespan hex, per-op
start/finish hexes, node and core mapping, busy time per node, message and
byte counts, send time and message count per node).  The digests were
captured from an earlier engine revision and are an oracle, not a snapshot:
they are never regenerated from the code under test, so any mismatch means
a schedule changed.

Every case runs through all three preparers of the event loop —
:meth:`SimulationEngine.run`, :func:`simulate_batch` and a
:class:`ScenarioReplayer` fed all-ones fault and noise rows — and each must
reproduce the same digest.  The matrix is the six policies x {uniform,
alpha-beta eager, alpha-beta rendezvous} x {one node; 2x2 grid; a custom
``BlockCyclicDistribution`` subclass; a custom ``AlphaBetaNetwork``
subclass; two further grid shapes; heterogeneous machines}.  The Monte-Carlo
makespans of the ``hostile`` scenario (3 draws, seed 7) are pinned too.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ir import get_program
from repro.runtime.batch import BatchCandidate, simulate_batch
from repro.runtime.engine import SimulationEngine
from repro.runtime.machine import Machine
from repro.runtime.network import AlphaBetaNetwork
from repro.runtime.policies import POLICIES
from repro.runtime.scenario import ScenarioReplayer, get_scenario, run_scenario
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree

FIXTURE = Path(__file__).parent / "data" / "golden_schedules.json"


class ShiftedDistribution(BlockCyclicDistribution):
    """Block-cyclic mapping rotated by one rank (custom ``owner()``)."""

    def owner(self, i, j):
        return (super().owner(i, j) + 1) % self.grid.size


class QuarterTile(AlphaBetaNetwork):
    """Alpha-beta pricing with quarter-tile payloads (per-op hook only)."""

    name = "quarter-tile"

    def message_bytes(self, op, machine):
        return machine.tile_bytes // 4


def _hetero(machine, scenario):
    return get_scenario(scenario).apply_to_machine(machine)


_M1 = Machine(n_nodes=1, cores_per_node=8, tile_size=160)
_M4 = Machine(n_nodes=4, cores_per_node=4, tile_size=100)

#: name -> (algorithm, p, q, tree, machine, distribution factory, custom net)
CONFIGS = {
    "1node": ("bidiag", 10, 8, GreedyTree(), _M1, None, False),
    "2x2": ("bidiag", 8, 8, FlatTTTree(), _M4,
            lambda: BlockCyclicDistribution(ProcessGrid(2, 2)), False),
    "custom-dist": ("bidiag", 8, 8, FlatTTTree(), _M4,
                    lambda: ShiftedDistribution(ProcessGrid(2, 2)), False),
    "custom-net": ("bidiag", 8, 8, FlatTTTree(), _M4,
                   lambda: BlockCyclicDistribution(ProcessGrid(2, 2)), True),
    "6node": ("bidiag", 9, 6, FlatTSTree(),
              Machine(n_nodes=6, cores_per_node=2, tile_size=120), None, False),
    "rbidiag-2node": ("rbidiag", 12, 4, GreedyTree(),
                      Machine(n_nodes=2, cores_per_node=4, tile_size=100),
                      None, False),
    "hetero-1node": ("bidiag", 10, 8, GreedyTree(),
                     _hetero(_M1, "slow-core"), None, False),
    "hetero-2x2": ("bidiag", 8, 8, FlatTTTree(), _hetero(_M4, "hostile"),
                   lambda: BlockCyclicDistribution(ProcessGrid(2, 2)), False),
}

NETWORKS = ("uniform", "alpha-beta", "rendezvous")


def _network(config, name):
    custom = CONFIGS[config][6]
    if name == "uniform":
        return "uniform"
    cls = QuarterTile if custom else AlphaBetaNetwork
    return cls(eager=(name == "alpha-beta"))


def _case_ids():
    for config in CONFIGS:
        for policy in sorted(POLICIES):
            for network in NETWORKS:
                if CONFIGS[config][6] and network == "uniform":
                    continue  # the custom hook only prices event-driven nets
                yield f"{config}/{policy}/{network}"


def _setup(case_id):
    config, policy, network = case_id.split("/")
    alg, p, q, tree, machine, dist_factory, _ = CONFIGS[config]
    program = get_program(alg, p, q, tree)
    dist = dist_factory() if dist_factory is not None else None
    return program, machine, dist, policy, _network(config, network)


def schedule_digest(schedule):
    """sha256 over every Schedule field (floats as exact hex strings)."""
    doc = [
        float(schedule.makespan).hex(),
        [float(x).hex() for x in schedule.start],
        [float(x).hex() for x in schedule.finish],
        [int(x) for x in schedule.node_of_task],
        [int(x) for x in schedule.core_of_task],
        [float(x).hex() for x in schedule.busy_time_per_node],
        int(schedule.messages),
        int(schedule.comm_bytes),
        [float(x).hex() for x in schedule.comm_time_per_node],
        [int(x) for x in schedule.messages_per_node],
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def engine_schedule(case_id):
    program, machine, dist, policy, network = _setup(case_id)
    return SimulationEngine(
        machine, dist, policy=policy, network=network
    ).run(program)


def batch_schedule(case_id):
    program, machine, dist, policy, network = _setup(case_id)
    return simulate_batch(
        program, [BatchCandidate(machine, dist, policy, network)]
    )[0]


def replayer_schedule(case_id):
    program, machine, dist, policy, network = _setup(case_id)
    engine = SimulationEngine(machine, dist, policy=policy, network=network)
    ones = np.ones(len(program))
    return ScenarioReplayer(engine, program).replay(ones, ones)


#: (config, policy, network) cases of the hostile Monte-Carlo pin.
HOSTILE_CASES = [
    f"{config}/{policy}/{network}"
    for config in ("1node", "2x2")
    for policy in sorted(POLICIES)
    for network in ("uniform", "alpha-beta")
]


def hostile_pin(case_id):
    """Nominal digest and draw makespan hexes of a hostile 3-draw run."""
    program, machine, dist, policy, network = _setup(case_id)
    run = run_scenario(
        program, machine, get_scenario("hostile"), dist,
        policy=policy, network=network, draws=3, seed=7,
    )
    return {
        "nominal": schedule_digest(run.schedule),
        "makespans": [float(m).hex() for m in run.distribution.makespans],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_matrix(golden):
    assert sorted(golden["schedules"]) == sorted(_case_ids())
    assert sorted(golden["hostile"]) == sorted(HOSTILE_CASES)


@pytest.mark.parametrize("case_id", list(_case_ids()))
@pytest.mark.parametrize(
    "path", [engine_schedule, batch_schedule, replayer_schedule],
    ids=["engine", "batch", "replayer"],
)
def test_schedule_matches_golden_digest(golden, case_id, path):
    assert schedule_digest(path(case_id)) == golden["schedules"][case_id]


@pytest.mark.parametrize("case_id", HOSTILE_CASES)
def test_hostile_draws_match_golden(golden, case_id):
    assert hostile_pin(case_id) == golden["hostile"][case_id]


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_precomputed_placement_matches_golden(golden, policy):
    # node_of_op= with the custom distribution's mapping is the same run.
    case_id = f"custom-dist/{policy}/alpha-beta"
    program, machine, dist, _, network = _setup(case_id)
    placement = [dist.owner(*op.owner_tile) for op in program.ops]
    sched = SimulationEngine(machine, policy=policy, network=network).run(
        program, node_of_op=placement
    )
    assert schedule_digest(sched) == golden["schedules"][case_id]
