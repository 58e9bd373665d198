"""Tests for the machine-realism scenario subsystem (repro.runtime.scenario).

Covers the fault/noise models, the scenario registry and its validation,
heterogeneous Machine slowdowns, the MakespanDistribution summary, the
golden-pinned default simulate path (the zero-scenario route must stay
bit-identical across policies, networks and engine paths), scenario
execution through the plan API and the batched sweep path, robust-makespan
tuning reproducibility, the CLI surface, and — under ``@slow`` — seeded
determinism across PYTHONHASHSEED / engine-path subprocesses.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import SvdPlan, execute, execute_sweep
from repro.obs.metrics import REGISTRY
from repro.runtime.batch import BatchCandidate
from repro.runtime.engine import SimulationEngine
from repro.runtime.faults import (
    FailStopFaults,
    LinkJitterNoise,
    NoFaults,
    StragglerFaults,
    fail_stop_factors,
    get_fault_model,
    get_noise_model,
)
from repro.runtime.machine import Machine
from repro.runtime.scenario import (
    SCENARIOS,
    MakespanDistribution,
    Scenario,
    ScenarioReplayer,
    available_scenarios,
    get_scenario,
    run_scenario,
)
from repro.runtime.simulator import simulate_ge2bnd, simulate_ge2val


# --------------------------------------------------------------------------- #
# Fault and noise models
# --------------------------------------------------------------------------- #
class TestFaultModels:
    def test_fail_stop_factors_closed_form(self):
        counts = np.array([0, 1, 2, 5])
        np.testing.assert_array_equal(
            fail_stop_factors(counts, 1.0), [1.0, 2.0, 3.0, 6.0]
        )
        np.testing.assert_array_equal(
            fail_stop_factors(counts, 0.5), [1.0, 1.5, 2.0, 3.5]
        )

    def test_fail_stop_validation(self):
        with pytest.raises(ValueError, match="must be < 1"):
            FailStopFaults(prob=1.0)
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            FailStopFaults(prob=-0.1)
        with pytest.raises(ValueError, match="positive finite"):
            FailStopFaults(prob=0.1, rework=0.0)

    def test_straggler_validation(self):
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            StragglerFaults(prob=1.5)
        with pytest.raises(ValueError, match="positive finite"):
            StragglerFaults(prob=0.5, scale=-1.0)
        # prob=1 is legal for stragglers (every op straggles).
        assert not StragglerFaults(prob=1.0).deterministic

    def test_sample_shapes_and_floor(self):
        rng = np.random.default_rng(0)
        for model in (FailStopFaults(prob=0.2), StragglerFaults(prob=0.3)):
            factors, events = model.sample(rng, 7, 13)
            assert factors.shape == (7, 13)
            assert events.shape == (7,)
            assert (factors >= 1.0).all()
            assert (events >= 0).all()

    def test_zero_probability_is_deterministic_identity(self):
        rng = np.random.default_rng(0)
        for model in (FailStopFaults(prob=0.0), StragglerFaults(prob=0.0)):
            assert model.deterministic
            factors, events = model.sample(rng, 3, 5)
            assert (factors == 1.0).all()
            assert (events == 0).all()

    def test_noise_floor_and_validation(self):
        rng = np.random.default_rng(1)
        factors = LinkJitterNoise(sigma=0.5).sample(rng, 4, 9)
        assert factors.shape == (4, 9)
        assert (factors >= 1.0).all()
        with pytest.raises(ValueError):
            LinkJitterNoise(sigma=-0.5)

    def test_registry_coercion(self):
        assert isinstance(get_fault_model("none"), NoFaults)
        model = get_fault_model("fail-stop", prob=0.1)
        assert model.prob == 0.1
        assert get_fault_model(model) is model
        with pytest.raises(ValueError, match="unknown"):
            get_fault_model("meteor-strike")
        with pytest.raises(ValueError):
            get_fault_model(model, prob=0.2)  # kwargs with an instance
        assert get_noise_model("link-jitter", sigma=0.1).sigma == 0.1


# --------------------------------------------------------------------------- #
# Scenario registry and validation
# --------------------------------------------------------------------------- #
class TestScenarioRegistry:
    def test_registry_names_are_consistent(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
        assert SCENARIOS["none"].is_trivial
        assert SCENARIOS["hetero"].heterogeneous
        assert not SCENARIOS["hetero"].stochastic
        assert SCENARIOS["straggler"].stochastic
        assert SCENARIOS["hostile"].heterogeneous
        assert SCENARIOS["hostile"].stochastic

    def test_available_scenarios_sorted_pairs(self):
        listing = available_scenarios()
        assert [name for name, _ in listing] == sorted(SCENARIOS)
        assert all(desc for _, desc in listing)

    def test_get_scenario_coercion(self):
        assert get_scenario(None) is None
        assert get_scenario("HETERO ") is SCENARIOS["hetero"]
        scen = Scenario(name="custom", node_slowdowns=(1.0, 2.0))
        assert get_scenario(scen) is scen
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("perfect-machine")

    def test_validation_rejects_speedups_and_bad_draws(self):
        with pytest.raises(ValueError, match=">= 1.0"):
            Scenario(name="bad", node_slowdowns=(0.5,))
        with pytest.raises(ValueError, match=">= 1.0"):
            Scenario(name="bad", core_slowdowns=(1.0, float("inf")))
        with pytest.raises(ValueError, match="draws"):
            Scenario(name="bad", draws=0)

    def test_fingerprint_distinguishes_configurations(self):
        a = Scenario(name="x", faults=FailStopFaults(prob=0.1))
        b = Scenario(name="x", faults=FailStopFaults(prob=0.2))
        c = Scenario(name="x", node_slowdowns=(1.0, 1.5))
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_apply_to_machine(self):
        machine = Machine(n_nodes=4, cores_per_node=2, tile_size=100)
        # Homogeneous scenarios hand back the very same object (memo keys).
        assert SCENARIOS["none"].apply_to_machine(machine) is machine
        assert SCENARIOS["straggler"].apply_to_machine(machine) is machine
        het = SCENARIOS["hetero"].apply_to_machine(machine)
        assert het.node_slowdowns == (1.0, 1.25, 1.0, 1.25)  # block-cyclic
        assert het.core_slowdowns is None
        assert het.heterogeneous


class TestMachineSlowdowns:
    def test_validation(self):
        with pytest.raises(ValueError, match="node_slowdowns"):
            Machine(n_nodes=2, cores_per_node=2, tile_size=100,
                    node_slowdowns=(1.0,))
        with pytest.raises(ValueError):
            Machine(n_nodes=2, cores_per_node=2, tile_size=100,
                    node_slowdowns=(1.0, 0.5))
        with pytest.raises(ValueError, match="core_slowdowns"):
            Machine(n_nodes=1, cores_per_node=4, tile_size=100,
                    core_slowdowns=(1.0, 1.0))

    def test_heterogeneous_property_and_factors(self):
        nominal = Machine(n_nodes=2, cores_per_node=2, tile_size=100)
        assert not nominal.heterogeneous
        assert nominal.node_factors() is None
        all_ones = Machine(n_nodes=2, cores_per_node=2, tile_size=100,
                           node_slowdowns=(1.0, 1.0))
        assert not all_ones.heterogeneous  # all-ones counts as homogeneous
        assert all_ones.node_factors() is None
        het = Machine(n_nodes=2, cores_per_node=2, tile_size=100,
                      node_slowdowns=(1.0, 1.5), core_slowdowns=(1.25, 1.0))
        assert het.heterogeneous
        assert het.node_factors() == (1.0, 1.5)
        assert het.core_factors() == (1.25, 1.0)


# --------------------------------------------------------------------------- #
# MakespanDistribution
# --------------------------------------------------------------------------- #
class TestMakespanDistribution:
    def test_summary_statistics_match_numpy(self):
        rng = np.random.default_rng(7)
        draws = rng.exponential(2.0, size=200) + 1.0
        dist = MakespanDistribution.from_makespans(draws, seed=7)
        assert dist.n_draws == 200 and dist.seed == 7
        assert dist.mean == pytest.approx(float(draws.mean()))
        assert dist.std == pytest.approx(float(draws.std(ddof=1)))
        assert dist.p50 == pytest.approx(float(np.quantile(draws, 0.5)))
        assert dist.p95 == pytest.approx(float(np.quantile(draws, 0.95)))
        assert dist.min == float(draws.min()) and dist.max == float(draws.max())
        half = 1.96 * dist.std / np.sqrt(200)
        assert dist.ci95_low == pytest.approx(dist.mean - half)
        assert dist.ci95_high == pytest.approx(dist.mean + half)
        assert dist.quantile(0.25) == pytest.approx(float(np.quantile(draws, 0.25)))

    def test_shifted_moves_locations_not_spread(self):
        dist = MakespanDistribution.from_makespans([1.0, 2.0, 3.0], seed=0)
        moved = dist.shifted(10.0)
        assert moved.mean == pytest.approx(dist.mean + 10.0)
        assert moved.p95 == pytest.approx(dist.p95 + 10.0)
        assert moved.std == dist.std
        assert moved.makespans == tuple(m + 10.0 for m in dist.makespans)

    def test_to_row_schema(self):
        dist = MakespanDistribution.from_makespans([1.0, 2.0], seed=3)
        assert sorted(dist.to_row()) == [
            "mc_draws", "mc_mean", "mc_p50", "mc_p95", "mc_std",
        ]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MakespanDistribution.from_makespans([], seed=0)


# --------------------------------------------------------------------------- #
# Golden pin: the default (no scenario) path must not move
# --------------------------------------------------------------------------- #
#: float.hex() makespans of simulate_ge2bnd(300, 200, 2x2-core machine,
#: nb=100) pinned at the introduction of the scenario subsystem.  Any drift
#: here means the zero-scenario fast path changed bitwise — that is a
#: regression, not a tolerance issue.
GOLDEN_MAKESPANS = {
    ("critical-path", "uniform"): "0x1.18791d1c58fe6p-10",
    ("critical-path", "alpha-beta"): "0x1.20ed2349df833p-10",
    ("fifo", "uniform"): "0x1.18791d1c58fe6p-10",
    ("fifo", "alpha-beta"): "0x1.20ed2349df833p-10",
    ("list", "uniform"): "0x1.18791d1c58fe6p-10",
    ("list", "alpha-beta"): "0x1.1cedf6e309517p-10",
    ("locality", "uniform"): "0x1.18791d1c58fe6p-10",
    ("locality", "alpha-beta"): "0x1.1cedf6e309517p-10",
    ("random", "uniform"): "0x1.3a72168675a53p-10",
    ("random", "alpha-beta"): "0x1.3a93a475b7111p-10",
    ("weight", "uniform"): "0x1.3672ea1f9f737p-10",
    ("weight", "alpha-beta"): "0x1.3ee6f04d25f85p-10",
}


def _pin_machine() -> Machine:
    return Machine(n_nodes=2, cores_per_node=2, tile_size=100)


class TestGoldenPinnedDefaultPath:
    @pytest.mark.parametrize("policy,network", sorted(GOLDEN_MAKESPANS))
    def test_default_path_is_bit_identical(self, policy, network):
        result = simulate_ge2bnd(300, 200, _pin_machine(),
                                 policy=policy, network=network)
        assert result.time_seconds.hex() == GOLDEN_MAKESPANS[(policy, network)]

    def test_trivial_scenario_is_bit_identical_to_default(self):
        plain = simulate_ge2bnd(300, 200, _pin_machine())
        via_none = simulate_ge2bnd(300, 200, _pin_machine(), scenario="none")
        assert via_none.time_seconds.hex() == plain.time_seconds.hex()
        assert via_none.scenario == "none"
        assert via_none.distribution is None
        assert plain.scenario is None

    @pytest.mark.parametrize("policy", sorted(p for p, _ in GOLDEN_MAKESPANS))
    def test_replayer_nominal_replay_matches_engine(self, policy):
        # The scenario replayer's zero-perturbation replay must reproduce
        # the engine bit for bit on every policy — this is what makes the
        # Monte-Carlo mode trustworthy.
        from repro.ir.compiler import get_program
        from repro.trees import GreedyTree

        machine = _pin_machine()
        engine = SimulationEngine(machine, policy=policy, network="alpha-beta")
        program = get_program("bidiag", 3, 2, GreedyTree(),
                              n_cores=machine.cores_per_node, grid_rows=2)
        baseline = engine.run(program)
        replayed = ScenarioReplayer(engine, program).replay()
        assert replayed.makespan.hex() == baseline.makespan.hex()
        assert replayed.start == baseline.start
        assert replayed.finish == baseline.finish
        assert replayed.node_of_task == baseline.node_of_task


# --------------------------------------------------------------------------- #
# Scenario execution through the simulator / plan API
# --------------------------------------------------------------------------- #
class TestScenarioExecution:
    def test_heterogeneity_slows_the_nominal_makespan(self):
        plain = simulate_ge2bnd(300, 200, _pin_machine())
        het = simulate_ge2bnd(300, 200, _pin_machine(), scenario="hetero")
        assert het.scenario == "hetero"
        assert het.distribution is None  # deterministic scenario
        assert het.time_seconds > plain.time_seconds

    def test_stochastic_scenario_draws(self):
        result = simulate_ge2bnd(300, 200, _pin_machine(),
                                 scenario="straggler", draws=12, seed=4)
        dist = result.distribution
        assert dist is not None and dist.n_draws == 12 and dist.seed == 4
        assert len(dist.makespans) == 12
        # Every perturbation factor is >= 1, so no draw beats the nominal.
        assert dist.min >= result.time_seconds
        assert dist.p95 >= dist.p50 >= dist.p5

    def test_same_seed_identical_different_seed_distinct(self):
        a = simulate_ge2bnd(300, 200, _pin_machine(),
                            scenario="straggler", draws=8, seed=11)
        b = simulate_ge2bnd(300, 200, _pin_machine(),
                            scenario="straggler", draws=8, seed=11)
        c = simulate_ge2bnd(300, 200, _pin_machine(),
                            scenario="straggler", draws=8, seed=12)
        assert a.distribution == b.distribution  # bitwise draw equality
        assert a.distribution != c.distribution

    def test_ge2val_shifts_distribution_by_post_processing(self):
        bnd = simulate_ge2bnd(300, 200, _pin_machine(),
                              scenario="fail-stop", draws=6, seed=2)
        val = simulate_ge2val(300, 200, _pin_machine(),
                              scenario="fail-stop", draws=6, seed=2)
        post = val.time_seconds - bnd.time_seconds
        assert post > 0
        assert val.distribution.mean == pytest.approx(bnd.distribution.mean + post)
        assert val.distribution.std == bnd.distribution.std

    def test_mc_metrics_counters(self):
        snap = REGISTRY.snapshot()
        simulate_ge2bnd(300, 200, _pin_machine(),
                        scenario="straggler", draws=5, seed=0)
        delta = REGISTRY.delta_since(snap)
        assert delta.get("engine.mc.runs") == 1
        assert delta.get("engine.mc.draws") == 5

    def test_verified_scenario_run(self, monkeypatch):
        # REPRO_VERIFY=1 re-checks the nominal replay and one faulty draw
        # with realized durations; a finding would raise here.
        monkeypatch.setenv("REPRO_VERIFY", "1")
        result = simulate_ge2bnd(300, 200, _pin_machine(),
                                 scenario="hostile", draws=3, seed=1)
        assert result.distribution.n_draws == 3

    def test_plan_coerces_scenario_and_validates_draws(self):
        plan = SvdPlan(m=300, n=200, stage="ge2bnd", tile_size=100,
                       n_cores=2, n_nodes=2, scenario="straggler", draws=4)
        assert isinstance(plan.scenario, Scenario)
        assert plan.describe()["scenario"] == "straggler"
        with pytest.raises(ValueError):
            SvdPlan(m=300, n=200, scenario="straggler", draws=0)
        with pytest.raises(ValueError, match="unknown scenario"):
            SvdPlan(m=300, n=200, scenario="perfect")

    def test_execute_row_schema_gated_on_scenario(self):
        base = SvdPlan(m=300, n=200, stage="ge2bnd", tile_size=100,
                       n_cores=2, n_nodes=2)
        plain_row = execute(base, backend="simulate").to_row()
        assert "scenario" not in plain_row
        assert "mc_p95" not in plain_row
        mc_row = execute(base.with_(scenario="straggler", draws=4),
                         backend="simulate").to_row()
        assert mc_row["scenario"] == "straggler"
        assert mc_row["mc_draws"] == 4
        assert mc_row["mc_p95"] >= mc_row["mc_p50"]


# --------------------------------------------------------------------------- #
# Batched sweeps and tuning
# --------------------------------------------------------------------------- #
class TestBatchedScenarios:
    def test_sweep_matches_per_plan_execute(self):
        base = SvdPlan(m=300, n=200, stage="ge2bnd", tile_size=100,
                       n_cores=2, n_nodes=2, draws=6, seed=9)
        plans = list(base.sweep(scenario=["none", "hetero", "straggler"]))
        rows = execute_sweep(plans, backend="simulate")
        singles = [execute(p, backend="simulate") for p in plans]
        for row, single in zip(rows, singles):
            assert row["time_seconds"] == single.time_seconds  # bitwise
            assert row.get("scenario") == single.scenario
            if single.distribution is not None:
                assert row["mc_p95"] == single.distribution.p95
                assert row["mc_mean"] == single.distribution.mean

    @pytest.mark.parametrize("scenario", ["hetero", "slow-core", "hostile"])
    @pytest.mark.parametrize("network", ["uniform", "alpha-beta"])
    def test_batched_heterogeneous_candidate_matches_run_scenario(
        self, scenario, network
    ):
        from repro.ir.compiler import get_program
        from repro.runtime.batch import BatchEngine
        from repro.trees import FlatTTTree

        program = get_program("bidiag", 6, 6, FlatTTTree())
        nominal = Machine(n_nodes=4, cores_per_node=4, tile_size=100)
        scen = get_scenario(scenario)
        het = scen.apply_to_machine(nominal)
        assert het.heterogeneous
        candidates = [
            BatchCandidate(machine=het, policy=policy, network=network)
            for policy in ("list", "locality")
        ]
        engine = BatchEngine()
        bounds = engine.lower_bounds(program, candidates)
        batched = engine.run_batch(program, candidates)
        for cand, bound, got in zip(candidates, bounds, batched):
            ref = run_scenario(
                program, nominal, scen, policy=cand.policy, network=network,
                draws=2, seed=3,
            ).schedule
            assert got == ref  # every field, bitwise
            assert 0.0 < bound <= got.makespan

    def test_robust_makespan_tuning_is_reproducible(self):
        from repro.tuning import SearchSpace, tune

        plan = SvdPlan(m=300, n=200, stage="ge2bnd", n_cores=2, n_nodes=2,
                       scenario="straggler", draws=6, seed=5)
        space = SearchSpace(tile_sizes=[50, 100], trees=["greedy"],
                            variants=["bidiag"])
        kwargs = dict(space=space, objective="robust-makespan", cache=False)
        first = tune(plan, **kwargs)
        second = tune(plan, **kwargs)
        assert first.best_score == second.best_score  # bitwise
        assert first.best_plan.tile_size == second.best_plan.tile_size
        # The winner's score is the p95 of its Monte-Carlo distribution.
        winner = execute(first.best_plan, backend="simulate")
        assert first.best_score == winner.distribution.p95

    def test_tune_cache_key_sees_scenario(self):
        from repro.tuning import SearchSpace, get_objective
        from repro.tuning.search import _tune_cache_key

        space = SearchSpace()
        obj = get_objective("makespan")
        base = SvdPlan(m=300, n=200, stage="ge2bnd", n_cores=2, n_nodes=2)
        keys = {
            _tune_cache_key(base, space, obj, "grid"),
            _tune_cache_key(base.with_(scenario="straggler", draws=8),
                            space, obj, "grid"),
            _tune_cache_key(base.with_(scenario="straggler", draws=16),
                            space, obj, "grid"),
            _tune_cache_key(base.with_(scenario="straggler", draws=8, seed=1),
                            space, obj, "grid"),
            _tune_cache_key(base.with_(scenario="hetero"), space, obj, "grid"),
        }
        assert len(keys) == 5


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestScenarioCLI:
    def test_scenarios_listing(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
        assert "fault models:" in out and "noise models:" in out

    def test_simulate_with_scenario(self, capsys):
        from repro.cli import main

        code = main(["simulate", "300", "200", "--nb", "100", "--nodes", "2",
                     "--cores", "2", "--scenario", "straggler",
                     "--draws", "4", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario       : straggler" in out
        assert "mc makespan" in out and "4 draws, seed 1" in out

    def test_scenario_sweep_experiment(self):
        from repro.experiments.registry import run_experiment

        rows = run_experiment(
            "scenario-sweep", m=300, n=200, tile_size=100, n_cores=2,
            n_nodes=2, draws=4, scenarios=("none", "straggler"),
        )
        assert [r["scenario"] for r in rows] == ["none", "straggler"]
        assert "mc_p95" in rows[1] and "mc_p95" not in rows[0]


# --------------------------------------------------------------------------- #
# Seeded determinism across interpreters (@slow)
# --------------------------------------------------------------------------- #
class TestSeededDeterminism:
    """The Monte-Carlo draws of a seed must be identical across
    PYTHONHASHSEED values."""

    SNIPPET = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.runtime.machine import Machine\n"
        "from repro.runtime.simulator import simulate_ge2bnd\n"
        "machine = Machine(n_nodes=2, cores_per_node=2, tile_size=100)\n"
        "r = simulate_ge2bnd(300, 200, machine, scenario='hostile',\n"
        "                    draws=6, seed=13)\n"
        "print(r.time_seconds.hex())\n"
        "print([m.hex() for m in r.distribution.makespans])\n"
    )

    def _run(self, *, hash_seed="0"):
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
    def test_draws_identical_across_hash_seeds(self):
        assert self._run(hash_seed="0") == self._run(hash_seed="4242")
