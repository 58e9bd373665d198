"""Monte-Carlo scenario replay: vectorized draws vs naive per-draw re-runs.

The PR-9 bench shape — one GE2BND problem under the ``hostile`` scenario
(node heterogeneity + fail-stop re-execution + stragglers + link jitter)
— timed four ways, written to ``BENCH_faults.json``:

1. ``naive-per-draw``  — what collecting a makespan distribution costs
   without ``--draws`` support: one simulator launch per draw (a shell
   loop over ``repro simulate --seed i``), each paying interpreter
   start-up, imports, program compile, engine prep, the nominal replay
   and the draw itself.  Timed as real subprocesses; the nominal
   makespan each one prints is audited bitwise against the in-process
   run;
2. ``hoistless``       — the same process, no shell loop, but no
   hoisting either: every draw builds a fresh engine and
   :class:`ScenarioReplayer` with the engine memo tables cleared first,
   so rank orders and duration/owner vectors are re-derived each
   draw.  Replays the exact factor rows the vectorized
   path samples, and its per-draw makespans are audited bitwise against
   the vectorized ``MakespanDistribution``;
3. ``vectorized-cold`` — :func:`repro.runtime.scenario.run_scenario` on
   cold memo tables: factor matrices block-sampled once, the replayer
   hoisted once, each draw one event-loop pass;
4. ``vectorized``      — the same call with the memo tables warm (what
   every later scenario run in the process sees — a robust-makespan
   tuning rung, a scenario sweep).

Each draw re-schedules dynamically (the runtime reacts to realized
durations), so one event-loop pass per draw is the semantic floor; the
vectorized win is everything hoisted out of the loop, and the rows
separate how much of that is process launch vs per-draw re-derivation.

Acceptance bar: per draw, the vectorized path beats the naive per-draw
re-runs by at least **5x** (override the floor with
``REPRO_BENCH_FAULTS_FLOOR`` on noisy CI runners).

Scaled-down by default (CI smoke-runs it in this reduced mode, also
reachable as ``python benchmarks/bench_faults.py --reduced``); set
``REPRO_FULL_SCALE=1`` for the paper's problem sizes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.experiments.figures import format_rows, full_scale  # noqa: E402
from repro.ir import get_program  # noqa: E402
from repro.runtime import engine as engine_mod  # noqa: E402
from repro.runtime.engine import SimulationEngine  # noqa: E402
from repro.runtime.machine import Machine  # noqa: E402
from repro.runtime.scenario import (  # noqa: E402
    ScenarioReplayer,
    get_scenario,
    run_scenario,
)
from repro.tiles.layout import ceil_div  # noqa: E402
from repro.trees import make_tree  # noqa: E402

ARTIFACT = os.path.join(_ROOT, "BENCH_faults.json")

M = N = 20000 if full_scale() else 1000
NB = 160 if full_scale() else 100
N_NODES = 4 if full_scale() else 2
N_CORES = 24 if full_scale() else 4
DRAWS = 128 if full_scale() else 32
#: Subprocess launches are slow by definition; a few suffice to pin the
#: per-draw cost of the shell-loop baseline.
SUB_DRAWS = 3
SEED = 0
SCENARIO = "hostile"
POLICY = "list"
NETWORK = "alpha-beta"

#: One draw, the way a shell loop gets it: fresh interpreter, fresh
#: imports, fresh compile.  Prints "<nominal-hex> <draw-hex>".
_SUB_SCRIPT = """\
import sys
sys.path.insert(0, {src!r})
from repro.ir import get_program
from repro.runtime.machine import Machine
from repro.runtime.scenario import get_scenario, run_scenario
from repro.trees import make_tree
program = get_program("bidiag", {p}, {q}, make_tree("greedy"),
                      n_cores={cores})
machine = Machine(n_nodes={nodes}, cores_per_node={cores}, tile_size={nb})
run = run_scenario(program, machine, get_scenario({scenario!r}),
                   policy={policy!r}, network={network!r},
                   draws=1, seed={seed})
print(run.schedule.makespan.hex(), run.distribution.makespans[0].hex())
"""


def _clear_engine_memos() -> None:
    """Drop the module-level per-program memo tables (a fresh engine)."""
    engine_mod._DURATION_VECTORS.clear()
    engine_mod._OWNER_VECTORS.clear()
    engine_mod._RANK_ORDERS.clear()


def _min_of(repeats, run):
    """Min wall-clock over ``repeats`` runs (identical work; the minimum
    strips scheduler noise) plus the last run's payload."""
    best, payload = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        payload = run()
        seconds = time.perf_counter() - start
        if best is None or seconds < best:
            best = seconds
    return best, payload


def _presampled_rows(scenario, n_ops):
    """The exact factor rows ``run_scenario(..., seed=SEED)`` will replay:
    same generator, same fixed sampling order (faults before noise)."""
    rng = np.random.default_rng(SEED)
    fault_factors, _events = scenario.faults.sample(rng, DRAWS, n_ops)
    noise_factors = scenario.noise.sample(rng, DRAWS, n_ops)
    return fault_factors, noise_factors


def naive_per_draw():
    """The shell-loop baseline: one subprocess per draw.  Returns the
    best per-draw seconds and the nominal makespan hexes printed."""
    p = q = ceil_div(M, NB)
    nominals = []

    def one_draw(seed):
        script = _SUB_SCRIPT.format(
            src=_SRC, p=p, q=q, cores=N_CORES, nodes=N_NODES, nb=NB,
            scenario=SCENARIO, policy=POLICY, network=NETWORK, seed=seed,
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            check=True, capture_output=True, text=True,
        )
        return out.stdout.split()

    best = None
    for i in range(SUB_DRAWS):
        start = time.perf_counter()
        nominal_hex, _draw_hex = one_draw(1000 + i)
        seconds = time.perf_counter() - start
        nominals.append(nominal_hex)
        if best is None or seconds < best:
            best = seconds
    return best, nominals


def hoistless(program, machine, scenario, fault_factors, noise_factors):
    """One fresh engine + replayer per draw, memo tables cleared each time:
    every draw pays the prep (rank orders, vectors) the vectorized
    path hoists out of the loop — but not the process launch."""
    eff_machine = scenario.apply_to_machine(machine)

    def run():
        makespans = []
        for i in range(DRAWS):
            _clear_engine_memos()
            engine = SimulationEngine(eff_machine, policy=POLICY,
                                      network=NETWORK)
            replayer = ScenarioReplayer(engine, program)
            sched = replayer.replay(fault_factors[i], noise_factors[i])
            makespans.append(sched.makespan)
        return makespans

    return _min_of(2, run)


def vectorized(program, machine, scenario, warm):
    """The shipped path: block sampling + one hoisted replayer.  With
    ``warm=False`` the memo tables are cleared every repeat (a process's
    first scenario run); with ``warm=True`` they stay hot."""

    def run():
        if not warm:
            _clear_engine_memos()
        return run_scenario(
            program, machine, scenario,
            policy=POLICY, network=NETWORK, draws=DRAWS, seed=SEED,
        )

    if warm:
        run()
    return _min_of(2, run)


def main() -> int:
    p = q = ceil_div(M, NB)
    program = get_program("bidiag", p, q, make_tree("greedy"),
                          n_cores=N_CORES)
    machine = Machine(n_nodes=N_NODES, cores_per_node=N_CORES, tile_size=NB)
    scenario = get_scenario(SCENARIO)
    fault_factors, noise_factors = _presampled_rows(scenario, len(program))

    naive_draw_seconds, naive_nominals = naive_per_draw()
    hoistless_seconds, hoistless_makespans = hoistless(
        program, machine, scenario, fault_factors, noise_factors
    )
    cold_seconds, _ = vectorized(program, machine, scenario, warm=False)
    warm_seconds, mc_run = vectorized(program, machine, scenario, warm=True)
    dist = mc_run.distribution

    # Hard gate 1: every subprocess re-derived the same nominal schedule.
    nominal_hex = mc_run.schedule.makespan.hex()
    for i, got in enumerate(naive_nominals):
        assert got == nominal_hex, (
            f"subprocess draw {i} nominal makespan {got} differs from the "
            f"in-process one {nominal_hex}"
        )

    # Hard gate 2: the hoistless loop replayed the vectorized draws, bit
    # for bit.
    assert dist is not None and dist.n_draws == DRAWS
    assert len(hoistless_makespans) == DRAWS
    for i, (got, ref) in enumerate(zip(hoistless_makespans, dist.makespans)):
        assert got == ref, (
            f"hoistless draw {i} makespan {got.hex()} differs from the "
            f"vectorized replay {ref.hex()}"
        )
    assert min(dist.makespans) >= mc_run.schedule.makespan, (
        "a perturbed draw beat the nominal schedule (factors are >= 1)"
    )
    print(f"bit-identity audit: {SUB_DRAWS} subprocess nominals and "
          f"{DRAWS} hoistless draws equal the vectorized run")

    rows = [
        {
            "mode": mode,
            "seconds": seconds,
            "draws": draws,
            "ms_per_draw": 1000.0 * seconds / draws,
        }
        for mode, seconds, draws in (
            ("naive-per-draw", naive_draw_seconds * SUB_DRAWS, SUB_DRAWS),
            ("hoistless", hoistless_seconds, DRAWS),
            ("vectorized-cold", cold_seconds, DRAWS),
            ("vectorized", warm_seconds, DRAWS),
        )
    ]
    title = (
        f"Scenario '{SCENARIO}', m=n={M}, nb={NB}, "
        f"{N_NODES}x{N_CORES} cores, {DRAWS} draws"
    )
    print(f"\n{'=' * len(title)}\n{title}\n{'=' * len(title)}")
    print(format_rows(rows))

    per_draw = warm_seconds / DRAWS
    speedup = naive_draw_seconds / per_draw
    speedup_hoistless = (hoistless_seconds / DRAWS) / per_draw
    print(f"vectorized vs naive-per-draw (per draw): {speedup:.2f}x")
    print(f"vectorized vs hoistless (per draw, the in-process hoisting "
          f"win): {speedup_hoistless:.2f}x")

    trajectory = {
        "problem": {"m": M, "n": N, "nb": NB, "n_nodes": N_NODES,
                    "n_cores": N_CORES},
        "scenario": SCENARIO,
        "policy": POLICY,
        "network": NETWORK,
        "draws": DRAWS,
        "seed": SEED,
        "rows": rows,
        "speedup_vectorized_vs_naive": speedup,
        "speedup_vectorized_vs_hoistless": speedup_hoistless,
        "distribution": dist.to_row(),
        "nominal_makespan": mc_run.schedule.makespan,
        "draws_audited": DRAWS,
    }
    with open(ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2)
    print(f"wrote {ARTIFACT}")

    # Acceptance bar: per draw, the vectorized MC loop must beat naive
    # per-draw simulator re-runs by at least 5x.  CI runs on noisy shared
    # runners and lowers the floor via the environment (the bitwise audits
    # above are the hard CI gates; the 5x claim is pinned by the
    # checked-in BENCH_faults.json measured on quiet hardware).
    floor = float(os.environ.get("REPRO_BENCH_FAULTS_FLOOR", "5.0"))
    assert speedup >= floor, (
        f"vectorized Monte-Carlo only {speedup:.2f}x faster per draw than "
        f"naive per-draw re-runs (floor {floor}x)"
    )
    return 0


if __name__ == "__main__":
    if "--reduced" in sys.argv[1:]:
        os.environ.pop("REPRO_FULL_SCALE", None)
    raise SystemExit(main())
