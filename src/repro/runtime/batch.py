"""Batched candidate simulation: many plan variants of one program.

Tuning sweeps evaluate many (machine, grid, policy, network) candidates of
the *same* compiled :class:`~repro.ir.program.Program`.  This module is
the batch preparer of the event-loop kernel (:mod:`repro.runtime.kernel`):
it factors the candidate product so that each candidate costs one kernel
pass and little else:

* **shared axes are computed once per unique key** — the duration vector
  once per unique machine, the owner vector once per unique grid, the
  dense-rank policy order once per unique (policy, machine, grid), all
  through the memo tables of :mod:`repro.runtime.engine`, so the work is
  shared with plain engine runs too; the Python lists the kernel indexes
  (durations, owners, message bytes) are shared within the batch;
* **identical-order candidates are deduplicated** — two candidates whose
  (machine, grid, network, dispatch order) agree produce the same
  schedule by construction, so the second reuses the first's
  :class:`~repro.runtime.scheduler.Schedule` (e.g. ``list`` and
  ``locality`` coincide on one node, where every producer is local);
* **analytic bounds prune before any event loop** — stacked per-machine
  duration rows go through one ``np.maximum.reduceat`` level sweep
  (:meth:`~repro.ir.program.Program.critical_path_many`) plus a per-node
  area bound, and :func:`simulate_resolved_batch` evaluates candidates in
  ascending-bound order against the running incumbent, so provably worse
  candidates never touch the kernel.

Every produced schedule is the one the corresponding
``SimulationEngine(machine, ...).run(program)`` produces, bit for bit:
both prepare the same inputs for the same kernel.  Heterogeneous machines
batch like any other; their bound is the nominal one, which stays sound
because slowdown factors are validated to be ``>= 1``.

Pruning is conservative: a candidate is skipped only when its makespan
lower bound is *strictly* worse than a makespan already measured, so the
winning candidate (lowest cost, earliest index) matches an exhaustive
evaluation.

Batch-level observability goes through the registry
(``engine.memo.batch.*`` counters, surfaced by
:func:`repro.runtime.engine.engine_memo_stats`) and the ambient tracer
(``batch.prepare`` / ``batch.simulate`` phase spans).  Batched replays
carry no per-task traces; use a plain engine run for Gantt or trace
exports.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ir.program import Program
from repro.models.flops import ge2bnd_reported_flops, ge2val_reported_flops
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer
from repro.runtime.engine import (
    _BATCH_BOUNDS,
    PreparedRun,
    SimulationEngine,
    _memo_get,
    _memo_put,
    _network_token,
)
from repro.runtime.machine import Machine
from repro.runtime.network import NetworkModel
from repro.runtime.policies import SchedulingPolicy
from repro.runtime.scenario import run_scenario
from repro.runtime.scheduler import Schedule
from repro.runtime.simulator import (
    SimulationResult,
    _ge2bnd_result,
    _ge2bnd_setup,
    _ge2val_result,
    post_processing_seconds,
)
from repro.tiles.distribution import BlockCyclicDistribution

__all__ = [
    "BatchCandidate",
    "BatchEngine",
    "PlanOutcome",
    "simulate_batch",
    "simulate_resolved_batch",
]

@dataclass(frozen=True)
class BatchCandidate:
    """One (machine, grid, policy, network) variant of a batched replay."""

    machine: Machine
    distribution: Optional[BlockCyclicDistribution] = None
    policy: Union[str, SchedulingPolicy] = "list"
    network: Union[str, NetworkModel] = "uniform"


@dataclass
class _Member:
    """One candidate's engine and prepared kernel inputs."""

    engine: SimulationEngine
    run: PreparedRun
    #: (machine, grid, network, dispatch order) — equal keys provably
    #: produce equal schedules; ``None`` disables deduplication.
    dedup_key: Optional[Tuple] = None


class _PreparedBatch:
    """Shared state of one (program, candidates) batch.

    Per-candidate state resolves through the engine's module memo tables
    as members are added, and the Python-list mirrors of those vectors are
    shared within the batch, so each unique axis is computed once no
    matter how many candidates share it.
    """

    def __init__(self, program: Program, *, dedup: bool = True) -> None:
        self.program = program
        self.dedup = dedup
        self.n = len(program)
        self.members: List[_Member] = []
        self._lists: Dict[Tuple, list] = {}
        self._schedules: Dict[Tuple, Schedule] = {}
        self._bounds: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Candidate preparation
    # ------------------------------------------------------------------ #
    def add(self, candidate: BatchCandidate) -> int:
        """Resolve one candidate against the shared tables; return its index."""
        engine = SimulationEngine(
            candidate.machine,
            candidate.distribution,
            policy=candidate.policy,
            network=candidate.network,
        )
        member = _Member(engine, engine.prepare(self.program, lists=self._lists))
        net_tok = _network_token(engine.network)
        if self.dedup and net_tok is not None and (
            member.run.node_np is None or engine.grid_key is not None
        ):
            # The schedule is a pure function of (durations, dispatch
            # order, placement, network pricing, core count) — all
            # captured here, so equal keys imply equal schedules.
            member.dedup_key = (
                engine.machine, engine.grid_key, net_tok, tuple(member.run.id_of)
            )
        self.members.append(member)
        self._bounds = None
        return len(self.members) - 1

    # ------------------------------------------------------------------ #
    # Analytic lower bounds (no event loop)
    # ------------------------------------------------------------------ #
    def lower_bounds(self) -> np.ndarray:
        """Per-candidate makespan lower bounds in seconds (vectorized).

        ``max(critical path, area)`` over the *nominal* durations: no
        schedule can beat the heaviest dependent chain, nor can a node
        finish before its owner-computes work divided by its core count.
        Slowdown factors are validated ``>= 1``, so the nominal bound also
        bounds heterogeneous machines.  The critical paths of all unique
        machines come from one stacked level sweep
        (:meth:`~repro.ir.program.Program.critical_path_many`).
        """
        if self._bounds is not None:
            return self._bounds
        k = len(self.members)
        if self.n == 0 or k == 0:
            self._bounds = np.zeros(k, dtype=np.float64)
            return self._bounds
        bounds = np.empty(k, dtype=np.float64)
        # Bounds are pure functions of (program, machine, grid): resolve
        # through the module memo first so repeated sweeps (and candidates
        # sharing axes) skip the level sweep entirely.
        pending: List[Tuple[int, Optional[Tuple]]] = []
        for i, member in enumerate(self.members):
            machine = member.engine.nominal_machine
            grid_key = member.engine.grid_key
            if member.run.node_np is None or grid_key is not None:
                bound_key: Optional[Tuple] = (machine, grid_key)
            else:
                bound_key = None  # placement not keyable
            if bound_key is not None:
                cached = _memo_get(
                    _BATCH_BOUNDS, self.program, bound_key, "batch.bound"
                )
                if cached is not None:
                    bounds[i] = cached
                    continue
            pending.append((i, bound_key))
        if pending:
            machine_row: Dict[Machine, int] = {}
            rows: List[np.ndarray] = []
            for i, _bound_key in pending:
                machine = self.members[i].engine.nominal_machine
                if machine not in machine_row:
                    machine_row[machine] = len(rows)
                    rows.append(self.members[i].run.nominal_np)
            cps = self.program.critical_path_many(np.stack(rows))
            for i, bound_key in pending:
                machine = self.members[i].engine.nominal_machine
                run = self.members[i].run
                cp = float(cps[machine_row[machine]])
                cores = machine.cores_per_node
                if run.node_np is None:
                    area = float(run.nominal_np.sum()) / cores
                else:
                    node_work = np.bincount(
                        run.node_np,
                        weights=run.nominal_np,
                        minlength=machine.n_nodes,
                    )
                    area = float(node_work.max()) / cores
                bound = cp if cp > area else area
                bounds[i] = bound
                if bound_key is not None:
                    _memo_put(_BATCH_BOUNDS, self.program, bound_key, bound)
        self._bounds = bounds
        return bounds

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def schedule(self, index: int) -> Schedule:
        """Simulate (or reuse) candidate ``index``'s schedule."""
        member = self.members[index]
        key = member.dedup_key
        if key is not None:
            cached = self._schedules.get(key)
            if cached is not None:
                REGISTRY.inc("engine.memo.batch.deduped")
                return cached
        sched = member.run.replay().schedule
        REGISTRY.inc("engine.memo.batch.simulated")
        # Opt-in static verification (REPRO_VERIFY=1): sanitize every
        # freshly simulated schedule exactly like SimulationEngine.run
        # does.  Deduplicated candidates reuse an already-checked object.
        from repro.verify.hooks import verify_enabled

        if verify_enabled():
            from repro.verify.hooks import check_schedule

            check_schedule(
                sched,
                self.program,
                member.engine.machine,
                distribution=member.engine.distribution,
                network=member.engine.network,
            )
        if key is not None:
            self._schedules[key] = sched
        return sched


class BatchEngine:
    """Evaluate many engine candidates of one program in a single pass.

    ``dedup=True`` (default) lets candidates with provably identical
    schedules share one :class:`~repro.runtime.scheduler.Schedule` object;
    ``dedup=False`` forces one fresh simulation per candidate.
    """

    def __init__(self, *, dedup: bool = True) -> None:
        self.dedup = dedup

    def prepare(
        self,
        program: Program,
        candidates: Sequence[BatchCandidate],
    ) -> _PreparedBatch:
        """Hoist all shared state for ``candidates`` (no event loop yet)."""
        REGISTRY.inc("engine.memo.batch.candidates", len(candidates))
        prepared = _PreparedBatch(program, dedup=self.dedup)
        for candidate in candidates:
            prepared.add(candidate)
        return prepared

    def run_batch(
        self,
        program: Program,
        candidates: Sequence[BatchCandidate],
    ) -> List[Schedule]:
        """Simulate every candidate.

        Returned schedules are bit-identical to per-candidate
        :meth:`~repro.runtime.engine.SimulationEngine.run` calls with the
        same parameters, in candidate order.
        """
        tracer = current_tracer()
        with tracer.phase("batch.prepare") if tracer else nullcontext():
            prepared = self.prepare(program, candidates)
        with tracer.phase("batch.simulate") if tracer else nullcontext():
            return [prepared.schedule(i) for i in range(len(candidates))]

    def lower_bounds(
        self,
        program: Program,
        candidates: Sequence[BatchCandidate],
    ) -> List[float]:
        """Per-candidate makespan lower bounds (seconds), no event loop."""
        return self.prepare(program, candidates).lower_bounds().tolist()


def simulate_batch(
    program: Program,
    candidates: Sequence[BatchCandidate],
    *,
    dedup: bool = True,
) -> List[Schedule]:
    """One-shot wrapper: batch-simulate ``candidates`` over ``program``."""
    return BatchEngine(dedup=dedup).run_batch(program, candidates)


# --------------------------------------------------------------------------- #
# Plan-level batching (the tuning / sweep entry point)
# --------------------------------------------------------------------------- #
@dataclass
class PlanOutcome:
    """One resolved plan's batched evaluation."""

    result: Optional[SimulationResult] = None
    score: Optional[float] = None
    error: Optional[str] = None
    pruned: bool = False
    #: The raised exception behind ``error`` (for callers that re-raise).
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )


def _outcome_score(
    objective: Optional[str], result: SimulationResult
) -> Optional[float]:
    if objective is None:
        return None
    if objective == "makespan":
        return float(result.time_seconds)
    if objective == "gflops":
        return float(result.gflops)
    if objective == "comm-time":
        return float(result.comm_seconds)
    if objective == "robust-makespan":
        # p95 across Monte-Carlo draws; deterministic runs (no scenario,
        # or a fault-free one) degrade to the nominal makespan.
        if result.distribution is not None:
            return float(result.distribution.p95)
        return float(result.time_seconds)
    raise ValueError(f"unknown batch objective {objective!r}")


def simulate_resolved_batch(
    resolved_plans: Sequence,
    *,
    objective: Optional[str] = None,
    prune: bool = True,
    dedup: bool = True,
) -> List[PlanOutcome]:
    """Batch-simulate many resolved plans; results match ``execute`` exactly.

    ``resolved_plans`` are :class:`~repro.api.resolver.ResolvedPlan`
    instances (possibly spanning several DAG shapes — candidates are
    grouped per compiled program).  ``objective`` selects the extracted
    score (``"makespan"`` / ``"gflops"`` / ``"comm-time"`` /
    ``"robust-makespan"``; ``None`` returns raw
    :class:`~repro.runtime.simulator.SimulationResult` objects only).
    With ``prune=True`` and a bounded objective, candidates are evaluated
    most-promising-first against the engine's analytic lower bounds and
    strictly hopeless ones are skipped (``pruned=True``, ``result=None``)
    without touching the event loop; the surviving winner is the same one
    an exhaustive pass would pick.  ``comm-time`` has no valid lower
    bound, so it never prunes.  ``robust-makespan`` prunes against the
    *nominal* bound, which stays valid because every scenario
    perturbation factor is ``>= 1`` (draws only ever get slower).

    Plans carrying a deterministic scenario (``hetero``, ``slow-core``)
    replay in their program's batch group on the scenario's slowed-down
    machine.  Plans carrying a stochastic scenario bypass the batched
    event loop and run the Monte-Carlo scenario driver
    (:func:`repro.runtime.scenario.run_scenario`) instead.  Both match
    what ``execute`` does for the same plan, draw for draw.

    A per-plan resolution or simulation failure is captured on that plan's
    :class:`PlanOutcome` (``error`` / ``exception``) instead of aborting
    the batch.
    """
    outcomes = [PlanOutcome() for _ in resolved_plans]
    REGISTRY.inc("engine.memo.batch.candidates", len(resolved_plans))
    tracer = current_tracer()

    # ---------------- prepare: resolve every candidate, group by program
    groups: Dict[int, _PreparedBatch] = {}
    #: Per candidate: (group, member, setup, resolved plan, post, scenario).
    prep: List[Optional[Tuple]] = [None] * len(resolved_plans)
    with tracer.phase("batch.prepare") if tracer else nullcontext():
        for i, rp in enumerate(resolved_plans):
            try:
                if rp.stage == "gesvd":
                    raise ValueError(
                        "stage 'gesvd' is only supported by the 'numeric' "
                        "backend (the simulator models GE2BND and GE2VAL)"
                    )
                setup = _ge2bnd_setup(
                    rp.m,
                    rp.n,
                    rp.machine,
                    tree=rp.tree,
                    algorithm=rp.variant,
                    grid=rp.grid,
                )
                group = groups.get(id(setup.program))
                if group is None:
                    group = _PreparedBatch(setup.program, dedup=dedup)
                    groups[id(setup.program)] = group
                # Deterministic scenarios (heterogeneous or trivial) replay
                # through the batched loop on their slowed-down machine;
                # only stochastic ones need the Monte-Carlo driver.  The
                # name survives to label the result like execute() does.
                scen = getattr(rp, "scenario", None)
                scen_name = getattr(scen, "name", None)
                member = group.add(
                    BatchCandidate(
                        machine=(
                            scen.apply_to_machine(rp.machine)
                            if scen is not None
                            else rp.machine
                        ),
                        distribution=setup.distribution,
                        policy=rp.plan.policy,
                        network=rp.plan.network,
                    )
                )
                if scen is not None and not scen.stochastic:
                    scen = None
                post = (
                    post_processing_seconds(rp.n, rp.machine)
                    if rp.stage == "ge2val"
                    else 0.0
                )
                prep[i] = (group, member, setup, rp, post, scen, scen_name)
            except Exception as exc:
                outcomes[i].error = f"{type(exc).__name__}: {exc}"
                outcomes[i].exception = exc

    # ---------------- bound: optimistic candidate costs, no event loop
    can_prune = prune and objective in ("makespan", "gflops", "robust-makespan")
    bound_cost: List[Optional[float]] = [None] * len(resolved_plans)
    if can_prune:
        for i, entry in enumerate(prep):
            if entry is None:
                continue
            group, member, setup, rp, post, _scen, _scen_name = entry
            bound_time = float(group.lower_bounds()[member]) + post
            if objective in ("makespan", "robust-makespan"):
                bound_cost[i] = bound_time
            else:  # gflops is maximized: cost is the negated score
                if rp.stage == "ge2val":
                    flops = ge2val_reported_flops(rp.m, rp.n)
                else:
                    flops = ge2bnd_reported_flops(rp.m, rp.n)
                bound_cost[i] = (
                    -(flops / bound_time / 1e9) if bound_time > 0 else None
                )

    # ---------------- evaluate: ascending bound, incumbent pruning
    order = sorted(
        (i for i in range(len(resolved_plans)) if prep[i] is not None),
        key=lambda i: (bound_cost[i] is not None, bound_cost[i] or 0.0, i),
    )
    best_cost = float("inf")
    with tracer.phase("batch.simulate") if tracer else nullcontext():
        for i in order:
            group, member, setup, rp, post, scen, scen_name = prep[i]
            bc = bound_cost[i]
            # Strictly-worse only, with a relative-epsilon slack so float
            # noise in the bound arithmetic can never prune a tied winner.
            if (
                can_prune
                and bc is not None
                and bc > best_cost + 1e-12 * max(abs(best_cost), 1.0)
            ):
                outcomes[i].pruned = True
                REGISTRY.inc("engine.memo.batch.pruned")
                continue
            try:
                if scen is not None:
                    run = run_scenario(
                        setup.program,
                        rp.machine,
                        scen,
                        setup.distribution,
                        policy=rp.plan.policy,
                        network=rp.plan.network,
                        draws=getattr(rp, "draws", None),
                        seed=rp.plan.seed,
                    )
                    result = replace(
                        _ge2bnd_result(
                            setup,
                            rp.machine,
                            run.schedule,
                            policy=rp.plan.policy,
                            network=rp.plan.network,
                        ),
                        scenario=scen_name,
                        distribution=run.distribution,
                    )
                else:
                    schedule = group.schedule(member)
                    result = _ge2bnd_result(
                        setup,
                        rp.machine,
                        schedule,
                        policy=rp.plan.policy,
                        network=rp.plan.network,
                    )
                    if scen_name is not None:
                        result = replace(result, scenario=scen_name)
                if rp.stage == "ge2val":
                    result = _ge2val_result(result, rp.machine, rp.variant)
                outcomes[i].result = result
                score = _outcome_score(objective, result)
                outcomes[i].score = score
                if score is not None:
                    cost = -score if objective == "gflops" else score
                    if cost < best_cost:
                        best_cost = cost
            except Exception as exc:
                outcomes[i].error = f"{type(exc).__name__}: {exc}"
                outcomes[i].exception = exc
    return outcomes
