"""The benchmark's workloads: inputs, one operation, and output checks.

Every workload is a closed loop with one client in one process: the next
operation starts only after the previous one returned.  Inputs are built
from the workload seed by :meth:`Workload.setup`; each operation of a run
gets the same inputs.  Nothing here is imported at module load, so the
set-up time the benchmark reports covers the imports of ``repro``, numpy
and scipy as well as input generation.

Each operation yields one :class:`Outcome` per program call it made
(one ``tune()``, one sweep, one campaign, or one ``execute()`` per
numeric input).  An outcome fails when the call raised or its output
failed a check; ``wrong`` marks a failed check on an output the program
did return, which makes the whole run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class Outcome:
    """The verdict on one program call."""

    label: str
    failed: bool = False
    wrong: bool = False
    detail: str = ""


@dataclass
class OpResult:
    """What one operation returned, for the checks that follow it."""

    value: Any = None
    outcomes: List[Outcome] = field(default_factory=list)
    #: Per-layer numbers only the workload can read (campaign store).
    layer: Dict[str, float] = field(default_factory=dict)


def _rows_digest(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One benchmark workload (see README.md for why each exists).

    Operations call ``repro`` through its modules (``self._api.execute``,
    not a saved function object), so the wrappers of a traced run see them.
    """

    name = ""
    #: Program compilations every cold operation must perform (or None).
    cold_compiles: Optional[int] = None

    def setup(self, seed: int, work_dir: str) -> None:
        """Import what the operation needs and build its inputs."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed step before every operation: start cold."""
        import gc

        from repro.ir import clear_program_cache

        clear_program_cache()
        gc.collect()

    def op(self) -> OpResult:
        """One timed operation."""
        raise NotImplementedError

    def check(self, result: OpResult, first: bool) -> None:
        """Untimed output checks; append failures to ``result.outcomes``.

        ``first`` marks the run's first operation, which also gets the
        costlier once-per-run checks.
        """

    def reference_seconds(self) -> float:
        """Seconds ``scipy.linalg.svdvals`` takes on the inputs (or 0)."""
        return 0.0

    def flops(self) -> float:
        """Modelled flops of one operation (numeric workloads, else 0)."""
        return 0.0


# --------------------------------------------------------------------------- #
# tune
# --------------------------------------------------------------------------- #
class TuneWorkload(Workload):
    """Cold ``tune()`` on the BENCH_tuning problem; the seed does not change it."""

    name = "tune"
    cold_compiles = 16
    #: The winner of this search on the current model, pinned exactly.
    WINNER = (40, "auto", 0.13180382687250425)

    def setup(self, seed, work_dir):
        import repro.api
        from repro.api import SvdPlan
        from repro.tuning import SearchSpace

        self._api = repro.api
        self.plan = SvdPlan(m=1600, n=1600, stage="ge2val", n_cores=24)
        self.space = SearchSpace(
            tile_sizes=(40, 64, 100, 160),
            trees=("flatts", "flattt", "greedy", "auto"),
            variants=("bidiag",),
        )

    def op(self):
        result = OpResult()
        try:
            result.value = self._api.tune(
                self.plan, space=self.space, cache=False, workers=1
            )
        except Exception as exc:  # an operation that raises is a failure
            result.outcomes.append(Outcome("tune", failed=True, detail=repr(exc)))
        return result

    def check(self, result, first):
        if result.value is None:
            return
        best = result.value.best_plan
        got = (best.tile_size, best.tree, result.value.best_score)
        ok = got == self.WINNER
        result.outcomes.append(
            Outcome("tune", failed=not ok, wrong=not ok,
                    detail="" if ok else f"winner {got} != {self.WINNER}")
        )


# --------------------------------------------------------------------------- #
# sweep and mc
# --------------------------------------------------------------------------- #
SWEEP_SHAPE = dict(m=2400, n=2400, tile_size=100, n_nodes=4, n_cores=6)
SWEEP_TREES = ("greedy", "flattt")


class SimulateSweepWorkload(Workload):
    """One ``execute_sweep`` over plans of the :data:`SWEEP_SHAPE` shape."""

    cold_compiles = 2
    #: sha256 of the rows for :attr:`PINNED_SEED` (None: any seed).
    PINNED_SEED: Optional[int] = None
    PINNED_DIGEST = ""

    def make_plans(self, seed: int) -> list:
        raise NotImplementedError

    def setup(self, seed, work_dir):
        import numpy as np

        import repro.api

        self.seed = seed
        self._api = repro.api
        self.plans = self.make_plans(seed)
        self.sample = int(np.random.default_rng(seed).integers(len(self.plans)))
        self.first_digest = ""

    def op(self):
        result = OpResult()
        try:
            result.value = self._api.execute_sweep(self.plans)
        except Exception as exc:  # an operation that raises is a failure
            result.outcomes.append(Outcome(self.name, failed=True, detail=repr(exc)))
        return result

    def _bounds(self, plan):
        """(critical path, serial time) of the plan's GE2BND program."""
        from repro.runtime.engine import critical_path_seconds, serial_seconds
        from repro.runtime.simulator import _ge2bnd_setup

        rp = self._api.resolve(plan)
        setup = _ge2bnd_setup(rp.m, rp.n, rp.machine, tree=rp.tree,
                              algorithm=rp.variant, grid=rp.grid)
        return (critical_path_seconds(setup.program, rp.machine),
                serial_seconds(setup.program, rp.machine))

    def row_problems(self, plan, row, first: bool) -> List[str]:
        """Problems with one row; ``first`` adds the costlier checks."""
        raise NotImplementedError

    def check(self, result, first):
        rows = result.value
        if rows is None:
            return
        if len(rows) != len(self.plans):
            problems = [f"{len(rows)} rows for {len(self.plans)} plans"]
        else:
            problems = [p for plan, row in zip(self.plans, rows)
                        for p in self.row_problems(plan, row, first)]
            digest = _rows_digest(rows)
            if first:
                self.first_digest = digest
            elif digest != self.first_digest:
                # Every operation gets the same inputs, so the same rows.
                problems.append(f"rows digest {digest[:12]} != first operation's")
            if self.PINNED_SEED in (None, self.seed) and digest != self.PINNED_DIGEST:
                problems.append(f"rows digest {digest[:12]} != pinned")
            if first and not problems:
                # Once per run: the sampled plan's batch row equals its
                # per-plan execute() row.
                alone = self._api.execute(self.plans[self.sample], backend="simulate")
                if alone.to_row() != rows[self.sample]:
                    problems.append(f"batch row {self.sample} != execute() row")
        result.outcomes.append(Outcome(
            self.name, failed=bool(problems), wrong=bool(problems),
            detail="; ".join(problems)))


class SweepWorkload(SimulateSweepWorkload):
    """A deterministic sweep: 2 trees x 6 policies x 2 networks."""

    name = "sweep"
    #: The rows do not depend on the seed.
    PINNED_DIGEST = "e9f8642190b89743be9720014d9403b37dfefbdd6ca9aff1ab9712f4e8e945a7"

    def make_plans(self, seed):
        from repro.api import SvdPlan

        return [
            SvdPlan(**SWEEP_SHAPE, tree=tree, policy=policy, network=net)
            for tree in SWEEP_TREES
            for policy in ("list", "critical-path", "locality", "fifo",
                           "weight", "random")
            for net in ("uniform", "alpha-beta")
        ]

    def row_problems(self, plan, row, first):
        if not first:
            return []
        cp, serial = self._bounds(plan)
        span = row["seconds_ge2bnd"]
        if cp <= span * (1 + 1e-12) and span <= serial * (1 + 1e-12):
            return []
        return [f"{plan.tree}/{plan.policy}/{plan.network}: not "
                f"cp {cp} <= makespan {span} <= serial {serial}"]


class McWorkload(SimulateSweepWorkload):
    """A Monte-Carlo sweep: 2 trees x 3 scenarios, 8 draws each."""

    name = "mc"
    PINNED_SEED = 1
    PINNED_DIGEST = "06e5ad92a02043d85c909ec1e8dd6de3d0276e883f3017a3d14fd1d167243a25"

    def make_plans(self, seed):
        from repro.api import SvdPlan

        return [
            SvdPlan(**SWEEP_SHAPE, tree=tree, network="alpha-beta",
                    scenario=scenario, draws=8, seed=seed)
            for tree in SWEEP_TREES
            for scenario in ("hostile", "straggler", "noisy-net")
        ]

    def row_problems(self, plan, row, first):
        problems = []
        if row.get("mc_draws") != 8 or not row["mc_p50"] <= row["mc_p95"]:
            problems.append(f"{plan.tree}/{plan.scenario}: bad distribution")
        # Every scenario factor is >= 1, so no draw beats the nominal
        # critical path.
        if first and not self._bounds(plan)[0] <= row["mc_p50"] * (1 + 1e-12):
            problems.append(f"{plan.tree}/{plan.scenario}: p50 below cp")
        return problems


# --------------------------------------------------------------------------- #
# numeric-square, numeric-tall and numeric-edge
# --------------------------------------------------------------------------- #
#: Singular values must match scipy within this share of the largest one.
SV_TOL = 1e-10


@dataclass
class NumericInput:
    label: str
    matrix: Any
    tile_size: int
    reference: Any = None  # scipy.linalg.svdvals, or None for non-finite input


class NumericWorkload(Workload):
    """Numeric ``ge2val`` of each of the inputs :meth:`inputs` builds."""

    def inputs(self, rng) -> List[NumericInput]:
        raise NotImplementedError

    def setup(self, seed, work_dir):
        import warnings

        import numpy as np
        import scipy.linalg

        import repro.api
        from repro.api import SvdPlan

        # The 1e+-300 inputs overflow inside BD2VAL; keep stderr readable.
        warnings.simplefilter("ignore", RuntimeWarning)
        self._np = np
        self._svdvals = scipy.linalg.svdvals
        self._SvdPlan = SvdPlan
        self._api = repro.api
        self.items = self.inputs(np.random.default_rng(seed))
        self._references_done = False

    def prepare(self):
        super().prepare()
        if not self._references_done:
            for item in self.items:
                if self._np.isfinite(item.matrix).all():
                    item.reference = self._svdvals(item.matrix)
            self._references_done = True

    def op(self):
        result = OpResult(value=[])
        for item in self.items:
            plan = self._SvdPlan(matrix=item.matrix, stage="ge2val",
                                 tile_size=item.tile_size)
            try:
                got = self._api.execute(plan, backend="numeric")
            except Exception as exc:  # checked below: only ValueError may pass
                got = exc
            result.value.append((item, got))
        return result

    def check(self, result, first):
        np = self._np
        for item, got in result.value:
            finite = item.reference is not None
            if isinstance(got, BaseException):
                ok = not finite and isinstance(got, ValueError)
                result.outcomes.append(Outcome(
                    item.label, failed=not ok,
                    detail="" if ok else f"{type(got).__name__}: {got}"[:200]))
                continue
            if not finite:
                result.outcomes.append(Outcome(
                    item.label, failed=True, wrong=True,
                    detail="non-finite input returned values"))
                continue
            values = np.sort(np.asarray(got.singular_values))[::-1]
            ref = item.reference
            scale = ref[0] if ref[0] > 0 else 1.0
            err = (float(np.max(np.abs(values - ref))) / scale
                   if values.shape == ref.shape else float("inf"))
            ok = err <= SV_TOL
            result.outcomes.append(Outcome(
                item.label, failed=not ok, wrong=not ok,
                detail="" if ok else f"max error {err:.3g} > {SV_TOL}"))

    def reference_seconds(self):
        np = self._np
        finite = [item.matrix for item in self.items
                  if np.isfinite(item.matrix).all()]
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for matrix in finite:
                self._svdvals(matrix)
            times.append(time.perf_counter() - t0)
        return sorted(times)[1]

    def flops(self):
        from repro.models import flops

        total = 0.0
        for item in self.items:
            rp = self._api.resolve(self._SvdPlan(
                matrix=item.matrix, stage="ge2val", tile_size=item.tile_size))
            stage1 = (flops.rbidiag_flops if rp.variant == "rbidiag"
                      else flops.ge2bd_flops)(rp.m, rp.n)
            total += (stage1 + flops.bnd2bd_flops(rp.n, rp.tile_size)
                      + flops.bd2val_flops(rp.n))
        return total


class NumericSquareWorkload(NumericWorkload):
    """A 384x384 Gaussian matrix: the BIDIAG path, BND2BD-bound."""

    name = "numeric-square"

    def inputs(self, rng):
        return [NumericInput("square", rng.standard_normal((384, 384)), 48)]


class NumericTallWorkload(NumericWorkload):
    """A 3072x128 Gaussian matrix: the R-BIDIAG path, GE2BND-bound."""

    name = "numeric-tall"

    def inputs(self, rng):
        return [NumericInput("tall", rng.standard_normal((3072, 128)), 32)]


class NumericEdgeWorkload(NumericWorkload):
    """Six 32x32 robustness inputs; three of them fail today."""

    name = "numeric-edge"

    def inputs(self, rng):
        np = self._np
        n = 32

        def orthogonal():
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            return q

        base = rng.standard_normal((n, n))
        with_nan = base.copy()
        with_nan[int(rng.integers(n)), int(rng.integers(n))] = np.nan
        # Graded (sigma from 1 to 1e-12), rank 8, zero, huge, tiny and
        # non-finite.
        return [
            NumericInput("graded", orthogonal()
                         @ np.diag(np.logspace(0, -12, n)) @ orthogonal(), 8),
            NumericInput("rank-deficient", rng.standard_normal((n, 8))
                         @ rng.standard_normal((8, n)), 8),
            NumericInput("zero", np.zeros((n, n)), 8),
            NumericInput("x1e300", base * 1e300, 8),
            NumericInput("x1e-300", base * 1e-300, 8),
            NumericInput("nan", with_nan, 8),
        ]

# --------------------------------------------------------------------------- #
# campaign
# --------------------------------------------------------------------------- #
class CampaignWorkload(Workload):
    """256 small simulate candidates through the campaign runner."""

    name = "campaign"
    #: Seeds per (tree, policy) pair.  At 2048 candidates (2 s) a run held
    #: four operations and the median of runs spread by up to 30%;
    #: at 256 (0.27 s) a run holds about sixteen.
    SEEDS = 64

    def setup(self, seed, work_dir):
        import numpy as np

        from repro.campaign import CampaignRunner, CampaignSpec, ResultStore
        from repro.campaign.aggregate import campaign_rows

        self._Runner = CampaignRunner
        self._Store = ResultStore
        self._rows = campaign_rows
        seeds = np.random.default_rng(seed).choice(2**31 - 1, self.SEEDS,
                                                     replace=False)
        self.spec = CampaignSpec(
            name="perfbench",
            base={"m": 256, "n": 192, "tile_size": 64, "n_cores": 2},
            axes={
                "tree": ["flatts", "greedy"],
                "policy": ["list", "fifo"],
                "seed": sorted(int(s) for s in seeds),
            },
            backend="simulate",
            workers=1,
        )
        self.work_dir = work_dir
        self.expected: Optional[set] = None
        self._n = 0

    def prepare(self):
        super().prepare()
        if self.expected is None:
            self.expected = {c.candidate_id for c in self.spec.expand()}
        self._n += 1
        self.store_dir = os.path.join(self.work_dir, f"campaign-{self._n}")
        os.makedirs(self.store_dir)

    def op(self):
        result = OpResult()
        path = os.path.join(self.store_dir, "store.sqlite")
        try:
            runner = self._Runner(self.spec, path, workers=1,
                                  install_signal_handlers=False)
            try:
                report = runner.run()
                rows = self._rows(runner.store)
            finally:
                runner.store.close()
            result.value = (report, rows)
        except Exception as exc:
            result.outcomes.append(Outcome("campaign", failed=True, detail=repr(exc)))
        return result

    def check(self, result, first):
        if result.value is not None:
            report, rows = result.value
            with self._Store(os.path.join(self.store_dir, "store.sqlite")) as store:
                records = store.records()
            ids = [r.candidate_id for r in records if r.status == "done"]
            problems = []
            if len(rows) != len(self.expected) or len(ids) != len(set(ids)):
                problems.append(f"{len(rows)} rows, {len(ids)} done records")
            if set(ids) != self.expected:
                problems.append("done candidates differ from the expansion")
            if report.quarantined:
                problems.append(f"{report.quarantined} quarantined")
            result.outcomes.append(Outcome(
                "campaign", failed=bool(problems), wrong=bool(problems),
                detail="; ".join(problems)))
            result.layer = {
                "campaign.worker_s": sum(r.wall_seconds or 0.0 for r in records),
                "campaign.retries": float(report.retries),
                "campaign.respawns": float(report.respawns),
            }
        shutil.rmtree(self.store_dir, ignore_errors=True)


WORKLOADS = {
    w.name: w
    for w in (TuneWorkload, SweepWorkload, McWorkload, NumericSquareWorkload,
              NumericTallWorkload, NumericEdgeWorkload, CampaignWorkload)
}
