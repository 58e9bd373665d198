"""Speedup bounds and scaling projections.

Classical work/span bounds applied to the compiled programs and the
simulated schedules:

* ``T_1`` — sequential time (total work at the machine's kernel rates);
* ``T_inf`` — span (critical path at the same rates);
* Brent's bound — any greedy schedule on ``P`` cores finishes within
  ``T_1 / P + T_inf``;
* Amdahl-style projection of GE2VAL — the distributed GE2BND part scales,
  the single-node BND2BD + BD2VAL part does not, which is what caps the
  strong scaling of Figure 3 (the "upper bound" line of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.ir.program import Program
from repro.runtime.engine import critical_path_seconds, serial_seconds
from repro.runtime.machine import Machine
from repro.runtime.scheduler import Schedule


@dataclass(frozen=True)
class SpeedupBounds:
    """Work/span bounds for one program on one machine.

    All times are in seconds at the machine's kernel rates.
    """

    t1_seconds: float
    tinf_seconds: float
    brent_bound_seconds: float
    max_useful_cores: float
    measured_makespan: Optional[float] = None

    @property
    def measured_speedup(self) -> Optional[float]:
        """Speedup of the measured makespan over the sequential time."""
        if self.measured_makespan is None or self.measured_makespan <= 0:
            return None
        return self.t1_seconds / self.measured_makespan

    @property
    def brent_gap(self) -> Optional[float]:
        """``measured / brent_bound`` — 1.0 means the schedule meets the bound."""
        if self.measured_makespan is None or self.brent_bound_seconds <= 0:
            return None
        return self.measured_makespan / self.brent_bound_seconds


def speedup_bounds(
    program: Program,
    machine: Machine,
    schedule: Optional[Schedule] = None,
) -> SpeedupBounds:
    """Compute :class:`SpeedupBounds` for ``program`` on ``machine``.

    ``T_1`` and ``T_inf`` are :func:`~repro.runtime.engine.serial_seconds`
    and :func:`~repro.runtime.engine.critical_path_seconds`: they use the
    machine's per-kernel durations (so TS and TT kernels have different
    rates, unlike the pure Table-I weights used in Section IV).  When a
    simulated ``schedule`` is given, its makespan is attached for
    comparison against Brent's bound.
    """
    t1 = serial_seconds(program, machine)
    tinf = critical_path_seconds(program, machine)
    cores = machine.total_cores
    brent = t1 / cores + tinf if cores > 0 else float("inf")
    return SpeedupBounds(
        t1_seconds=t1,
        tinf_seconds=tinf,
        brent_bound_seconds=brent,
        max_useful_cores=t1 / tinf if tinf > 0 else float("inf"),
        measured_makespan=schedule.makespan if schedule is not None else None,
    )


def amdahl_ge2val_bound(
    ge2bnd_seconds_single_node: float,
    post_seconds: float,
    n_nodes: int,
) -> float:
    """Best-case GE2VAL time on ``n_nodes`` nodes (Amdahl-style).

    The GE2BND stage is assumed to scale perfectly with the node count while
    the BND2BD + BD2VAL stage stays on one node — the "upper bound
    (BND2VAL)" line the paper draws on Figure 3.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if ge2bnd_seconds_single_node < 0 or post_seconds < 0:
        raise ValueError("stage times must be non-negative")
    return ge2bnd_seconds_single_node / n_nodes + post_seconds


def strong_scaling_efficiency(times: Dict[int, float]) -> Dict[int, float]:
    """Parallel efficiency of a strong-scaling sweep ``{nodes: seconds}``.

    Efficiency at ``n`` nodes is ``t(1) / (n * t(n))`` relative to the
    smallest node count present in the sweep.
    """
    if not times:
        return {}
    base_nodes = min(times)
    base = times[base_nodes] * base_nodes
    out: Dict[int, float] = {}
    for nodes, t in times.items():
        out[nodes] = base / (nodes * t) if t > 0 else 0.0
    return out


def weak_scaling_efficiency(rates: Dict[int, float]) -> Dict[int, float]:
    """Weak-scaling efficiency of a sweep ``{nodes: gflops}``.

    Perfect weak scaling keeps GFlop/s per node constant; efficiency at
    ``n`` nodes is ``rate(n) / (n * rate(1) / 1)`` relative to the smallest
    node count of the sweep.
    """
    if not rates:
        return {}
    base_nodes = min(rates)
    per_node_base = rates[base_nodes] / base_nodes
    out: Dict[int, float] = {}
    for nodes, rate in rates.items():
        denom = per_node_base * nodes
        out[nodes] = rate / denom if denom > 0 else 0.0
    return out
