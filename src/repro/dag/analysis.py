"""Structural analysis of compiled task DAGs (:class:`~repro.ir.program.Program`).

These tools quantify *why* a reduction tree behaves the way it does:

* **work / span / average parallelism** — the classical DAG metrics; the
  span (critical path) is what Section IV of the paper analyses, the
  average parallelism bounds the core count beyond which adding resources
  cannot help;
* **parallelism profile** — how many tasks are simultaneously runnable over
  (weighted) time under an ASAP schedule with unbounded resources; the
  FLATTS profile is flat and low, the GREEDY profile has tall spikes, which
  is exactly the trade-off the AUTO tree balances;
* **kernel and step breakdowns** — where the work goes (panel vs update
  kernels, QR vs LQ steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.ir.program import Program


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a program's task DAG.

    Attributes
    ----------
    n_tasks, n_edges:
        Number of tasks and dependency edges.
    work:
        Total weight (units of ``nb^3 / 3`` flops) — sequential time.
    span:
        Critical-path weight — time with unbounded resources.
    average_parallelism:
        ``work / span``; above this core count speedup saturates.
    max_in_degree, max_out_degree:
        Largest dependency fan-in / fan-out of any task.
    n_sources, n_sinks:
        Tasks without predecessors / successors.
    """

    n_tasks: int
    n_edges: int
    work: float
    span: float
    average_parallelism: float
    max_in_degree: int
    max_out_degree: int
    n_sources: int
    n_sinks: int


def graph_stats(program: Program) -> GraphStats:
    """Compute the :class:`GraphStats` of a program."""
    work = float(program.total_weight())
    span = program.critical_path()
    in_deg = np.diff(program.pred_indptr_np)
    out_deg = np.diff(program.succ_indptr_np)
    return GraphStats(
        n_tasks=len(program),
        n_edges=program.n_edges,
        work=work,
        span=span,
        average_parallelism=work / span if span > 0 else 0.0,
        max_in_degree=int(in_deg.max(initial=0)),
        max_out_degree=int(out_deg.max(initial=0)),
        n_sources=int(np.count_nonzero(in_deg == 0)),
        n_sinks=int(np.count_nonzero(out_deg == 0)),
    )


def parallelism_profile(program: Program, n_bins: int = 50) -> List[Tuple[float, int]]:
    """Number of concurrently running tasks over time (ASAP, unbounded cores).

    Every task starts as soon as its predecessors finish (weights are the
    Table-I units).  The profile is sampled at ``n_bins`` evenly spaced
    points of the span and returned as ``(time, active_tasks)`` pairs.
    """
    n = len(program)
    if n == 0:
        return []
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    weights = program.weights_np.astype(float).tolist()
    indptr = program.pred_indptr_np.tolist()
    pred_ids = program.pred_ids_np.tolist()
    start = [0.0] * n
    finish = [0.0] * n
    for tid in range(n):
        s = 0.0
        for pred in pred_ids[indptr[tid]: indptr[tid + 1]]:
            if finish[pred] > s:
                s = finish[pred]
        start[tid] = s
        finish[tid] = s + weights[tid]
    span = max(finish)
    if span <= 0:
        return [(0.0, n)]
    start_np = np.array(start)
    finish_np = np.array(finish)
    profile: List[Tuple[float, int]] = []
    for b in range(n_bins):
        t = span * (b + 0.5) / n_bins
        active = int(np.count_nonzero((start_np <= t) & (t < finish_np)))
        profile.append((t, active))
    return profile


def max_parallelism(program: Program, n_bins: int = 200) -> int:
    """Peak of the :func:`parallelism_profile` (sampled)."""
    profile = parallelism_profile(program, n_bins=n_bins)
    return max((active for _, active in profile), default=0)


def kernel_breakdown(program: Program) -> Dict[str, Dict[str, float]]:
    """Per-kernel task counts and work shares.

    Returns ``{kernel_name: {"count": ..., "work": ..., "work_fraction": ...}}``.
    """
    total = float(program.total_weight())
    out: Dict[str, Dict[str, float]] = {}
    for op in program.ops:
        entry = out.setdefault(op.kernel.value, {"count": 0.0, "work": 0.0})
        entry["count"] += 1
        entry["work"] += float(op.weight)
    for entry in out.values():
        entry["work_fraction"] = entry["work"] / total if total > 0 else 0.0
    return out


def ts_tt_work_split(program: Program) -> Tuple[float, float]:
    """Fractions of the update work done by TS kernels vs TT kernels.

    The paper's AUTO tree exists because TS updates run near GEMM speed
    while TT updates do not; this split quantifies how much of the work each
    tree routes through the efficient kernels.
    """
    ts = tt = 0.0
    for op in program.ops:
        name = op.kernel.value
        if name in ("TSMQR", "TSMLQ", "TSQRT", "TSLQT"):
            ts += float(op.weight)
        elif name in ("TTMQR", "TTMLQ", "TTQRT", "TTLQT"):
            tt += float(op.weight)
    total = ts + tt
    if total <= 0:
        return 0.0, 0.0
    return ts / total, tt / total


def step_breakdown(program: Program) -> Dict[str, float]:
    """Work per algorithm step (``QR(k)`` / ``LQ(k)``) as labelled by the recorder.

    Ops with an empty ``step`` label are aggregated under ``"(unlabelled)"``.
    """
    out: Dict[str, float] = {}
    for op in program.ops:
        key = op.step or "(unlabelled)"
        out[key] = out.get(key, 0.0) + float(op.weight)
    return out


def memory_footprint_tiles(program: Program) -> int:
    """Number of distinct tiles touched by the program (working-set size in tiles)."""
    tiles = set()
    for op in program.ops:
        for _, i, j in op.reads | op.writes:
            tiles.add((i, j))
    return len(tiles)
