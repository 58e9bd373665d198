"""BIDIAG vs R-BIDIAG crossover study (Section IV-C of the paper).

For square matrices BIDIAG has the shorter critical path; for sufficiently
tall-and-skinny matrices R-BIDIAG wins.  The crossover ratio
``delta_s = p / q`` at which the two GREEDY variants meet is "a complicated
function of q, oscillating between 5 and 8" (paper).  Because the paper's
result relies on the *pipelined* critical path of the greedy QR
factorization (successive panels overlap), the crossover here is computed
from the measured critical paths of the actual task DAGs, not from the
non-overlapping closed forms (which would never cross).

Chan's flop-count crossover (``m >= 5n/3``) is also exposed for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List

from repro.ir.compiler import get_program
from repro.trees import FlatTSTree, FlatTTTree, GreedyTree

#: Chan's crossover: R-bidiagonalization performs fewer flops than direct
#: bidiagonalization as soon as m >= 5n/3.
CHAN_FLOP_CROSSOVER = 5.0 / 3.0

_TREES = {
    "flatts": FlatTSTree,
    "flattt": FlatTTTree,
    "greedy": GreedyTree,
}


@lru_cache(maxsize=4096)
def measured_bidiag_cp(p: int, q: int, tree: str = "greedy") -> float:
    """Critical path of the BIDIAG task DAG (cached)."""
    return get_program("bidiag", p, q, _TREES[tree]()).critical_path()


@lru_cache(maxsize=4096)
def measured_rbidiag_cp(p: int, q: int, tree: str = "greedy") -> float:
    """Critical path of the R-BIDIAG task DAG, with panel pipelining (cached)."""
    return get_program("rbidiag", p, q, _TREES[tree]()).critical_path()


def crossover_ratio(q: int, tree: str = "greedy", p_max_factor: int = 16) -> float:
    """Smallest ratio ``delta = p/q`` at which R-BIDIAG's measured critical
    path becomes shorter than BIDIAG's, for a fixed tile width ``q``.

    Uses a binary search on ``p`` (the sign of the difference is monotone in
    practice); returns ``float('inf')`` if no crossover exists below
    ``p_max_factor * q``.
    """
    if q < 2:
        raise ValueError("q must be >= 2 for a meaningful crossover")
    if tree not in _TREES:
        raise ValueError(f"unknown tree {tree!r}; choose from {sorted(_TREES)}")
    lo, hi = q, p_max_factor * q
    if measured_rbidiag_cp(hi, q, tree) >= measured_bidiag_cp(hi, q, tree):
        return float("inf")
    while lo < hi:
        mid = (lo + hi) // 2
        if measured_rbidiag_cp(mid, q, tree) < measured_bidiag_cp(mid, q, tree):
            hi = mid
        else:
            lo = mid + 1
    return lo / q


@dataclass(frozen=True)
class CrossoverPoint:
    """Crossover data for one tile width ``q``."""

    q: int
    delta_s: float
    p_at_crossover: int


def crossover_table(
    q_values: List[int], tree: str = "greedy", p_max_factor: int = 16
) -> List[CrossoverPoint]:
    """Crossover ratio ``delta_s(q)`` for a list of tile widths.

    The paper reports that for GREEDY the ratio oscillates between 5 and 8
    (for the tile widths it plots); at the small widths practical to sweep
    here the measured ratio sits a little lower and grows with ``q``.
    """
    points: List[CrossoverPoint] = []
    for q in q_values:
        delta = crossover_ratio(q, tree=tree, p_max_factor=p_max_factor)
        p_at = int(round(delta * q)) if delta != float("inf") else -1
        points.append(CrossoverPoint(q=q, delta_s=delta, p_at_crossover=p_at))
    return points


def flop_crossover_ratio() -> float:
    """Chan's operation-count crossover ``m/n = 5/3`` (for reference)."""
    return CHAN_FLOP_CROSSOVER


def asymptotic_ratio(alpha: float) -> float:
    """Asymptotic ratio BIDIAG / R-BIDIAG = ``1 + alpha/2`` (Theorem 1).

    For tile shapes ``p = beta * q^(1+alpha)`` with ``0 <= alpha < 1``.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return 1.0 + alpha / 2.0
