"""repro — Tiled bidiagonalization and R-bidiagonalization.

Reproduction of *"Bidiagonalization and R-Bidiagonalization: Parallel Tiled
Algorithms, Critical Paths and Distributed-Memory Implementation"*
(Faverge, Langou, Robert, Dongarra — IPDPS 2017).

The package provides, from the bottom up:

* ``repro.tiles`` — tiled-matrix storage and 2D block-cyclic distribution;
* ``repro.kernels`` — numerically exact Householder tile kernels
  (GEQRT / TSQRT / TTQRT / UNMQR / TSMQR / TTMQR and their LQ counterparts)
  together with the Table-I cost model;
* ``repro.trees`` — QR/LQ reduction trees (FlatTS, FlatTT, Greedy,
  Fibonacci, Binary, Auto, hierarchical distributed trees);
* ``repro.algorithms`` — tiled QR/LQ, BIDIAG (GE2BND), R-BIDIAG, BND2BD,
  BD2VAL and the GE2VAL / GESVD drivers (including the singular-vector
  pipeline :func:`~repro.algorithms.gesvd_pipeline.gesvd_two_stage`);
* ``repro.lapack`` — classical one-stage baselines (GEBD2, GEBRD, GEQRF,
  Chan's algorithm) used as numerical references and competitor models;
* ``repro.ir`` — the compiled op-stream Program IR: algorithm drivers are
  captured once per DAG shape (op stream + CSR dependencies, shared
  in-process cache) and replayed by every consumer below;
* ``repro.dag`` — critical-path, structural analyses and DOT/JSON export
  over compiled programs;
* ``repro.runtime`` — a PaRSEC-like event-driven runtime engine with
  pluggable scheduling policies (bounded cores, nodes, network) used for
  the performance studies;
* ``repro.models`` — operation counts and competitor models
  (PLASMA, MKL, ScaLAPACK, Elemental);
* ``repro.analysis`` — closed-form critical-path formulas and the
  BIDIAG / R-BIDIAG crossover study;
* ``repro.experiments`` — harness helpers used by ``benchmarks/`` to
  regenerate each figure and table of the paper;
* ``repro.api`` — the unified plan API: one declarative
  :class:`~repro.api.plan.SvdPlan` resolved once and executed through the
  numeric, DAG or simulation backend, all returning a
  :class:`~repro.api.result.RunResult`.

Quickstart
----------

One plan, three lenses:

>>> from repro import SvdPlan, execute
>>> plan = SvdPlan(m=48, n=32, tile_size=8, stage="ge2val")
>>> execute(plan, backend="numeric").max_rel_error < 1e-12
True
>>> execute(plan, backend="dag").n_tasks == execute(plan, backend="simulate").n_tasks
True

The classic function-style drivers remain available:

>>> import numpy as np
>>> from repro import ge2val
>>> rng = np.random.default_rng(0)
>>> a = rng.standard_normal((40, 24))
>>> sv = ge2val(a, tile_size=8)
>>> np.allclose(np.sort(sv)[::-1], np.linalg.svd(a, compute_uv=False))
True
"""

from repro.config import Config, default_config
from repro.tiles.matrix import TiledMatrix
from repro.tiles.layout import TileLayout
from repro.tiles.distribution import BlockCyclicDistribution
from repro.trees import (
    FlatTSTree,
    FlatTTTree,
    GreedyTree,
    FibonacciTree,
    BinaryTree,
    AutoTree,
    make_tree,
)
from repro.algorithms.tiled_qr import tiled_qr
from repro.algorithms.tiled_lq import tiled_lq
from repro.algorithms.bidiag import bidiag_ge2bnd
from repro.algorithms.rbidiag import rbidiag_ge2bnd
from repro.algorithms.bnd2bd import band_to_bidiagonal
from repro.algorithms.bnd2bd_uv import band_to_bidiagonal_uv
from repro.algorithms.bd2val import bidiagonal_singular_values
from repro.algorithms.bdsqr import bdsqr
from repro.algorithms.gesvd_pipeline import gesvd_two_stage
from repro.algorithms.svd import ge2val, gesvd, ge2bnd
from repro.api import ResolvedPlan, RunResult, SvdPlan, execute, execute_sweep, resolve
from repro.ir import Program, get_program, replay
from repro.dag.critical_path import critical_path_length
from repro.analysis.formulas import (
    bidiag_flatts_cp,
    bidiag_flattt_cp,
    bidiag_greedy_cp,
    rbidiag_greedy_cp,
)

__version__ = "1.3.0"

__all__ = [
    "SvdPlan",
    "ResolvedPlan",
    "RunResult",
    "resolve",
    "execute",
    "execute_sweep",
    "Config",
    "default_config",
    "TiledMatrix",
    "TileLayout",
    "BlockCyclicDistribution",
    "FlatTSTree",
    "FlatTTTree",
    "GreedyTree",
    "FibonacciTree",
    "BinaryTree",
    "AutoTree",
    "make_tree",
    "tiled_qr",
    "tiled_lq",
    "bidiag_ge2bnd",
    "rbidiag_ge2bnd",
    "band_to_bidiagonal",
    "band_to_bidiagonal_uv",
    "bidiagonal_singular_values",
    "bdsqr",
    "gesvd_two_stage",
    "ge2val",
    "gesvd",
    "ge2bnd",
    "Program",
    "get_program",
    "replay",
    "critical_path_length",
    "bidiag_flatts_cp",
    "bidiag_flattt_cp",
    "bidiag_greedy_cp",
    "rbidiag_greedy_cp",
    "__version__",
]
