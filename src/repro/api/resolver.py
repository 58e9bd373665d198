"""Plan canonicalization.

This module is the single home of the resolution logic that used to be
duplicated across ``algorithms/svd.py``, ``cli.py`` and
``runtime/simulator.py``:

* Chan's BIDIAG / R-BIDIAG flop crossover (``m >= 5n/3``, in elements or
  tiles);
* reduction-tree canonicalization (names → instances, AUTO parallelism
  hint, hierarchical wrapping for multi-node machines);
* tile geometry (config-driven default tile size, ``p x q`` tile shape,
  process grid).

:func:`resolve` applies all of it once, turning a declarative
:class:`~repro.api.plan.SvdPlan` into a :class:`ResolvedPlan` that every
backend consumes without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.api.plan import VARIANTS, ArrayOrTiled, SvdPlan
from repro.config import Config, MachinePreset, default_config, get_preset
from repro.runtime.machine import Machine
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.tiles.layout import ceil_div
from repro.tiles.matrix import TiledMatrix
from repro.trees import AutoTree, GreedyTree, HierarchicalTree, make_tree
from repro.trees.base import ReductionTree


# --------------------------------------------------------------------------- #
# Chan crossover
# --------------------------------------------------------------------------- #
def chan_prefers_rbidiag(rows: int, cols: int) -> bool:
    """Chan's flop crossover: R-BIDIAG wins as soon as ``m >= 5n/3``.

    The predicate itself is scale-free and is shared by every call site,
    but the *units* differ: the plan resolver (and historically the CLI
    and simulator) evaluates it on element dimensions ``(m, n)``, while
    the legacy numeric driver evaluates it on tile dimensions ``(p, q)``.
    Because ``p = ceil(m/nb)`` rounds, the two can disagree for shapes
    right at the ``5/3`` boundary; pass an explicit variant when that
    distinction matters.
    """
    return 3 * rows >= 5 * cols


def resolve_variant(variant: str, rows: int, cols: int) -> str:
    """Resolve ``"auto"`` to a concrete variant via the Chan crossover."""
    variant = variant.lower()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if variant != "auto":
        return variant
    return "rbidiag" if chan_prefers_rbidiag(rows, cols) else "bidiag"


# --------------------------------------------------------------------------- #
# Tile geometry
# --------------------------------------------------------------------------- #
def default_tile_size(m: int, n: int, config: Optional[Config] = None) -> int:
    """Config-driven default tile size.

    Uses ``config.tile_size`` (the paper's ``nb = 160`` by default), capped
    so that the smallest matrix dimension still spans a handful of tiles —
    the reduction trees are meaningless on a 1x1 tile grid.
    """
    config = config if config is not None else default_config
    return max(1, min(config.tile_size, min(m, n) // 4))


_NON_FINITE = "input matrix has NaN or infinite entries"


def as_tiled(
    a: ArrayOrTiled,
    tile_size: Optional[int] = None,
    config: Optional[Config] = None,
) -> TiledMatrix:
    """Coerce a dense array into a :class:`TiledMatrix`.

    Already-tiled inputs pass through unchanged; dense inputs are tiled at
    ``tile_size``, defaulting to :func:`default_tile_size`.  Either form
    must hold only finite entries: the reduction has no meaningful result
    for NaN or infinite input, so it is refused here with a ``ValueError``.
    """
    if isinstance(a, TiledMatrix):
        if not all(np.isfinite(tile).all() for _, tile in a.tiles()):
            raise ValueError(_NON_FINITE)
        return a
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    if not np.isfinite(a).all():
        raise ValueError(_NON_FINITE)
    if tile_size is None:
        tile_size = default_tile_size(a.shape[0], a.shape[1], config)
    return TiledMatrix.from_dense(a, tile_size)


def default_grid(n_nodes: int, p: int, q: int) -> ProcessGrid:
    """The process grid the paper uses: ``nodes x 1`` for tall-and-skinny
    tile shapes (``p >= 2q``), near-square otherwise."""
    if p >= 2 * q:
        return ProcessGrid.for_tall_skinny_matrix(n_nodes)
    return ProcessGrid.for_square_matrix(n_nodes)


# --------------------------------------------------------------------------- #
# Reduction trees
# --------------------------------------------------------------------------- #
def resolve_tree(
    tree: Union[str, ReductionTree, None],
    *,
    n_cores: int = 1,
    config: Optional[Config] = None,
) -> ReductionTree:
    """Canonicalize a shared-memory tree spec (name / instance / None).

    ``None`` means GREEDY (the numeric drivers' historical default);
    ``"auto"`` builds the adaptive tree with the given parallelism hint and
    the config's ``gamma``.
    """
    if tree is None:
        return GreedyTree()
    if isinstance(tree, ReductionTree):
        return tree
    name = tree.strip().lower()
    if name == "auto":
        config = config if config is not None else default_config
        return AutoTree(n_cores=n_cores, gamma=config.auto_gamma)
    return make_tree(name)


def resolve_distributed_tree(
    tree: Union[str, ReductionTree, None],
    *,
    n_nodes: int,
    n_cores: int,
    p: int,
    q: int,
    config: Optional[Config] = None,
    grid: Optional[ProcessGrid] = None,
) -> ReductionTree:
    """Canonicalize a tree spec for an ``n_nodes``-node machine.

    Explicit instances pass through unchanged.  Named trees map to the
    shared-memory trees on one node; on several nodes they are wrapped in
    the paper's hierarchical configuration (flat top tree for
    FlatTS/FlatTT, greedy top tree for Greedy/Auto) over ``grid`` — or the
    default process grid for the ``p x q`` tile shape when ``None``.
    """
    if isinstance(tree, ReductionTree):
        return tree
    base = resolve_tree(tree, n_cores=n_cores, config=config)
    if n_nodes == 1:
        return base
    name = (tree or "greedy").strip().lower()
    top = "flat" if name in ("flatts", "flattt") else "greedy"
    if grid is None:
        grid = default_grid(n_nodes, p, q)
    return HierarchicalTree(local_tree=base, top=top, grid_rows=grid.rows)


def tree_display_name(tree: Union[str, ReductionTree, None]) -> str:
    """Stable human-readable name of a tree spec (for result rows)."""
    if tree is None:
        return "greedy"
    if isinstance(tree, str):
        return tree.strip().lower()
    return getattr(tree, "name", type(tree).__name__)


# --------------------------------------------------------------------------- #
# The resolved plan
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResolvedPlan:
    """A plan with every free choice pinned down.

    Carries the canonical tree instance, concrete variant, tile geometry,
    process grid and machine model; backends consume these fields directly
    and never re-derive them.
    """

    plan: SvdPlan
    config: Config
    m: int
    n: int
    tile_size: int
    p: int
    q: int
    stage: str
    variant: str
    tree: ReductionTree
    tree_name: str
    machine: Machine
    grid: ProcessGrid
    #: Machine-realism scenario (already coerced to an instance by the
    #: plan), or ``None`` for the ideal deterministic machine.  The
    #: machine above stays nominal — scenario slowdowns are applied inside
    #: :func:`repro.runtime.scenario.run_scenario`.
    scenario: Optional[object] = None
    #: Monte-Carlo draw-count override (``None`` = scenario default).
    draws: Optional[int] = None

    @property
    def distribution(self) -> BlockCyclicDistribution:
        """Block-cyclic tile-to-node mapping over the resolved grid."""
        return BlockCyclicDistribution(self.grid)

    @property
    def preset(self) -> MachinePreset:
        return self.machine.preset

    def build_matrix(self) -> ArrayOrTiled:
        """The plan's input matrix (explicit, or seeded standard normal)."""
        if self.plan.matrix is not None:
            return self.plan.matrix
        rng = np.random.default_rng(self.plan.seed)
        return rng.standard_normal((self.m, self.n))

    def build_tiled(self) -> TiledMatrix:
        """The input matrix in tiled form, at the resolved tile size."""
        return as_tiled(self.build_matrix(), self.tile_size, self.config)


def resolve(plan: SvdPlan, config: Optional[Config] = None) -> ResolvedPlan:
    """Canonicalize ``plan`` once, for any backend.

    ``config`` overrides the plan's own config, which in turn overrides
    :data:`repro.config.default_config`.
    """
    if config is None:
        config = plan.config if plan.config is not None else default_config
    m, n = plan.m, plan.n
    if isinstance(plan.matrix, TiledMatrix):
        tile_size = plan.matrix.nb
        if plan.tile_size not in (None, tile_size):
            raise ValueError(
                f"tile_size={plan.tile_size} disagrees with the tiled input's nb={tile_size}"
            )
    elif plan.tile_size == "auto":
        # The autotuner picks nb (through the persistent plan cache, so
        # repeated resolutions of the same problem are O(1)).  Imported
        # lazily: repro.tuning builds on this module.
        from repro.tuning import resolve_auto_tile_size

        tile_size = resolve_auto_tile_size(plan, config=config)
    elif plan.tile_size is not None:
        tile_size = plan.tile_size
    else:
        tile_size = default_tile_size(m, n, config)
    p, q = ceil_div(m, tile_size), ceil_div(n, tile_size)
    grid = ProcessGrid(*plan.grid) if plan.grid else default_grid(plan.n_nodes, p, q)
    tree = resolve_distributed_tree(
        plan.tree,
        n_nodes=plan.n_nodes,
        n_cores=plan.n_cores,
        p=p,
        q=q,
        config=config,
        grid=grid,
    )
    machine = Machine(
        n_nodes=plan.n_nodes,
        cores_per_node=plan.n_cores,
        tile_size=tile_size,
        preset=get_preset(plan.machine),
        inner_block=config.inner_block,
    )
    return ResolvedPlan(
        plan=plan,
        config=config,
        m=m,
        n=n,
        tile_size=tile_size,
        p=p,
        q=q,
        stage=plan.stage,
        variant=resolve_variant(plan.variant, m, n),
        tree=tree,
        tree_name=tree_display_name(plan.tree),
        machine=machine,
        grid=grid,
        scenario=plan.scenario,
        draws=plan.draws,
    )
