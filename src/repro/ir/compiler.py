"""Compile algorithm drivers into Programs, once per DAG shape.

``compile_program`` drives a :class:`~repro.ir.recorder.ProgramRecorder`
through one of the tiled algorithm drivers and finalizes the op stream
into a :class:`~repro.ir.program.Program`.  ``get_program`` fronts the
shared in-process :class:`ProgramCache`, keyed by ``(algorithm, p, q,
tree, n_cores, grid_rows)``, so that everything downstream — the numeric
executor, the DAG analyses, the simulation engine, a tuning sweep — traces
each DAG shape exactly once and replays it from then on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import nullcontext
from typing import Dict, Optional, Tuple, Union

from repro.algorithms.bidiag import bidiag_ge2bnd
from repro.algorithms.rbidiag import rbidiag_ge2bnd
from repro.algorithms.tiled_qr import tiled_qr
from repro.ir.program import Program
from repro.ir.recorder import ProgramRecorder
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import current_tracer
from repro.trees.base import ReductionTree

#: Algorithms the compiler can capture.
ALGORITHMS = ("qr", "bidiag", "rbidiag")


def tree_fingerprint(tree: Optional[ReductionTree]) -> str:
    """Stable cache key of a tree instance.

    Walks the instance's attributes (recursing into nested trees, e.g.
    :class:`~repro.trees.hierarchical.HierarchicalTree`'s local tree)
    rather than trusting ``repr``: the :class:`ReductionTree` base repr is
    parameterless, so a parameterized subclass without a custom ``__repr__``
    would otherwise collide in the cache and silently serve another
    configuration's program.
    """
    if tree is None:
        return "none"
    parts = [f"{type(tree).__module__}.{type(tree).__qualname__}"]
    for name, value in sorted(getattr(tree, "__dict__", {}).items()):
        if isinstance(value, ReductionTree):
            value = tree_fingerprint(value)
        parts.append(f"{name}={value!r}")
    return "(" + ", ".join(parts) + ")"


def program_key(
    algorithm: str,
    p: int,
    q: int,
    tree: Optional[ReductionTree],
    *,
    lq_tree: Optional[ReductionTree] = None,
    prequr_tree: Optional[ReductionTree] = None,
    n_cores: int = 1,
    grid_rows: int = 1,
) -> Tuple:
    """The cache key identifying one compiled DAG shape."""
    return (
        algorithm,
        p,
        q,
        tree_fingerprint(tree),
        tree_fingerprint(lq_tree),
        tree_fingerprint(prequr_tree),
        n_cores,
        grid_rows,
    )


def compile_program(
    algorithm: str,
    p: int,
    q: int,
    tree: Optional[ReductionTree],
    *,
    lq_tree: Optional[ReductionTree] = None,
    prequr_tree: Optional[ReductionTree] = None,
    n_cores: int = 1,
    grid_rows: int = 1,
) -> Program:
    """Capture one driver run into a fresh :class:`Program` (no caching).

    ``algorithm`` is ``"qr"``, ``"bidiag"`` or ``"rbidiag"``; ``lq_tree``
    and ``prequr_tree`` default to ``tree`` inside the drivers.
    """
    algorithm = algorithm.lower()
    tracer = current_tracer()
    with tracer.phase("compile") if tracer is not None else nullcontext():
        recorder = ProgramRecorder(p, q)
        if algorithm == "qr":
            tiled_qr(recorder, tree, n_cores=n_cores, grid_rows=grid_rows)
        elif algorithm == "bidiag":
            bidiag_ge2bnd(
                recorder, tree, lq_tree, n_cores=n_cores, grid_rows=grid_rows
            )
        elif algorithm == "rbidiag":
            rbidiag_ge2bnd(
                recorder,
                tree,
                lq_tree,
                prequr_tree=prequr_tree,
                n_cores=n_cores,
                grid_rows=grid_rows,
            )
        else:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
            )
        return recorder.program(
            key=program_key(
                algorithm,
                p,
                q,
                tree,
                lq_tree=lq_tree,
                prequr_tree=prequr_tree,
                n_cores=n_cores,
                grid_rows=grid_rows,
            )
        )


class ProgramCache:
    """Thread-safe in-process LRU cache of compiled programs.

    Programs are immutable, so a cached instance can safely be shared by
    concurrent consumers; a caller that needs a mutated DAG builds a new
    ``Program(ops, pred_lists)`` from the cached one's ops.

    Eviction is bounded two ways: ``maxsize`` caps the entry count and
    ``max_ops`` caps the *total op count* across entries — program memory
    grows roughly linearly in ops (~p^2*q ops for a p x q GE2BND), so an
    entry cap alone would let a paper-scale sweep (millions of ops per
    shape) pin tens of gigabytes.  The most recently used program is never
    evicted, so even a program larger than ``max_ops`` on its own is
    served from cache while it is the active shape.
    """

    def __init__(self, maxsize: int = 128, max_ops: int = 4_000_000) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if max_ops < 1:
            raise ValueError(f"max_ops must be >= 1, got {max_ops}")
        self.maxsize = maxsize
        self.max_ops = max_ops
        self._lock = threading.Lock()
        self._programs: "OrderedDict[Tuple, Program]" = OrderedDict()
        self._total_ops = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)

    def _evict_locked(self) -> None:
        """Drop LRU entries until within both bounds (keep the newest)."""
        while len(self._programs) > 1 and (
            len(self._programs) > self.maxsize or self._total_ops > self.max_ops
        ):
            _, evicted = self._programs.popitem(last=False)
            self._total_ops -= len(evicted)

    def clear(self) -> int:
        """Drop every cached program; returns how many were dropped."""
        with self._lock:
            n = len(self._programs)
            self._programs.clear()
            self._total_ops = 0
            self.hits = 0
            self.misses = 0
            return n

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._programs),
                "total_ops": self._total_ops,
            }

    def get_or_compile(
        self,
        algorithm: str,
        p: int,
        q: int,
        tree: Optional[ReductionTree],
        *,
        lq_tree: Optional[ReductionTree] = None,
        prequr_tree: Optional[ReductionTree] = None,
        n_cores: int = 1,
        grid_rows: int = 1,
    ) -> Program:
        """Return the cached program for this shape, compiling on a miss."""
        key = program_key(
            algorithm.lower(),
            p,
            q,
            tree,
            lq_tree=lq_tree,
            prequr_tree=prequr_tree,
            n_cores=n_cores,
            grid_rows=grid_rows,
        )
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self.hits += 1
                self._programs.move_to_end(key)
                REGISTRY.inc("program_cache.hits")
                return program
            self.misses += 1
        REGISTRY.inc("program_cache.misses")
        # Compile outside the lock (tracing a large DAG takes a while);
        # a rare duplicate compilation of the same key is harmless.
        program = compile_program(
            algorithm,
            p,
            q,
            tree,
            lq_tree=lq_tree,
            prequr_tree=prequr_tree,
            n_cores=n_cores,
            grid_rows=grid_rows,
        )
        # Opt-in static verification on insertion (REPRO_VERIFY=1): run the
        # dataflow oracle over the fresh program before anything downstream
        # can consume it.  Outside the lock — the oracle is O(ops + edges).
        from repro.verify.hooks import verify_enabled

        if verify_enabled():
            from repro.verify.hooks import check_program

            check_program(program)
        with self._lock:
            previous = self._programs.pop(key, None)
            if previous is not None:
                self._total_ops -= len(previous)
            self._programs[key] = program
            self._total_ops += len(program)
            self._evict_locked()
        return program


#: The process-wide cache every layer resolves through (the API backends,
#: the simulator drivers, the tuning objectives and the DAG analyses all
#: share it).
PROGRAM_CACHE = ProgramCache()


def get_program(
    algorithm: str,
    p: int,
    q: int,
    tree: Optional[ReductionTree],
    *,
    lq_tree: Optional[ReductionTree] = None,
    prequr_tree: Optional[ReductionTree] = None,
    n_cores: int = 1,
    grid_rows: int = 1,
    cache: Union[ProgramCache, None, bool] = None,
) -> Program:
    """Resolve one DAG shape through the shared program cache.

    ``cache`` overrides the store: ``None`` (default) uses the process-wide
    :data:`PROGRAM_CACHE`, ``False`` compiles fresh without caching, and an
    explicit :class:`ProgramCache` uses that instance.
    """
    if cache is False:
        return compile_program(
            algorithm,
            p,
            q,
            tree,
            lq_tree=lq_tree,
            prequr_tree=prequr_tree,
            n_cores=n_cores,
            grid_rows=grid_rows,
        )
    store = PROGRAM_CACHE if cache is None or cache is True else cache
    return store.get_or_compile(
        algorithm,
        p,
        q,
        tree,
        lq_tree=lq_tree,
        prequr_tree=prequr_tree,
        n_cores=n_cores,
        grid_rows=grid_rows,
    )


def clear_program_cache() -> int:
    """Clear the process-wide program cache (returns evicted entry count)."""
    return PROGRAM_CACHE.clear()


def program_cache_stats() -> Dict[str, int]:
    """Hit/miss/entry counters of the process-wide program cache."""
    return PROGRAM_CACHE.stats
