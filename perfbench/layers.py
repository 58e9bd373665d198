"""Per-layer tracing for the benchmark's traced runs.

The benchmark measures the program from outside: for a traced operation it
replaces public entry points of the ``repro`` modules (``api``, ``ir``,
``tuning``, ``runtime``, ``algorithms``, ``campaign``) with wrappers that
record a span per call — name, start, end, parent span and operation id —
and restores the originals afterwards.  Nothing under ``src/`` changes,
and untraced operations run the unwrapped program.

Spans stay in memory; :meth:`Recorder.dump` writes them out at exit.  A
span's self time is its duration minus the durations of its child spans.
See README.md for which end-to-end metric each per-layer metric moves.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: Span targets: (metric span name, module, attribute path).  A dotted
#: attribute path names a method on a class.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("api.resolve", "repro.api.resolver", "resolve"),
    ("api.execute", "repro.api.execute", "execute"),
    ("ir.compile", "repro.ir.compiler", "compile_program"),
    ("ir.analyze", "repro.ir.program", "analyze_coded_stream"),
    ("tuning.tune", "repro.tuning.search", "tune"),
    ("tuning.bound", "repro.ir.program", "Program.critical_path_many"),
    ("runtime.batch", "repro.runtime.batch", "simulate_resolved_batch"),
    ("runtime.mc", "repro.runtime.scenario", "run_scenario"),
    ("algorithms.ge2bnd", "repro.algorithms.svd", "ge2bnd"),
    ("algorithms.bnd2bd", "repro.algorithms.bnd2bd", "band_to_bidiagonal"),
    ("algorithms.bd2val", "repro.algorithms.bd2val", "bidiagonal_singular_values"),
    ("campaign.expand", "repro.campaign.spec", "CampaignSpec.expand"),
    ("campaign.expand", "repro.campaign.spec", "build_chunks"),
) + tuple(
    ("campaign.store", "repro.campaign.store", f"ResultStore.{method}")
    for method in ("register", "requeue_interrupted", "requeue_quarantined",
                   "mark_running", "mark_done", "charge_failure", "release",
                   "set_meta")
)

#: Event-loop entry points, counted (tasks simulated) but not spanned, so
#: their time stays in the batch / Monte-Carlo span that called them.  The
#: batch entry also returns deduplicated schedules, which simulate nothing.
LOOP_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.runtime.batch", "_PreparedBatch.schedule"),
    ("repro.runtime.scenario", "ScenarioReplayer.replay"),
    ("repro.runtime.engine", "SimulationEngine.run"),
)
_BATCH_SIMULATED = "engine.memo.batch.simulated"


def _resolve_target(module_name: str, path: str):
    """(owner object, attribute name, original) for one target, or None."""
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
        owner, attr, None
    )
    if original is None:
        return None
    return owner, attr, original


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, op id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.op_id = -1
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._loop_depth = 0
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.op_id))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)
            self._observe(name, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _loop_wrapper(self, fn):
        from repro.obs.metrics import REGISTRY

        counts = self.counts

        def wrapper(owner, *args, **kwargs):
            outermost = self._loop_depth == 0
            before = REGISTRY.counter(_BATCH_SIMULATED)
            self._loop_depth += 1
            try:
                out = fn(owner, *args, **kwargs)
            finally:
                self._loop_depth -= 1
            if outermost:
                program = getattr(owner, "program", None)
                if program is None:  # SimulationEngine.run(program, ...)
                    program = args[0]
                deduped = (
                    type(owner).__name__ == "_PreparedBatch"
                    and REGISTRY.counter(_BATCH_SIMULATED) == before
                )
                if not deduped:
                    counts["runtime.tasks_simulated"] += len(program)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name: str, out) -> None:
        counts = self.counts
        if name == "ir.compile":
            counts["ir.programs_compiled"] += 1
            counts["ir.ops_compiled"] += len(out)
            counts["ir.edges"] += out.n_edges
        elif name == "tuning.tune":
            counts["tuning.candidates"] += out.n_candidates
            counts["tuning.evaluated"] += out.n_evaluated
            counts["tuning.pruned"] += out.n_pruned

    # ------------------------------------------------------------------ #
    # Install / remove
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every target, wherever a ``repro`` module bound it."""
        if self._patches:
            return
        replacements: Dict[int, object] = {}
        for name, module_name, path in SPAN_TARGETS:
            found = _resolve_target(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            wrapper = self._span_wrapper(name, original)
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                replacements[id(original)] = (original, wrapper)
        for module_name, path in LOOP_TARGETS:
            found = _resolve_target(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            self._patch(owner, attr, self._loop_wrapper(original))
        # Module-level functions are also bound by ``from x import f`` in
        # other modules; rebind those names too.
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Restore every original, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def times(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(inclusive, self) seconds per span name, summed over all spans.

        Inclusive time counts only the outermost span of a name, so a
        function that calls itself is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _op) in enumerate(self.spans):
            own[name] += end - start - child[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        return inclusive, own

    def dump(self, path: str) -> None:
        """Write the spans out (one JSON object per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def memo_counts(delta: Dict[str, float]) -> Dict[str, float]:
    """Batch and memo counters out of a ``REGISTRY.delta_since`` dict."""
    hits = sum(v for k, v in delta.items()
               if k.startswith("engine.memo.") and k.endswith(".hits"))
    lookups = hits + sum(v for k, v in delta.items()
                         if k.startswith("engine.memo.") and k.endswith(".misses"))
    return {
        "runtime.batch.simulated": delta.get("engine.memo.batch.simulated", 0),
        "runtime.batch.deduped": delta.get("engine.memo.batch.deduped", 0),
        "runtime.batch.pruned": delta.get("engine.memo.batch.pruned", 0),
        "runtime.draws": delta.get("engine.mc.draws", 0),
        "memo.hits": hits,
        "memo.lookups": lookups,
    }


def per_layer_metrics(
    recorder: Recorder,
    n_ops: int,
    op_seconds_total: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-operation per-layer metrics from ``n_ops`` traced operations.

    ``extra`` carries sums the recorder cannot see: registry deltas
    (:func:`memo_counts`), campaign store figures, flops.
    """
    inclusive, own = recorder.times()
    sums: Dict[str, float] = defaultdict(float, recorder.counts)
    for key, value in extra.items():
        sums[key] += value
    out: Dict[str, float] = {}

    def per_op(value: float) -> float:
        return value / n_ops

    compile_s = inclusive.get("ir.compile", 0.0)
    analyze_s = inclusive.get("ir.analyze", 0.0)
    out["api.resolve_s"] = per_op(inclusive.get("api.resolve", 0.0))
    out["ir.compile_s"] = per_op(compile_s)
    out["ir.analyze_s"] = per_op(analyze_s)
    out["ir.record_s"] = per_op(compile_s - analyze_s)
    for key in ("ir.programs_compiled", "ir.ops_compiled", "ir.edges",
                "tuning.candidates", "tuning.evaluated", "tuning.pruned",
                "runtime.tasks_simulated", "runtime.draws",
                "runtime.batch.simulated", "runtime.batch.deduped",
                "runtime.batch.pruned", "algorithms.flops",
                "campaign.worker_s", "campaign.retries", "campaign.respawns"):
        out[key] = per_op(sums[key])
    out["tuning.compile_yield"] = (
        sums["tuning.evaluated"] / sums["ir.programs_compiled"]
        if sums["tuning.evaluated"] and sums["ir.programs_compiled"] else 0.0
    )
    out["tuning.bound_s"] = per_op(inclusive.get("tuning.bound", 0.0))
    batch_s = own.get("runtime.batch", 0.0)
    mc_s = own.get("runtime.mc", 0.0)
    out["runtime.batch_s"] = per_op(batch_s)
    out["runtime.mc_s"] = per_op(mc_s)
    tasks = sums["runtime.tasks_simulated"]
    out["runtime.us_per_task"] = 1e6 * (batch_s + mc_s) / tasks if tasks else 0.0
    out["runtime.memo_hit_ratio"] = (
        sums["memo.hits"] / sums["memo.lookups"] if sums["memo.lookups"] else 0.0
    )
    out["algorithms.ge2bnd_s"] = per_op(own.get("algorithms.ge2bnd", 0.0))
    out["algorithms.bnd2bd_s"] = per_op(own.get("algorithms.bnd2bd", 0.0))
    out["algorithms.bd2val_s"] = per_op(own.get("algorithms.bd2val", 0.0))
    out["algorithms.check_s"] = per_op(own.get("api.execute", 0.0))
    expand_s = inclusive.get("campaign.expand", 0.0)
    store_s = inclusive.get("campaign.store", 0.0)
    out["campaign.expand_s"] = per_op(expand_s)
    out["campaign.store_s"] = per_op(store_s)
    if sums["campaign.worker_s"] or expand_s or store_s:
        out["campaign.overhead_s"] = per_op(
            op_seconds_total - expand_s - store_s - sums["campaign.worker_s"]
        )
    else:
        out["campaign.overhead_s"] = 0.0
    return out
