"""The dataflow verifier: an independent oracle over a Program's op stream.

:func:`verify_program` abstractly interprets a compiled
:class:`~repro.ir.program.Program` against the per-kernel read/write-set
semantics of :mod:`repro.verify.semantics` — a second, independent
statement of the tile-half access rules, sharing no code with
:func:`~repro.ir.program.analyze_coded_stream` — and recomputes the full
superscalar RAW/WAR edge set from scratch.  It then diffs that oracle
against the Program's stored CSR structure and reports:

* ``P-ACCESS-SET`` — an op's recorded read/write sets disagree with the
  kernel semantics (a recorder bug: wrong tile halves traced);
* ``P-OWNER-TILE`` — an op's owner-tile column disagrees with the
  owner-computes rule (tasks would be mapped to the wrong node);
* ``P-MISSING-EDGE`` — a RAW/WAR dependency the oracle derives is absent
  from the CSR: a **data race** — some schedule may run the two ops out
  of order and corrupt every downstream result;
* ``P-SPURIOUS-EDGE`` — a CSR edge the oracle cannot justify
  (over-synchronization: correct results but fake critical paths);
* ``P-USE-BEFORE-WRITE`` — an op reads a tile half no earlier op produced
  (the tiled algorithms only ever read reflectors/factors written by a
  previous kernel, so this always indicates a malformed stream);
* ``P-TOPOLOGY`` — CSR malformations: edges violating the insertion-order
  topology (``src >= dst``), unsorted or duplicated predecessor rows, or
  a successor CSR that is not the exact transpose of the predecessor CSR
  (the engine's event loop consumes the successor side);
* ``P-LEVELS`` — the cached topological level column disagrees with the
  levels recomputed from the CSR (the vectorized critical-path and
  bottom-level sweeps group ops by this column).

The verifier is O(ops + edges) pure Python; it is meant for the ``repro
verify`` CLI, the test suite and the opt-in ``REPRO_VERIFY=1`` hook, not
for the simulation hot path.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.program import DataItem, Program
from repro.verify.findings import (
    P_ACCESS_SET,
    P_LEVELS,
    P_MISSING_EDGE,
    P_OWNER_TILE,
    P_SPURIOUS_EDGE,
    P_TOPOLOGY,
    P_USE_BEFORE_WRITE,
    VerificationReport,
)
from repro.verify.semantics import kernel_access_sets, kernel_owner_tile


def _item_str(item: DataItem) -> str:
    half, i, j = item
    return f"{half}({i},{j})"


def verify_program(program: Program) -> VerificationReport:
    """Statically verify one compiled program; returns the finding report.

    Never raises on a defective program — every defect becomes a finding —
    so a mutated artifact reports its complete damage in one pass.
    """
    report = VerificationReport(subject=f"program[{program.key!r}]")
    n = len(program)
    ops = program.ops

    # ------------------------------------------------------------------ #
    # Pass 1: per-op access sets + owner tiles against the oracle, and the
    # oracle's own superscalar RAW/WAR edge recomputation.
    # ------------------------------------------------------------------ #
    oracle_preds: List[List[int]] = []
    last_writer: Dict[DataItem, int] = {}
    readers_since_write: Dict[DataItem, List[int]] = {}
    for op in ops:
        tid = op.index
        try:
            exp_reads, exp_writes = kernel_access_sets(op.kernel, op.params)
            exp_owner = kernel_owner_tile(op.kernel, op.params)
        except ValueError as exc:
            report.add(P_ACCESS_SET, str(exc), op=tid)
            oracle_preds.append([])
            continue
        report.checked += 2
        if op.reads != exp_reads or op.writes != exp_writes:
            report.add(
                P_ACCESS_SET,
                f"{op.kernel.value}{op.params} recorded "
                f"reads={{{', '.join(map(_item_str, sorted(op.reads)))}}} "
                f"writes={{{', '.join(map(_item_str, sorted(op.writes)))}}}, "
                f"semantics give "
                f"reads={{{', '.join(map(_item_str, sorted(exp_reads)))}}} "
                f"writes={{{', '.join(map(_item_str, sorted(exp_writes)))}}}",
                op=tid,
            )
        if op.owner_tile != exp_owner:
            report.add(
                P_OWNER_TILE,
                f"{op.kernel.value}{op.params} recorded owner tile "
                f"{op.owner_tile}, owner-computes rule gives {exp_owner}",
                op=tid,
            )
        # Use-before-write: a *pure* read of an item nothing produced yet.
        # (An initial write is fine — it consumes original matrix data.)
        for item in sorted(exp_reads):
            report.checked += 1
            if item not in last_writer:
                report.add(
                    P_USE_BEFORE_WRITE,
                    f"{op.kernel.value}{op.params} reads {_item_str(item)} "
                    "before any op writes it",
                    op=tid,
                )
        # The superscalar rules, restated from scratch: an op depends on
        # the last writer of everything it touches (RAW/WAW) and on every
        # reader-since-last-write of everything it writes (WAR).
        preds = set()
        for item in exp_reads | exp_writes:
            writer = last_writer.get(item)
            if writer is not None:
                preds.add(writer)
        for item in sorted(exp_writes):
            preds.update(readers_since_write.get(item, ()))
            last_writer[item] = tid
            readers_since_write[item] = []
        for item in sorted(exp_reads - exp_writes):
            readers_since_write.setdefault(item, []).append(tid)
        preds.discard(tid)
        oracle_preds.append(sorted(preds))

    # ------------------------------------------------------------------ #
    # Pass 2: diff the oracle edge set against the stored predecessor CSR.
    # ------------------------------------------------------------------ #
    for dst in range(n):
        row = list(program.predecessors(dst))
        report.checked += 1
        for pos, src in enumerate(row):
            if not (0 <= src < dst):
                report.add(
                    P_TOPOLOGY,
                    f"edge {src} -> {dst} violates insertion-order topology",
                    op=dst,
                    other=src,
                )
            if pos > 0 and row[pos - 1] >= src:
                report.add(
                    P_TOPOLOGY,
                    f"predecessor row of op {dst} is not strictly ascending "
                    f"at position {pos}: {row[pos - 1]} >= {src}",
                    op=dst,
                    other=src,
                )
        have = set(row)
        want = set(oracle_preds[dst])
        for src in sorted(want - have):
            report.add(
                P_MISSING_EDGE,
                f"data race: RAW/WAR dependency {src} -> {dst} "
                f"({ops[src].kernel.value}{ops[src].params} -> "
                f"{ops[dst].kernel.value}{ops[dst].params}) is missing "
                "from the CSR",
                op=dst,
                other=src,
            )
        for src in sorted(have - want):
            report.add(
                P_SPURIOUS_EDGE,
                f"CSR edge {src} -> {dst} has no RAW/WAR justification",
                op=dst,
                other=src,
            )

    # ------------------------------------------------------------------ #
    # Pass 3: successor CSR must be the exact transpose of the pred CSR
    # (the engine's release loop walks the successor side).
    # ------------------------------------------------------------------ #
    succ_from_pred: List[List[int]] = [[] for _ in range(n)]
    for dst in range(n):
        for src in program.predecessors(dst):
            if 0 <= src < n:
                succ_from_pred[src].append(dst)
    for src in range(n):
        report.checked += 1
        stored = list(program.successors(src))
        if stored != succ_from_pred[src]:
            report.add(
                P_TOPOLOGY,
                f"successor row of op {src} is {stored}, transpose of the "
                f"predecessor CSR gives {succ_from_pred[src]}",
                op=src,
            )

    # ------------------------------------------------------------------ #
    # Pass 4: the cached level column must match a recomputation from the
    # stored CSR (the vectorized sweeps trust this grouping).
    # ------------------------------------------------------------------ #
    level = [0] * n
    for i in range(n):
        best = -1
        for src in program.predecessors(i):
            if 0 <= src < i and level[src] > best:
                best = level[src]
        level[i] = best + 1
    stored_levels = program.levels_np.tolist()
    report.checked += 1
    if stored_levels != level:
        bad = next(
            i for i in range(n) if stored_levels[i] != level[i]
        )
        report.add(
            P_LEVELS,
            f"cached topological level of op {bad} is {stored_levels[bad]}, "
            f"CSR recomputation gives {level[bad]}",
            op=bad,
        )
    return report
