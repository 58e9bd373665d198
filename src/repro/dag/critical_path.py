"""Critical-path computation on compiled programs.

The critical path of a task DAG is the heaviest chain of dependent tasks,
using the Table-I kernel weights (units of ``nb^3 / 3`` flops).  It models
the execution time with unbounded resources and no communication — exactly
the quantity analysed in Section IV of the paper.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.ir.program import Op, Program


def critical_path_length(
    program: Program,
    weight_fn: Optional[Callable[[Op], float]] = None,
) -> float:
    """Length of the critical path of ``program``.

    ``weight_fn`` maps an op to its duration; the default uses the Table-I
    weight carried by the op (``nb^3 / 3`` flop units), which is what the
    paper's closed-form critical paths are expressed in.
    """
    return program.critical_path(weight_fn=weight_fn)


def critical_path_tasks(
    program: Program,
    weight_fn: Optional[Callable[[Op], float]] = None,
) -> List[Op]:
    """The ops on (one of) the critical path(s), in execution order.

    Useful for understanding *where* the time goes: e.g. for BIDIAG with a
    FLATTS tree the path is dominated by TSMQR chains, while with GREEDY it
    alternates short TTMQR chains of logarithmic depth.  Ties go to the
    earliest op: the first predecessor reaching the latest finish, and the
    first op reaching the overall makespan.
    """
    n = len(program)
    if n == 0:
        return []
    ops = program.ops
    if weight_fn is None:
        durations = program.weights_np.astype(float).tolist()
    else:
        durations = [weight_fn(op) for op in ops]
    indptr = program.pred_indptr_np.tolist()
    pred_ids = program.pred_ids_np.tolist()
    finish = [0.0] * n
    critical_pred = [-1] * n
    best_op, best = -1, -1.0
    for i in range(n):
        start, choice = 0.0, -1
        for pred in pred_ids[indptr[i]: indptr[i + 1]]:
            if finish[pred] > start:
                start, choice = finish[pred], pred
        end = start + durations[i]
        finish[i] = end
        critical_pred[i] = choice
        if end > best:
            best, best_op = end, i
    path: List[Op] = []
    cursor = best_op
    while cursor >= 0:
        path.append(ops[cursor])
        cursor = critical_pred[cursor]
    path.reverse()
    return path
