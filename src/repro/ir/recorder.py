"""Capture a tiled-algorithm driver run into a :class:`Program`.

:class:`ProgramRecorder` implements the
:class:`~repro.algorithms.executor.KernelExecutor` interface: instead of
touching numbers it appends one row of packed *columns* per kernel call —
kernel code, tile-index params, integer-coded read/write sets (tile halves,
see :data:`~repro.ir.program.DataItem`), owner tile and step label.  No
:class:`~repro.ir.program.Op` objects or frozensets are built while
recording: a million-op driver run costs a million small tuple appends, and
the object form materializes lazily only if a consumer asks for it.

The dependency edges are *not* inferred here; that is
:func:`~repro.ir.program.analyze_coded_stream`'s job when the stream is
finalized into a :class:`~repro.ir.program.Program`.

Data items are coded as dense integers: the upper half of tile ``(i, j)``
is ``i * q + j`` and the lower half is ``p * q + i * q + j``.  Integer
items index flat tables in the analyzer instead of hashing tuples, which
is where most of the compile-time win of the structure-of-arrays path
comes from.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.algorithms.executor import KernelExecutor
from repro.ir.program import OpColumns, Program, analyze_coded_stream
from repro.kernels.costs import KERNEL_CODES, KernelName

_GEQRT = KERNEL_CODES[KernelName.GEQRT]
_UNMQR = KERNEL_CODES[KernelName.UNMQR]
_TSQRT = KERNEL_CODES[KernelName.TSQRT]
_TSMQR = KERNEL_CODES[KernelName.TSMQR]
_TTQRT = KERNEL_CODES[KernelName.TTQRT]
_TTMQR = KERNEL_CODES[KernelName.TTMQR]
_GELQT = KERNEL_CODES[KernelName.GELQT]
_UNMLQ = KERNEL_CODES[KernelName.UNMLQ]
_TSLQT = KERNEL_CODES[KernelName.TSLQT]
_TSMLQ = KERNEL_CODES[KernelName.TSMLQ]
_TTLQT = KERNEL_CODES[KernelName.TTLQT]
_TTMLQ = KERNEL_CODES[KernelName.TTMLQ]


class ProgramRecorder(KernelExecutor):
    """Executor that records packed op columns instead of computing.

    Each kernel method appends one ``(kernel code, params, coded reads,
    coded writes, owner row, owner col, step)`` row; :meth:`program`
    finalizes the stream (dependency analysis + CSR build) into an
    immutable :class:`~repro.ir.program.Program`.
    """

    def __init__(self, p: int, q: int) -> None:
        if p < 1 or q < 1:
            raise ValueError(f"tile shape must be at least 1x1, got {p}x{q}")
        self._p = p
        self._q = q
        self._pq = p * q
        #: One row per recorded op (see class docstring for the layout).
        self._rows: List[Tuple] = []
        #: Panel step label (``QR(k)`` / ``LQ(k)``) stamped on recorded ops;
        #: the drivers update it as they go.
        self.current_step: str = ""

    @property
    def p(self) -> int:
        return self._p

    @property
    def q(self) -> int:
        return self._q

    def __len__(self) -> int:
        return len(self._rows)

    def columns(self) -> OpColumns:
        """The stream recorded so far, in structure-of-arrays form."""
        if self._rows:
            kernels, params, reads, writes, rows, cols, steps = zip(*self._rows)
        else:
            kernels = params = reads = writes = rows = cols = steps = ()
        return OpColumns(
            self._q, self._pq, kernels, params, reads, writes, rows, cols,
            steps,
        )

    def program(self, key: Optional[Tuple] = None) -> Program:
        """Finalize the recorded stream into an immutable :class:`Program`."""
        from contextlib import nullcontext

        from repro.obs.tracer import current_tracer

        tracer = current_tracer()
        with tracer.phase("dep-analysis") if tracer is not None else nullcontext():
            cols = self.columns()
            pred_lists, levels = analyze_coded_stream(
                cols.reads, cols.writes, 2 * self._pq
            )
            return Program.from_columns(cols, pred_lists, key=key, levels=levels)

    # ------------------------------------------------------------------ #
    # QR family.  Item codes: upper(i, j) = i*q + j, lower(i, j) = pq + i*q + j.
    # ------------------------------------------------------------------ #
    def geqrt(self, i: int, k: int) -> None:
        u = i * self._q + k
        self._rows.append(
            (_GEQRT, (i, k), (), (u, self._pq + u), i, k, self.current_step)
        )

    def unmqr(self, i: int, k: int, j: int) -> None:
        q = self._q
        pq = self._pq
        u = i * q + j
        self._rows.append(
            (_UNMQR, (i, k, j), (pq + i * q + k,), (u, pq + u), i, j,
             self.current_step)
        )

    def tsqrt(self, piv: int, i: int, k: int) -> None:
        q = self._q
        pq = self._pq
        u = i * q + k
        self._rows.append(
            (_TSQRT, (piv, i, k), (), (piv * q + k, u, pq + u), i, k,
             self.current_step)
        )

    def tsmqr(self, piv: int, i: int, k: int, j: int) -> None:
        q = self._q
        pq = self._pq
        uk = i * q + k
        up = piv * q + j
        ui = i * q + j
        self._rows.append(
            (_TSMQR, (piv, i, k, j), (uk, pq + uk),
             (up, pq + up, ui, pq + ui), i, j, self.current_step)
        )

    def ttqrt(self, piv: int, i: int, k: int) -> None:
        # The TT reflectors are stored in the *upper* (triangular) part of the
        # killed tile; the lower part still holds the GEQRT reflectors, which
        # is why TTQRT does not conflict with the UNMQR updates of row i.
        q = self._q
        self._rows.append(
            (_TTQRT, (piv, i, k), (), (piv * q + k, i * q + k), i, k,
             self.current_step)
        )

    def ttmqr(self, piv: int, i: int, k: int, j: int) -> None:
        q = self._q
        pq = self._pq
        up = piv * q + j
        ui = i * q + j
        self._rows.append(
            (_TTMQR, (piv, i, k, j), (i * q + k,),
             (up, pq + up, ui, pq + ui), i, j, self.current_step)
        )

    # ------------------------------------------------------------------ #
    # LQ family
    # ------------------------------------------------------------------ #
    def gelqt(self, k: int, j: int) -> None:
        u = k * self._q + j
        self._rows.append(
            (_GELQT, (k, j), (), (u, self._pq + u), k, j, self.current_step)
        )

    def unmlq(self, k: int, j: int, i: int) -> None:
        q = self._q
        pq = self._pq
        u = i * q + j
        self._rows.append(
            (_UNMLQ, (k, j, i), (k * q + j,), (u, pq + u), i, j,
             self.current_step)
        )

    def tslqt(self, piv: int, j: int, k: int) -> None:
        q = self._q
        pq = self._pq
        u = k * q + j
        self._rows.append(
            (_TSLQT, (piv, j, k), (), (pq + k * q + piv, u, pq + u), k, j,
             self.current_step)
        )

    def tsmlq(self, piv: int, j: int, k: int, i: int) -> None:
        q = self._q
        pq = self._pq
        uk = k * q + j
        up = i * q + piv
        ui = i * q + j
        self._rows.append(
            (_TSMLQ, (piv, j, k, i), (uk, pq + uk),
             (up, pq + up, ui, pq + ui), i, j, self.current_step)
        )

    def ttlqt(self, piv: int, j: int, k: int) -> None:
        # Mirror of ttqrt: the TT reflectors live in the *lower* part of the
        # killed tile, leaving the GELQT reflectors (upper part) untouched.
        q = self._q
        pq = self._pq
        self._rows.append(
            (_TTLQT, (piv, j, k), (), (pq + k * q + piv, pq + k * q + j),
             k, j, self.current_step)
        )

    def ttmlq(self, piv: int, j: int, k: int, i: int) -> None:
        q = self._q
        pq = self._pq
        up = i * q + piv
        ui = i * q + j
        self._rows.append(
            (_TTMLQ, (piv, j, k, i), (pq + k * q + j,),
             (up, pq + up, ui, pq + ui), i, j, self.current_step)
        )
