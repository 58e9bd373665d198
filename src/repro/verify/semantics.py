"""Independent per-kernel read/write-set semantics (the dataflow oracle).

This module re-derives, from the *mathematical definition* of each tile
kernel, which tile halves the kernel reads and which it read-modify-writes.
It deliberately shares no code with the compiler front-end
(:class:`~repro.ir.recorder.ProgramRecorder`) or the dependency analyzer
(:func:`~repro.ir.program.analyze_coded_stream`): the whole point is that
:func:`repro.verify.dataflow.verify_program` checks the compiled artifact
against a second, independent statement of the semantics, so a bug in the
recorder's coded access sets cannot silently vouch for itself.

Conventions (see :data:`repro.ir.program.DataItem`): a data item is one *half* of a
tile — ``("U", i, j)`` the upper (R/L-factor) part, ``("L", i, j)`` the
lower (reflector) part.  "Writes" are read-modify-writes (a kernel that
factorizes a tile in place both consumes and produces it), which is exactly
how the superscalar RAW/WAR rules interpret them.

The per-kernel semantics:

* ``GEQRT(i, k)`` — QR-factorize tile ``(i, k)`` in place: the R factor
  replaces the upper half, the Householder reflectors fill the lower half.
  Writes ``U(i,k)`` and ``L(i,k)``.
* ``UNMQR(i, k, j)`` — apply the reflectors of panel ``(i, k)`` to tile
  ``(i, j)``: reads ``L(i,k)``, rewrites both halves of ``(i, j)``.
* ``TSQRT(piv, i, k)`` — triangle-on-top-of-square factorization of the
  pivot's R factor and square tile ``(i, k)``: rewrites ``U(piv,k)`` and
  both halves of ``(i, k)`` (the TS reflectors fill the killed tile).
* ``TSMQR(piv, i, k, j)`` — apply the TS reflectors: reads both halves of
  ``(i, k)``, rewrites both halves of ``(piv, j)`` and ``(i, j)``.
* ``TTQRT(piv, i, k)`` — triangle-on-triangle factorization: rewrites
  ``U(piv,k)`` and ``U(i,k)`` only.  The TT reflectors are stored in the
  *upper* (triangular) part of the killed tile; its lower half still holds
  the GEQRT reflectors, which is why TTQRT does not conflict with the
  UNMQR updates of row ``i``.
* ``TTMQR(piv, i, k, j)`` — apply the TT reflectors: reads ``U(i,k)``,
  rewrites both halves of ``(piv, j)`` and ``(i, j)``.

The LQ family mirrors the QR family across the diagonal: reflectors of a
row panel live in the *upper* halves of its tiles, TT-LQ reflectors in the
*lower* half of the killed tile (the mirror of TTQRT's convention):

* ``GELQT(k, j)`` — LQ-factorize tile ``(k, j)``: writes both halves.
* ``UNMLQ(k, j, i)`` — apply: reads ``U(k,j)``, rewrites ``(i, j)``.
* ``TSLQT(piv, j, k)`` — rewrites ``L(k,piv)`` and both halves of ``(k,j)``.
* ``TSMLQ(piv, j, k, i)`` — reads both halves of ``(k, j)``, rewrites both
  halves of ``(i, piv)`` and ``(i, j)``.
* ``TTLQT(piv, j, k)`` — rewrites ``L(k,piv)`` and ``L(k,j)`` only.
* ``TTMLQ(piv, j, k, i)`` — reads ``L(k,j)``, rewrites both halves of
  ``(i, piv)`` and ``(i, j)``.

The *owner tile* (the tile whose block-cyclic owner runs the kernel under
owner-computes) is the updated tile for update kernels and the killed /
factorized tile for panel kernels; :func:`kernel_owner_tile` restates it
here so the verifier can also check the compiled owner columns.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Tuple

from repro.ir.program import DataItem
from repro.kernels.costs import KernelName

AccessSets = Tuple[FrozenSet[DataItem], FrozenSet[DataItem]]

#: Number of tile-index parameters each kernel takes.
KERNEL_ARITY: Dict[KernelName, int] = {
    KernelName.GEQRT: 2,
    KernelName.UNMQR: 3,
    KernelName.TSQRT: 3,
    KernelName.TSMQR: 4,
    KernelName.TTQRT: 3,
    KernelName.TTMQR: 4,
    KernelName.GELQT: 2,
    KernelName.UNMLQ: 3,
    KernelName.TSLQT: 3,
    KernelName.TSMLQ: 4,
    KernelName.TTLQT: 3,
    KernelName.TTMLQ: 4,
}


def _u(i: int, j: int) -> DataItem:
    return ("U", i, j)


def _l(i: int, j: int) -> DataItem:
    return ("L", i, j)


def _fs(*items: DataItem) -> FrozenSet[DataItem]:
    return frozenset(items)


def _geqrt(i: int, k: int) -> AccessSets:
    return _fs(), _fs(_u(i, k), _l(i, k))


def _unmqr(i: int, k: int, j: int) -> AccessSets:
    return _fs(_l(i, k)), _fs(_u(i, j), _l(i, j))


def _tsqrt(piv: int, i: int, k: int) -> AccessSets:
    return _fs(), _fs(_u(piv, k), _u(i, k), _l(i, k))


def _tsmqr(piv: int, i: int, k: int, j: int) -> AccessSets:
    return (
        _fs(_u(i, k), _l(i, k)),
        _fs(_u(piv, j), _l(piv, j), _u(i, j), _l(i, j)),
    )


def _ttqrt(piv: int, i: int, k: int) -> AccessSets:
    return _fs(), _fs(_u(piv, k), _u(i, k))


def _ttmqr(piv: int, i: int, k: int, j: int) -> AccessSets:
    return (
        _fs(_u(i, k)),
        _fs(_u(piv, j), _l(piv, j), _u(i, j), _l(i, j)),
    )


def _gelqt(k: int, j: int) -> AccessSets:
    return _fs(), _fs(_u(k, j), _l(k, j))


def _unmlq(k: int, j: int, i: int) -> AccessSets:
    return _fs(_u(k, j)), _fs(_u(i, j), _l(i, j))


def _tslqt(piv: int, j: int, k: int) -> AccessSets:
    return _fs(), _fs(_l(k, piv), _u(k, j), _l(k, j))


def _tsmlq(piv: int, j: int, k: int, i: int) -> AccessSets:
    return (
        _fs(_u(k, j), _l(k, j)),
        _fs(_u(i, piv), _l(i, piv), _u(i, j), _l(i, j)),
    )


def _ttlqt(piv: int, j: int, k: int) -> AccessSets:
    return _fs(), _fs(_l(k, piv), _l(k, j))


def _ttmlq(piv: int, j: int, k: int, i: int) -> AccessSets:
    return (
        _fs(_l(k, j)),
        _fs(_u(i, piv), _l(i, piv), _u(i, j), _l(i, j)),
    )


_SEMANTICS: Dict[KernelName, Callable[..., AccessSets]] = {
    KernelName.GEQRT: _geqrt,
    KernelName.UNMQR: _unmqr,
    KernelName.TSQRT: _tsqrt,
    KernelName.TSMQR: _tsmqr,
    KernelName.TTQRT: _ttqrt,
    KernelName.TTMQR: _ttmqr,
    KernelName.GELQT: _gelqt,
    KernelName.UNMLQ: _unmlq,
    KernelName.TSLQT: _tslqt,
    KernelName.TSMLQ: _tsmlq,
    KernelName.TTLQT: _ttlqt,
    KernelName.TTMLQ: _ttmlq,
}


def kernel_access_sets(
    kernel: KernelName, params: Tuple[int, ...]
) -> AccessSets:
    """``(reads, writes)`` of one kernel instance, per the oracle semantics.

    Raises :class:`ValueError` on an unknown kernel or wrong parameter
    arity — a malformed op is itself a verification failure, reported by
    the caller.
    """
    fn = _SEMANTICS.get(KernelName(kernel))
    if fn is None:  # pragma: no cover - KernelName() already rejects
        raise ValueError(f"unknown kernel {kernel!r}")
    expected = KERNEL_ARITY[KernelName(kernel)]
    if len(params) != expected:
        raise ValueError(
            f"{KernelName(kernel).value} takes {expected} tile indices, "
            f"got {len(params)}: {params!r}"
        )
    return fn(*params)


def kernel_owner_tile(
    kernel: KernelName, params: Tuple[int, ...]
) -> Tuple[int, int]:
    """Owner tile of one kernel instance under the owner-computes rule.

    Panel kernels run on the owner of the factorized / killed tile; update
    kernels on the owner of the updated tile.
    """
    k = KernelName(kernel)
    expected = KERNEL_ARITY[k]
    if len(params) != expected:
        raise ValueError(
            f"{k.value} takes {expected} tile indices, got {len(params)}: "
            f"{params!r}"
        )
    if k is KernelName.GEQRT:
        i, col = params
        return (i, col)
    if k is KernelName.UNMQR:
        i, _k, j = params
        return (i, j)
    if k in (KernelName.TSQRT, KernelName.TTQRT):
        _piv, i, col = params
        return (i, col)
    if k in (KernelName.TSMQR, KernelName.TTMQR):
        _piv, i, _k, j = params
        return (i, j)
    if k is KernelName.GELQT:
        row, j = params
        return (row, j)
    if k is KernelName.UNMLQ:
        _k, j, i = params
        return (i, j)
    if k in (KernelName.TSLQT, KernelName.TTLQT):
        _piv, j, row = params
        return (row, j)
    # TSMLQ / TTMLQ
    _piv, j, _k, i = params
    return (i, j)
