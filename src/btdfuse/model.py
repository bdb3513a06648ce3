"""Block-term factor model: containers, reconstruction, and identifiability checks.

A rank-(L_r, L_r, 1) block-term model of an ``(I, J, K)`` tensor is

    X[i, j, k] = sum_r (A_r @ B_r.T)[i, j] * C[k, r]

with ``A = [A_1 ... A_R]`` (``I x sum(L)``), ``B`` alike, and ``C`` holding one
spectral column per block.  The special case of unit block widths is the
classic CP model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .tensor_ops import _check_int, _check_matrix, _check_mode, pw_khatri_rao

__all__ = [
    "RankSpec",
    "BtdFactors",
    "AbundanceSet",
    "CheckResult",
    "btd_reconstruct",
    "btd_unfold_direct",
    "spatial_map_matrix",
    "degrade_factors",
    "check_btd_identifiability",
    "check_coupled_identifiability",
    "abundances",
]


@dataclass(frozen=True)
class RankSpec:
    """Number of blocks ``R`` and per-block ranks ``L`` (length R).

    ``RankSpec(R, L=1)`` broadcasts a scalar L to all blocks; unit ranks give
    the CP model with R components.
    """

    R: int
    L: tuple[int, ...] = field(default=(1,))

    def __init__(self, R: int, L=1):
        object.__setattr__(self, "R", _check_int(R, "R", 1))
        if np.iterable(L):
            widths = tuple(_check_int(w, "L", 1) for w in L)
        else:  # a scalar L is every block's, checked once and then broadcast
            try:
                widths = (_check_int(L, "L", 1),) * self.R
            except (OverflowError, MemoryError):
                raise UsageError(
                    f"R is too large to give each block a rank, got {self.R}") from None
        object.__setattr__(self, "L", widths)
        if len(self.L) != self.R:
            raise UsageError(f"need {self.R} block ranks, got {len(self.L)}")

    @property
    def total(self) -> int:
        """Total number of factor columns, sum of the block ranks."""
        return sum(self.L)

    @property
    def uniform_L(self) -> int | None:
        """The common block rank if all blocks share one, else None."""
        return self.L[0] if len(set(self.L)) == 1 else None

    def block_slice(self, r: int) -> slice:
        start = sum(self.L[:r])
        return slice(start, start + self.L[r])


@dataclass
class BtdFactors:
    """Factor container ``(A, B, C)`` for a block-term model.

    A : ndarray, (I, sum(L));  B : ndarray, (J, sum(L));  C : ndarray, (K, R).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    rank: RankSpec

    def __post_init__(self):
        for name in "ABC":
            setattr(self, name, _check_matrix(getattr(self, name), f"factor {name}"))
        if self.A.shape[1] != self.rank.total or self.B.shape[1] != self.rank.total:
            raise UsageError(
                f"A and B need {self.rank.total} columns, got {self.A.shape[1]} and {self.B.shape[1]}"
            )
        if self.C.shape[1] != self.rank.R:
            raise UsageError(f"C needs {self.rank.R} columns, got {self.C.shape[1]}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.A.shape[0], self.B.shape[0], self.C.shape[0])

    def is_nonnegative(self) -> bool:
        return bool((self.A >= 0).all() and (self.B >= 0).all() and (self.C >= 0).all())

    def copy(self) -> "BtdFactors":
        return BtdFactors(self.A.copy(), self.B.copy(), self.C.copy(), self.rank)


@dataclass
class AbundanceSet:
    """Per-block spatial maps: column r of ``S`` is ``vec(A_r @ B_r.T)``."""

    S: np.ndarray
    spatial_dims: tuple[int, int]


@dataclass(frozen=True)
class CheckResult:
    """Boolean-valued identifiability verdict with the clauses that failed."""

    ok: bool
    failed_clauses: list[str]

    def __bool__(self) -> bool:
        return self.ok


def btd_reconstruct(f: BtdFactors) -> np.ndarray:
    """Dense ``(I, J, K)`` tensor of the block-term model, column-major.

    Index i runs fastest, then j, then k (band-major, the tensor file's
    layout), so each band is one contiguous vector and ``write_tensor``
    writes the tensor without a copy.
    """
    i, j, k = f.dims
    return (f.C @ spatial_map_matrix(f).T).reshape(k, j, i).transpose(2, 1, 0)


def spatial_map_matrix(f: BtdFactors) -> np.ndarray:
    """Matrix whose column r is ``vec(A_r @ B_r.T)``, shape (I*J, R)."""
    return _block_maps(f.A, f.B, f.rank)


def _partition(rank: RankSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each factor column's ``(block, place within block)``, two index arrays of length sum(L).

    ``_stack(m, rank)[block, :, place].T`` gives ``m`` back, and a batched
    product over the stacked blocks is gathered to factor columns the same way.
    """
    block = np.repeat(np.arange(rank.R), rank.L)
    starts = np.cumsum(rank.L) - rank.L
    return block, np.arange(rank.total) - starts[block]


def _stack(m: np.ndarray, rank: RankSpec) -> np.ndarray:
    """The column blocks of ``m`` as an (R, rows, max L) array, zero past each block's width."""
    block, place = _partition(rank)
    out = np.zeros((rank.R, m.shape[0], max(rank.L)))
    out[block, :, place] = m.T
    return out


def _block_maps(a: np.ndarray, b: np.ndarray, rank: RankSpec) -> np.ndarray:
    """``[vec(a_r @ b_r.T)]_r`` over the column blocks of ``rank``, shape (rows(a)*rows(b), R).

    One batched product ``b_r @ a_r.T`` of the stacked blocks, to which the
    zero padding adds nothing; block r's (rows(b), rows(a)) map is row r of
    the result in row-major order, which is ``vec(a_r @ b_r.T)``.
    """
    maps = _stack(b, rank) @ _stack(a, rank).transpose(0, 2, 1)
    return maps.reshape(rank.R, -1).T


def btd_unfold_direct(f: BtdFactors, mode: int) -> np.ndarray:
    """Mode-n unfolding computed directly from the factors.

    mode 1: ``pw_khatri_rao(C, B) @ A.T``; mode 2: ``pw_khatri_rao(C, A) @ B.T``;
    mode 3: ``[vec(A_r B_r^T)]_r @ C.T``.  Matches ``unfold(btd_reconstruct(f), mode)``.
    """
    mode = _check_mode(mode)
    if mode == 1:
        return pw_khatri_rao(f.C, f.B, f.rank.L) @ f.A.T
    if mode == 2:
        return pw_khatri_rao(f.C, f.A, f.rank.L) @ f.B.T
    return spatial_map_matrix(f) @ f.C.T


def degrade_factors(f: BtdFactors, ops) -> tuple[BtdFactors, BtdFactors]:
    """Factor forms of the degraded images.

    Returns ``(hsi_factors, msi_factors)`` where the HSI model is
    ``({P1 A_r}, {P2 B_r}, C)`` and the MSI model ``({A_r}, {B_r}, P3 C)``.
    Consistent with applying the degradation operators to the reconstruction.
    """
    p1, p2, p3 = _require_ops_fit(f, ops)
    hsi_f = BtdFactors(p1 @ f.A, p2 @ f.B, f.C.copy(), f.rank)
    msi_f = BtdFactors(f.A.copy(), f.B.copy(), p3 @ f.C, f.rank)
    return hsi_f, msi_f


def _require_ops_fit(f: BtdFactors, ops) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(P1, P2, P3)`` of ``ops``, refused unless they act on an image of ``f.dims``."""
    fit = tuple(p.shape[1] for p in (ops.P1, ops.P2, ops.P3))
    if fit != f.dims:
        raise UsageError("operators expect an image of {}x{}x{}, factors give {}x{}x{}".format(
            *fit, *f.dims))
    return ops.P1, ops.P2, ops.P3


def check_btd_identifiability(I: int, J: int, K: int, rank: RankSpec) -> CheckResult:
    """Sufficient condition for essential uniqueness of a single-tensor block-term model.

    Requires ``I*J >= L^2 R`` and
    ``min(floor(I/L), R) + min(floor(J/L), R) + min(K, R) >= 2R + 2``.
    The second clause implies the first: with ``min(K, R) <= R`` it puts
    both spatial terms in [2, R], so ``floor(I/L) floor(J/L) >= 2R``.  The
    first is kept as the literature states it, and a failing first clause is
    always reported with the second.  The condition is sufficient, not
    necessary: a False verdict does not rule out recovery, so callers should
    treat it as advisory.
    """
    I, J, K = _check_int(I, "I"), _check_int(J, "J"), _check_int(K, "K")
    l, r = rank.uniform_L, rank.R
    if l is None:
        raise UsageError(
            f"identifiability conditions are stated for a uniform block rank, got L={rank.L}"
        )
    failed = []
    if I * J < l * l * r:
        failed.append(f"I*J = {I * J} < L^2*R = {l * l * r}")
    lhs = min(I // l, r) + min(J // l, r) + min(K, r)
    if lhs < 2 * r + 2:
        failed.append(f"min(I/L,R)+min(J/L,R)+min(K,R) = {lhs} < 2R+2 = {2 * r + 2}")
    return CheckResult(not failed, failed)


def check_coupled_identifiability(
    I_M: int, J_M: int, K_M: int, I_H: int, J_H: int, rank: RankSpec
) -> CheckResult:
    """Sufficient condition for recovering the fused image from an HSI/MSI pair.

    The MSI must satisfy the single-tensor condition (with its own dims and
    band count) and the HSI needs ``I_H*J_H >= R`` so the spectral factor is
    determined by least squares.  Advisory, as for
    :func:`check_btd_identifiability`, whose clauses it reports for the MSI.
    """
    I_M, J_M, K_M = _check_int(I_M, "I_M"), _check_int(J_M, "J_M"), _check_int(K_M, "K_M")
    I_H, J_H = _check_int(I_H, "I_H"), _check_int(J_H, "J_H")
    failed = check_btd_identifiability(I_M, J_M, K_M, rank).failed_clauses
    if I_H * J_H < rank.R:
        failed.append(f"I_H*J_H = {I_H * J_H} < R = {rank.R}")
    return CheckResult(not failed, failed)


def abundances(f: BtdFactors) -> AbundanceSet:
    """Stack the per-block maps ``vec(A_r B_r^T)`` into an (I*J, R) matrix."""
    return AbundanceSet(spatial_map_matrix(f), (f.A.shape[0], f.B.shape[0]))
