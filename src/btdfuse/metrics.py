"""Fusion-quality metrics and block-matching for recovery experiments.

All four image metrics compare an estimate against a reference of the same
shape: reconstruction SNR (dB, higher better), band-averaged Pearson cross
correlation (1 best), mean spectral angle (radians, 0 best), and the
dimensionless relative global error ERGAS (0 best).  All four are read from
one cache-blocked pass over the pair, which makes no full-size temporary.
``match_blocks`` resolves the permutation/scaling ambiguity between two
factor sets before comparing them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import UndefinedMetricError, UsageError
from .model import BtdFactors, spatial_map_matrix
from .tensor_ops import _check_tensor3

__all__ = [
    "MetricsReport",
    "MatchResult",
    "r_snr",
    "sam",
    "cc",
    "ergas",
    "compute_report",
    "match_blocks",
]

R_SNR_CAP_DB = 300.0


@dataclass(frozen=True)
class MetricsReport:
    """The four fusion metrics plus the spatial ratio ERGAS was computed with."""

    r_snr_db: float
    cc: float
    sam_rad: float
    ergas: float
    down_ratio: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MatchResult:
    """Block correspondence between two factor sets.

    ``permutation[r]`` is the truth-block index assigned to estimated block r
    (0-based), ``scales[r]`` the least-squares scale on the truth map, and
    ``matched_error`` the residual after both corrections, normalized by the
    squared norm of the truth maps.
    """

    permutation: tuple
    scales: tuple
    matched_error: float


def _pair(ref, est):
    ref = _check_tensor3(ref, "ref")
    est = _check_tensor3(est, "est")
    if ref.shape != est.shape:
        raise UsageError(f"shape mismatch: ref {ref.shape} vs est {est.shape}")
    return ref, est


# Slab size in bytes per operand: the sweep's four slab-sized buffers (two
# pixel-major copies, two temporaries) then take 2 MB, which stays in one core's
# L2 cache.  Two columns of a 145 x 220 image.
_SLAB_BYTES = 1 << 19


@dataclass(frozen=True)
class _Sums:
    """Everything the four metrics need, accumulated in one pass.

    Per band k: the reference mean, the error energy ``sum (ref - est)^2``
    and the mean-centred sums ``sxx``, ``syy``, ``sxy``; over all pixels:
    ``||ref||^2``, the sum of the spectral angles and how many pixels they
    cover.
    """

    pixels: int
    ref_sq: float
    ref_mean: np.ndarray
    err_sq: np.ndarray
    sxx: np.ndarray
    syy: np.ndarray
    sxy: np.ndarray
    angle_sum: float
    angle_count: int


def _sweep(ref, est) -> _Sums:
    """Walk ``ref``/``est`` once in slabs of whole columns ``[:, j0:j1, :]``.

    Each slab is copied pixel-major (one row per spectral fiber) into
    cache-resident buffers, whatever the layout of the inputs.  The centred
    band sums are taken per slab and merged across slabs by the pairwise
    update of Chan, Golub & LeVeque (1983); the data are first shifted by the
    first pixel's spectrum, so a constant band gives exactly zero.
    """
    ref, est = _pair(ref, est)
    i, j, k = ref.shape
    cols = min(j, max(1, _SLAB_BYTES // (8 * i * k)))
    x_buf, y_buf, s_buf, t_buf = (np.empty((cols * i, k)) for _ in range(4))
    x0, y0 = ref[0, 0].copy(), est[0, 0].copy()
    n = 0
    mx, my = np.zeros(k), np.zeros(k)  # running means of the shifted bands
    sxx, syy, sxy, err_sq = (np.zeros(k) for _ in range(4))
    ref_sq = angle_sum = 0.0
    angle_count = 0
    for j0 in range(0, j, cols):
        j1 = min(j0 + cols, j)
        p = (j1 - j0) * i
        x, y, s, t = x_buf[:p], y_buf[:p], s_buf[:p], t_buf[:p]
        np.copyto(x.reshape(j1 - j0, i, k), ref[:, j0:j1].transpose(1, 0, 2))
        np.copyto(y.reshape(j1 - j0, i, k), est[:, j0:j1].transpose(1, 0, 2))

        np.subtract(x, y, out=s)
        err_sq += np.einsum("pk,pk->k", s, s)

        # spectral angle 2 arcsin(||u - v|| / 2) of the unit fibers u, v: it
        # equals arccos(<u, v>) but stays exact at 0 for identical fibers and
        # accurate for small angles; pixels with a zero fiber are skipped
        nx2 = np.einsum("pk,pk->p", x, x)
        ny2 = np.einsum("pk,pk->p", y, y)
        ref_sq += float(nx2.sum())
        keep = (nx2 > 0) & (ny2 > 0)
        np.divide(x, np.sqrt(np.where(keep, nx2, 1.0))[:, None], out=s)
        np.divide(y, np.sqrt(np.where(keep, ny2, 1.0))[:, None], out=t)
        s -= t
        half_chord = 0.5 * np.sqrt(np.einsum("pk,pk->p", s, s)[keep])
        angle_sum += float(np.sum(2.0 * np.arcsin(np.minimum(half_chord, 1.0))))
        angle_count += int(np.count_nonzero(keep))

        np.subtract(x, x0, out=s)
        np.subtract(y, y0, out=t)
        bx = s.sum(axis=0) / p
        by = t.sum(axis=0) / p
        s -= bx
        t -= by
        dx, dy = bx - mx, by - my
        w = n * p / (n + p)
        sxx += np.einsum("pk,pk->k", s, s) + w * dx * dx
        syy += np.einsum("pk,pk->k", t, t) + w * dy * dy
        sxy += np.einsum("pk,pk->k", s, t) + w * dx * dy
        mx += dx * (p / (n + p))
        my += dy * (p / (n + p))
        n += p
    return _Sums(
        pixels=n, ref_sq=ref_sq, ref_mean=x0 + mx, err_sq=err_sq,
        sxx=sxx, syy=syy, sxy=sxy, angle_sum=angle_sum, angle_count=angle_count,
    )


def _r_snr(s: _Sums) -> float:
    if s.ref_sq == 0.0:
        raise UsageError("reference tensor is identically zero")
    den = float(s.err_sq.sum())
    if den == 0.0:
        return R_SNR_CAP_DB
    return min(10.0 * math.log10(s.ref_sq / den), R_SNR_CAP_DB)


def _sam(s: _Sums) -> float:
    if s.angle_count == 0:
        raise UndefinedMetricError("every spectral fiber is zero in ref or est")
    return s.angle_sum / s.angle_count


def _cc(s: _Sums) -> float:
    flat = np.flatnonzero(s.sxx == 0.0)
    if flat.size:
        raise UndefinedMetricError(f"reference band {flat[0]} is constant")
    flat_est = s.syy == 0.0
    vals = s.sxy / (np.sqrt(s.sxx) * np.sqrt(np.where(flat_est, 1.0, s.syy)))
    return float(np.mean(np.where(flat_est, 0.0, vals)))


def _ratio(d) -> float:
    d = float(d)
    if not 0 < d < math.inf:
        raise UsageError(f"d must be finite and > 0, got {d}")
    return d


def _ergas(s: _Sums, d: float) -> float:
    mu = s.ref_mean
    if np.any(mu == 0.0):
        raise UndefinedMetricError("a reference band has zero mean")
    mse = s.err_sq / s.pixels
    return float(100.0 / d * math.sqrt(np.mean(mse / mu**2)))


def r_snr(ref, est) -> float:
    """``10 log10(||ref||^2 / ||ref - est||^2)``, capped at 300 dB."""
    return _r_snr(_sweep(ref, est))


def sam(ref, est) -> float:
    """Mean angle between the spectral fibers, in radians.

    Pixels where either fiber has zero norm are skipped; if that removes
    every pixel the metric is undefined.
    """
    return _sam(_sweep(ref, est))


def cc(ref, est) -> float:
    """Mean over bands of the Pearson correlation between the band images.

    A constant estimated band contributes 0; a constant reference band makes
    the metric undefined.
    """
    return _cc(_sweep(ref, est))


def ergas(ref, est, d) -> float:
    """``100/d * sqrt(mean_k(RMSE_k^2 / mu_k^2))`` over bands k.

    ``d`` is the spatial downsampling ratio between the fused image and the
    low-resolution input; ``mu_k`` is the mean of reference band k.
    """
    d = _ratio(d)
    return _ergas(_sweep(ref, est), d)


def compute_report(ref, est, d) -> MetricsReport:
    """All four metrics in one report, from one pass over the pair."""
    d = _ratio(d)
    s = _sweep(ref, est)
    return MetricsReport(
        r_snr_db=_r_snr(s),
        cc=_cc(s),
        sam_rad=_sam(s),
        ergas=_ergas(s, d),
        down_ratio=d,
    )


def match_blocks(truth: BtdFactors, est: BtdFactors) -> MatchResult:
    """Optimal block assignment between two factor sets' spatial maps.

    Minimizes ``sum_r ||S_perm(r) * scale_r - S_hat_r||_F^2`` over
    permutations and per-pair scales: the scale has a closed form per pair,
    and the assignment over the resulting R x R cost matrix is solved
    exactly.  The matched error is normalized by ``||S||_F^2`` of the truth.
    """
    # imported here: scipy.optimize costs about 0.3 s of start-up and only
    # this function needs it
    from scipy.optimize import linear_sum_assignment

    if truth.rank.R != est.rank.R:
        raise UsageError(f"block counts differ: {truth.rank.R} vs {est.rank.R}")
    s_true = spatial_map_matrix(truth)
    s_est = spatial_map_matrix(est)
    r = truth.rank.R
    sq_true = np.sum(s_true**2, axis=0)
    sq_est = np.sum(s_est**2, axis=0)
    inner = (s_true.T @ s_est).T  # inner[e, t] = <S_t, S_hat_e>
    # a zero truth map takes scale 1 and leaves the whole of ||S_hat_e||^2
    zero = sq_true == 0.0
    safe = np.where(zero, 1.0, sq_true)
    scale = np.where(zero, 1.0, inner / safe)
    cost = sq_est[:, None] - np.where(zero, 0.0, inner**2 / safe)
    rows, cols = linear_sum_assignment(cost)  # rows come back as 0..R-1 in order
    perm = tuple(int(c) for c in cols)
    scales = tuple(float(scale[e, perm[e]]) for e in range(r))
    total = max(float(cost[rows, cols].sum()), 0.0)
    denom = float(sq_true.sum())
    return MatchResult(
        permutation=perm,
        scales=scales,
        matched_error=total / denom if denom > 0 else total,
    )
