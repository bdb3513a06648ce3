"""Fusion-quality metrics and block-matching for recovery experiments.

All four image metrics compare an estimate against a reference of the same
shape: reconstruction SNR (dB, higher better), band-averaged Pearson cross
correlation (1 best), mean spectral angle (radians, 0 best), and the
dimensionless relative global error ERGAS (0 best).  ``match_blocks``
resolves the permutation/scaling ambiguity between two factor sets before
comparing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError, UsageError
from .model import BtdFactors, spatial_map_matrix
from .tensor_ops import _check_tensor3, frob_norm

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
        return {
            "r_snr_db": self.r_snr_db,
            "cc": self.cc,
            "sam_rad": self.sam_rad,
            "ergas": self.ergas,
            "down_ratio": self.down_ratio,
        }


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


def r_snr(ref, est) -> float:
    """``10 log10(||ref||^2 / ||ref - est||^2)``, capped at 300 dB."""
    ref, est = _pair(ref, est)
    num = frob_norm(ref) ** 2
    if num == 0.0:
        raise UsageError("reference tensor is identically zero")
    den = frob_norm(ref - est) ** 2
    if den == 0.0:
        return R_SNR_CAP_DB
    return min(10.0 * math.log10(num / den), R_SNR_CAP_DB)


def sam(ref, est) -> float:
    """Mean angle between the spectral fibers, in radians.

    Pixels where either fiber has zero norm are skipped; if that removes
    every pixel the metric is undefined.
    """
    ref, est = _pair(ref, est)
    n_ref = np.sqrt(np.einsum("ijk,ijk->ij", ref, ref))
    n_est = np.sqrt(np.einsum("ijk,ijk->ij", est, est))
    keep = (n_ref > 0) & (n_est > 0)
    if not keep.any():
        raise UndefinedMetricError("every spectral fiber is zero in ref or est")
    u = ref[keep] / n_ref[keep][:, None]
    v = est[keep] / n_est[keep][:, None]
    # 2 arcsin(||u - v|| / 2) equals arccos(<u, v>) for unit vectors but
    # stays exact at 0 for identical fibers and accurate for small angles
    half_chord = 0.5 * np.linalg.norm(u - v, axis=-1)
    angles = 2.0 * np.arcsin(np.minimum(half_chord, 1.0))
    return float(np.mean(angles))


def cc(ref, est) -> float:
    """Mean over bands of the Pearson correlation between the band images.

    A constant estimated band contributes 0; a constant reference band makes
    the metric undefined.
    """
    ref, est = _pair(ref, est)
    vals = []
    for k in range(ref.shape[2]):
        x = ref[:, :, k].ravel()
        y = est[:, :, k].ravel()
        xc = x - x.mean()
        yc = y - y.mean()
        nx = np.linalg.norm(xc)
        ny = np.linalg.norm(yc)
        if nx == 0.0:
            raise UndefinedMetricError(f"reference band {k} is constant")
        vals.append(0.0 if ny == 0.0 else float(xc @ yc) / (nx * ny))
    return float(np.mean(vals))


def ergas(ref, est, d) -> float:
    """``100/d * sqrt(mean_k(RMSE_k^2 / mu_k^2))`` over bands k.

    ``d`` is the spatial downsampling ratio between the fused image and the
    low-resolution input; ``mu_k`` is the mean of reference band k.
    """
    ref, est = _pair(ref, est)
    d = float(d)
    if not d > 0:
        raise UsageError(f"d must be > 0, got {d}")
    mu = ref.mean(axis=(0, 1))
    if np.any(mu == 0.0):
        raise UndefinedMetricError("a reference band has zero mean")
    mse = np.mean((ref - est) ** 2, axis=(0, 1))
    return float(100.0 / d * math.sqrt(np.mean(mse / mu**2)))


def compute_report(ref, est, d) -> MetricsReport:
    """All four metrics in one report."""
    return MetricsReport(
        r_snr_db=r_snr(ref, est),
        cc=cc(ref, est),
        sam_rad=sam(ref, est),
        ergas=ergas(ref, est, d),
        down_ratio=float(d),
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
    inner = s_true.T @ s_est  # inner[t, e] = <S_t, S_hat_e>
    cost = np.empty((r, r))
    scale = np.ones((r, r))
    for e in range(r):
        for t in range(r):
            if sq_true[t] == 0.0:
                cost[e, t] = sq_est[e]
            else:
                scale[e, t] = inner[t, e] / sq_true[t]
                cost[e, t] = sq_est[e] - inner[t, e] ** 2 / sq_true[t]
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
