"""Fusion-quality metrics and block-matching for recovery experiments.

All four image metrics compare an estimate against a reference of the same
shape: reconstruction SNR (dB, higher better), band-averaged Pearson cross
correlation (1 best), mean spectral angle (radians, 0 best), and the
dimensionless relative global error ERGAS (0 best).  All four are read from
one pass over the pair, which makes no full-size temporary for a column-major
(band-major) pair, the layout of the tensor file and of ``btd_reconstruct``,
nor for a row-major one.  A pair holding a NaN or an Inf is refused.
``match_blocks`` resolves the permutation/scaling ambiguity between two
factor sets before comparing them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import UndefinedMetricError, UsageError
from .model import BtdFactors, spatial_map_matrix
from .tensor_ops import _check_real, _check_tensor3

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


# Bytes per operand in one chunk: a chunk of each input and the two
# temporaries of its size take 2 MB, which stays in one core's L2 cache.
_CHUNK_BYTES = 1 << 19
# The range each tensor's largest squared pixel norm must lie in for the sweep
# to run on the pair as given.  The margin past the normal range keeps the sums
# over pixels from overflowing and the error energy of a close estimate from
# going subnormal.
_NORM_SQ_RANGE = (2.0**-500, 2.0**500)


@dataclass(frozen=True)
class _Sums:
    """Everything the four metrics need, accumulated in one pass.

    Per band k: the reference mean, the error energy ``sum (ref - est)^2``
    and the mean-centred sums ``sxx``, ``syy``, ``sxy``; over all pixels:
    ``||ref||^2``, the sum of the spectral angles and how many pixels they
    cover.  The sums may be those of ``2^-a ref`` and ``2^-b est``, which
    leaves CC and SAM unchanged; the error energy is then that of
    ``2^-c (ref - est)`` with ``c = a + err_exp``, so the error's share of
    ``||ref||^2`` is ``err_sq / ref_sq`` times ``4^err_exp``.
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
    err_exp: int


def _sweep(ref, est, err_exps=(0, 0)) -> _Sums:
    """Every pixel's norm, then one walk over ``ref``/``est`` in chunks of whole bands.

    The pair is read as (pixels, bands) views in ``ref``'s own order: in
    place for a column-major pair (the layout of the tensor file,
    ``btd_reconstruct`` and ``mode_product``), each band one contiguous
    vector, and for a row-major pair, each band one strided vector.  A pair
    in any other layout, or whose ``est`` is not in ``ref``'s order, is first
    copied to that order (column-major unless ``ref`` is row-major).  Each
    chunk adds to its pixels' squared chords between the unit fibers of
    ``ref`` and ``est``, and gives its bands' error energy, means and
    mean-centred sums in one pass, since no band spans two chunks.  The data
    are first shifted by the first pixel's spectrum, so that a constant band
    gives exactly zero.

    A pair in which either tensor's squared pixel norms overflow or come
    near the subnormal range is swept again with ``ref`` scaled by ``2^-a``
    and ``est`` by ``2^-b``, the powers of two that bring each one's largest
    entry into [1/2, 1).  The error is taken at the larger of the two
    scales, ``2^-c`` with ``c = max(a, b)``: each chunk of ``ref`` is
    multiplied by ``2^(a - c)`` and of ``est`` by ``2^(b - c)`` before the
    difference (``err_exps``, which is ``(0, 0)`` for a pair swept as it is).
    These scalings are exact, so the metrics of ``2^k ref`` and ``2^k est``
    are those of ``ref`` and ``est``, and a scale gap between ``ref`` and
    ``est`` does not lose the smaller one.  A pair with a NaN or an Inf
    entry, whose squared pixel norms are NaN or Inf, is refused with
    UsageError naming the tensor that holds it.
    """
    ref = _check_tensor3(ref, "ref")
    est = _check_tensor3(est, "est")
    if ref.shape != est.shape:
        raise UsageError(f"shape mismatch: ref {ref.shape} vs est {est.shape}")
    i, j, k = ref.shape
    n = i * j
    order = "C" if ref.flags.c_contiguous and not ref.flags.f_contiguous else "F"
    xs, ys = (np.asarray(t, order=order).reshape(n, k, order=order) for t in (ref, est))
    nx2, ny2 = np.einsum("pk,pk->p", xs, xs), np.einsum("pk,pk->p", ys, ys)
    lo, hi = _NORM_SQ_RANGE
    # a tensor whose squared norms all underflow to 0 is out of range unless it is zero
    if any(not lo <= m <= hi and (m > 0 or v.any()) for m, v in ((nx2.max(), xs), (ny2.max(), ys))):
        tops = float(np.abs(ref).max()), float(np.abs(est).max())
        for name, top in zip(("ref", "est"), tops):
            if not top < math.inf:
                raise UsageError(f"{name} has non-finite entries (NaN or Inf)")
        # an all-zero tensor takes the other's scale; each tensor of a scaled
        # pair has its largest squared norm in [1/4, k], so it is not scaled again
        a, b = (math.frexp(t or max(tops))[1] for t in tops)
        c = max(a, b)
        return _sweep(np.ldexp(ref, -a), np.ldexp(est, -b), (a - c, b - c))
    # spectral angle 2 arcsin(||u - v|| / 2) of the unit fibers u, v: it
    # equals arccos(<u, v>) but stays exact at 0 for identical fibers and
    # accurate for small angles; pixels with a zero fiber are skipped.  The
    # fibers are divided by their norms: multiplying by the reciprocals
    # rounds twice, which costs digits near an angle of pi
    keep = (nx2 > 0) & (ny2 > 0)
    nx, ny = np.sqrt(np.where(keep, nx2, 1.0)), np.sqrt(np.where(keep, ny2, 1.0))
    step = min(k, max(1, _CHUNK_BYTES // (8 * n)))
    s_buf, t_buf = (np.empty((step, n)) for _ in range(2))
    x0, y0 = xs[0][:, None], ys[0][:, None]
    mean, err_sq, sxx, syy, sxy = (np.empty(k) for _ in range(5))
    chord = np.zeros(n)
    for b0 in range(0, k, step):
        bs = slice(b0, min(b0 + step, k))
        x, y = xs[:, bs].T, ys[:, bs].T  # (bands, pixels)
        s, t = s_buf[: bs.stop - b0], t_buf[: bs.stop - b0]
        np.ldexp(x, err_exps[0], out=s)
        s -= np.ldexp(y, err_exps[1], out=t)
        err_sq[bs] = np.einsum("kp,kp->k", s, s)
        np.divide(x, nx, out=s)
        s -= np.divide(y, ny, out=t)
        chord += np.einsum("kp,kp->p", s, s)

        np.subtract(x, x0[bs], out=s)
        np.subtract(y, y0[bs], out=t)
        mean[bs] = s.sum(axis=1) / n
        s -= mean[bs, None]
        t -= (t.sum(axis=1) / n)[:, None]
        sxx[bs] = np.einsum("kp,kp->k", s, s)
        syy[bs] = np.einsum("kp,kp->k", t, t)
        sxy[bs] = np.einsum("kp,kp->k", s, t)
    half_chord = 0.5 * np.sqrt(chord[keep])
    return _Sums(
        pixels=n, ref_sq=float(nx2.sum()), ref_mean=x0[:, 0] + mean, err_sq=err_sq,
        sxx=sxx, syy=syy, sxy=sxy,
        angle_sum=float(np.sum(2.0 * np.arcsin(np.minimum(half_chord, 1.0)))),
        angle_count=int(np.count_nonzero(keep)), err_exp=-err_exps[0],
    )


def _r_snr(s: _Sums) -> float:
    if s.ref_sq == 0.0:
        raise UsageError("reference tensor is identically zero")
    den = float(s.err_sq.sum())
    if den == 0.0:
        return R_SNR_CAP_DB
    q = s.ref_sq / den
    # the ratio is q / 4^err_exp; past the normal range, add the exponent to the log
    ratio = math.ldexp(q, -2 * s.err_exp)
    db = (math.log10(ratio) if ratio >= sys.float_info.min
          else math.log10(q) - 2 * s.err_exp * math.log10(2.0))
    return min(10.0 * db, R_SNR_CAP_DB)


def _sam(s: _Sums) -> float:
    if s.angle_count == 0:
        raise UndefinedMetricError("every spectral fiber is zero in ref or est")
    return s.angle_sum / s.angle_count


def _cc(s: _Sums) -> float:
    flat = np.flatnonzero(s.sxx == 0.0)
    if flat.size:
        raise UndefinedMetricError(f"reference band {flat[0]} is constant")
    flat_est = s.syy == 0.0
    # sxy / (sqrt(sxx) sqrt(syy)) can round to 1 + 2^-52 for est = ref; this
    # is exactly 1 there and -1 for est = -ref, and forms no sxx / syy, which
    # can overflow
    vals = np.sign(s.sxy) * np.sqrt((s.sxy / s.sxx) * (s.sxy / np.where(flat_est, 1.0, s.syy)))
    return float(np.mean(np.where(flat_est, 0.0, vals)))


def _ratio(d) -> float:
    d = _check_real(d, "d")
    if not 0 < d < math.inf:
        raise UsageError(f"d must be finite and > 0, got {d}")
    return d


def _ergas(s: _Sums, d: float) -> float:
    mu = s.ref_mean
    if np.any(mu == 0.0):
        raise UndefinedMetricError("a reference band has zero mean")
    mse = s.err_sq / s.pixels
    try:
        return math.ldexp(100.0 / d * math.sqrt(np.mean(mse / mu**2)), s.err_exp)
    except OverflowError:
        return math.inf


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
    if truth.dims[:2] != est.dims[:2]:
        raise UsageError(f"spatial dims differ: {truth.dims[:2]} vs {est.dims[:2]}")
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
