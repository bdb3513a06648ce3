"""Construct the spatial/spectral degradation operators and simulate an HSI/MSI pair.

The observation model is

    hsi = sri ×_1 P1 ×_2 P2        (separable blur + downsampling per axis)
    msi = sri ×_3 P3               (band selection/averaging)

with known operators.  ``P1``/``P2`` are products of a row-stochastic
truncated Gaussian blur and a pixel-selection matrix; ``P3`` defaults to
uniform averaging over contiguous band groups but can be loaded from CSV.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, UsageError
from .tensor_ops import _check_int, _check_real, frob_norm, mode_product

__all__ = [
    "DegradationOps",
    "NoiseSpec",
    "gaussian_blur_matrix",
    "downsample_matrix",
    "build_spatial_ops",
    "uniform_srf",
    "load_srf_csv",
    "make_degradation_ops",
    "apply_degradation",
    "add_noise",
]


@dataclass
class DegradationOps:
    """The three degradation operators plus the parameters they were built from.

    P1 : (I_H, I_M) operator for the first spatial axis.
    P2 : (J_H, J_M) operator for the second spatial axis.
    P3 : (K_M, K_H) spectral response.
    params : provenance (kernel_size, sigma, ratio, offset, srf_source).
    """

    P1: np.ndarray
    P2: np.ndarray
    P3: np.ndarray
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NoiseSpec:
    """Target SNR in dB (``math.inf`` disables noise) and the generator seed."""

    snr_db: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "snr_db", _check_real(self.snr_db, "snr_db"))
        if self.snr_db == -math.inf:
            raise UsageError(f"snr_db must be finite or +inf, got {self.snr_db}")
        object.__setattr__(self, "seed", _check_int(self.seed, "seed", 0))


def gaussian_blur_matrix(n: int, kernel_size: int, sigma: float) -> np.ndarray:
    """1-D truncated Gaussian blur as an ``n x n`` row-stochastic matrix.

    Entry (i, j) is ``exp(-d^2 / (2 sigma^2))`` at the offset ``d = j - i``
    where ``2|d| < kernel_size`` and 0 elsewhere, so weights falling outside
    the domain are dropped; each row is then divided by its sum.  As sigma
    goes to 0 the matrix is the identity, and so it is for any sigma whose
    ``2 sigma^2`` underflows to 0.
    """
    n, kernel_size = _check_int(n, "n", 1), _check_int(kernel_size, "kernel_size")
    if kernel_size % 2 == 0 or kernel_size < 1:
        raise UsageError(f"kernel_size must be odd and positive, got {kernel_size}")
    if kernel_size > 2 * n - 1:
        raise UsageError(f"kernel_size {kernel_size} exceeds 2n-1 = {2 * n - 1}")
    sigma = _check_real(sigma, "sigma")
    if not sigma > 0:
        raise UsageError(f"sigma must be > 0, got {sigma}")
    delta = np.arange(n) - np.arange(n)[:, None]  # delta[i, j] = j - i
    # a 2 sigma^2 that underflows to 0 is floored at the smallest positive
    # float, so every delta != 0 overflows to weight 0: the identity, the
    # sigma -> 0 limit, in place of 0/0 rows
    with np.errstate(over="ignore"):
        out = np.exp(-(delta * delta) / max(2.0 * sigma * sigma, math.ulp(0.0)))
    out[2 * np.abs(delta) >= kernel_size] = 0.0
    return out / out.sum(axis=1, keepdims=True)


def downsample_matrix(n: int, d: int, offset: int = 0) -> np.ndarray:
    """Selection matrix keeping every d-th index starting at ``offset`` (0-based).

    Shape is ``(ceil((n - offset) / d), n)``.
    """
    n, d, offset = _check_int(n, "n"), _check_int(d, "d"), _check_int(offset, "offset")
    if not 1 <= d <= n:
        raise UsageError(f"need 1 <= d <= n, got d={d}, n={n}")
    if not 0 <= offset < d:
        raise UsageError(f"need 0 <= offset < d, got offset={offset}, d={d}")
    picks = np.arange(offset, n, d)
    out = np.zeros((picks.size, n))
    out[np.arange(picks.size), picks] = 1.0
    return out


def build_spatial_ops(
    I_M: int,
    J_M: int,
    kernel_size: int = 9,
    sigma: float | None = None,
    d: int = 5,
    offset: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Blur-then-downsample operators for both spatial axes.

    ``sigma`` defaults to ``d / 2``, tying the blur extent to the
    downsampling ratio as in standard reference-image protocols.
    """
    I_M, J_M, d = _check_int(I_M, "I_M"), _check_int(J_M, "J_M"), _check_int(d, "d")
    if sigma is None:
        sigma = d / 2.0
    return tuple(downsample_matrix(n, d, offset) @ gaussian_blur_matrix(n, kernel_size, sigma)
                 for n in (I_M, J_M))


def uniform_srf(K_H: int, K_M: int) -> np.ndarray:
    """Spectral response averaging contiguous band groups as equal as possible.

    The first ``K_H mod K_M`` groups get one extra band; each row averages its
    group uniformly, so rows sum to 1.
    """
    K_H, K_M = _check_int(K_H, "K_H", 1), _check_int(K_M, "K_M", 1)
    if K_M > K_H:
        raise UsageError(f"need K_M <= K_H, got K_M={K_M} > K_H={K_H}")
    base, extra = divmod(K_H, K_M)
    sizes = base + (np.arange(K_M) < extra)
    return np.repeat(np.eye(K_M) / sizes[:, None], sizes, axis=1)


def load_srf_csv(path, K_H: int | None = None, K_M: int | None = None) -> np.ndarray:
    """Read a spectral response matrix from CSV: K_M rows of K_H values, no header."""
    try:
        with warnings.catch_warnings():  # an empty file is refused below, not warned about
            warnings.simplefilter("ignore", UserWarning)
            srf = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"malformed SRF CSV {path}: {exc}") from exc
    if srf.size == 0:
        raise FormatError(f"SRF CSV {path} holds no data")
    bad = srf.size - int(np.count_nonzero(np.isfinite(srf)))
    if bad:
        raise FormatError(f"SRF CSV {path} has {bad} non-finite entries (NaN or Inf)")
    if K_M is not None and srf.shape[0] != K_M:
        raise FormatError(f"SRF CSV {path} has {srf.shape[0]} rows, expected {K_M}")
    if K_H is not None and srf.shape[1] != K_H:
        raise FormatError(f"SRF CSV {path} has {srf.shape[1]} columns, expected {K_H}")
    return srf


def make_degradation_ops(
    I_M: int,
    J_M: int,
    K_H: int,
    K_M: int = 4,
    kernel_size: int = 9,
    sigma: float | None = None,
    d: int = 5,
    offset: int = 0,
    srf: np.ndarray | None = None,
    srf_source: str = "uniform",
) -> DegradationOps:
    """Bundle P1, P2, P3 for a given geometry, with provenance parameters."""
    p1, p2 = build_spatial_ops(I_M, J_M, kernel_size, sigma, d, offset)
    if srf is None:
        p3 = uniform_srf(K_H, K_M)
    else:
        p3 = np.asarray(srf, dtype=np.float64)
        if p3.shape != (_check_int(K_M, "K_M"), _check_int(K_H, "K_H")):
            raise UsageError(f"SRF must be {K_M}x{K_H}, got {p3.shape}")
        if not np.isfinite(p3).all():
            raise UsageError("SRF has non-finite entries (NaN or Inf)")
    return DegradationOps(
        P1=p1,
        P2=p2,
        P3=p3,
        params={
            # build_spatial_ops has accepted these, so they convert without a loss
            "kernel_size": _check_int(kernel_size, "kernel_size"),
            "sigma": float(sigma if sigma is not None else d / 2.0),
            "ratio": _check_int(d, "d"),
            "offset": _check_int(offset, "offset"),
            "srf_source": srf_source,
        },
    )


def apply_degradation(sri: np.ndarray, ops: DegradationOps) -> tuple[np.ndarray, np.ndarray]:
    """Produce the (hsi, msi) pair from a reference image by the two mode products.

    A pair with a NaN or Inf entry, from such an entry of the image or from an
    overflow, raises UsageError.  The check runs on the pair, which is far
    smaller than the image, and an image entry that no entry of the pair
    depends on cannot make a wrong estimate.
    """
    # mode 2 first: on a column-major image it is one GEMM per band, and the
    # mode-1 GEMM then runs on the smaller tensor.  A NaN, Inf or overflow
    # shows in the pair, refused below, not as numpy's warning first
    with np.errstate(invalid="ignore", over="ignore"):
        hsi = mode_product(mode_product(sri, ops.P2, 2), ops.P1, 1)
        msi = mode_product(sri, ops.P3, 3)
    if not (np.isfinite(hsi).all() and np.isfinite(msi).all()):
        raise UsageError("the degraded images hold non-finite entries (NaN or Inf): the sri "
                         "holds some, or its degradation overflows")
    return hsi, msi


def add_noise(t: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Add zero-mean i.i.d. Gaussian noise at the target SNR.

    The noise variance is ``||t||_F^2 / (numel * 10^(snr_db/10))``.  Draws come
    from numpy's PCG64 bit generator (``np.random.default_rng(seed)``), the
    package-wide fixed RNG, so results are reproducible for a given seed.
    ``snr_db = inf`` returns the input unchanged.  Either way the result keeps
    the input's memory layout, so a column-major tensor stays column-major.
    Any finite tensor gets a finite noise level: where its norm is past the
    float range, sigma is taken from the norm of the tensor scaled by the
    power of two of its largest entry and scaled back.  A tensor with a NaN or
    Inf entry, whose noise level would not be finite, and an ``snr_db`` whose
    noise level or noisy entries still leave the float range raise
    UsageError.
    """
    t = np.asarray(t, dtype=np.float64)
    norm, e = frob_norm(t), 0
    if norm == math.inf:  # past the float range: the norm of t / 2^e, which is exact
        e = math.frexp(float(np.abs(t).max()))[1]
        norm = frob_norm(np.ldexp(t, -e))
    if not math.isfinite(norm):  # every finite tensor has a finite norm here
        raise UsageError("cannot add noise to a tensor with non-finite entries (NaN or Inf)")
    if spec.snr_db == math.inf:
        return t.copy(order="K")
    if norm == 0.0:
        raise UsageError("cannot set an SNR on an all-zero tensor")
    rng = np.random.default_rng(spec.seed)
    # the draw is copied to t's layout first: arithmetic over two layouts is slow
    noisy = np.empty_like(t)
    noisy[...] = rng.standard_normal(t.shape)
    try:
        sigma = math.ldexp(norm / math.sqrt(t.size * 10.0 ** (spec.snr_db / 10.0)), e)
        with np.errstate(over="raise"):
            return np.add(t, np.multiply(sigma, noisy, out=noisy), out=noisy)
    except (OverflowError, ZeroDivisionError, FloatingPointError):
        # 10^(snr/10) overflows above about 3082 dB, its product with the
        # entry count underflows to 0 near -3240 dB, and short of those the
        # noise or the noisy entries can still overflow
        raise UsageError(f"snr_db {spec.snr_db:g} puts the noise of this tensor "
                         "outside the float range") from None
