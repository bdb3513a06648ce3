"""Output checks of the benchmark, written with plain numpy.

None of this calls btdfuse: the objective, the reconstruction, the R-SNR and
the tensor-file reader are recomputed here, so that a faster but wrong
program cannot pass by agreeing with itself.
"""

from __future__ import annotations

import math
import struct

import numpy as np

OBJECTIVE_RTOL = 1e-8
ESTIMATE_RTOL = 1e-10
REPORT_RSNR_ATOL_DB = 1e-6

_HEADER = struct.Struct("<4sBQQQ")


def read_hsrt(path) -> np.ndarray:
    """Read an ``HSRT`` tensor file (magic, version 1, three dims, F-order f8)."""
    with open(path, "rb") as fh:
        magic, version, i, j, k = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != b"HSRT" or version != 1:
            raise ValueError(f"{path}: not an HSRT v1 file")
        data = np.fromfile(fh, dtype="<f8")
    if data.size != i * j * k:
        raise ValueError(f"{path}: {data.size} values for dims {(i, j, k)}")
    return data.reshape((i, j, k), order="F").astype(np.float64)


def write_hsrt(path, t: np.ndarray) -> None:
    t = np.asarray(t, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"HSRT", 1, *t.shape))
        fh.write(t.ravel(order="F").astype("<f8").tobytes())


def perturb(t: np.ndarray, rel: float, seed: int) -> np.ndarray:
    """``t * (1 + rel * u)`` with ``u`` uniform on [-1, 1], drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return t * (1.0 + rel * rng.uniform(-1.0, 1.0, t.shape))


def reconstruct(a, b, c, widths) -> np.ndarray:
    """Dense ``sum_r (A_r B_r^T) outer c_r`` for column blocks of the given widths."""
    member = np.zeros((a.shape[1], len(widths)))
    start = 0
    for r, w in enumerate(widths):
        member[start:start + w, r] = 1.0
        start += w
    maps = np.einsum("il,jl,lr->ijr", a, b, member, optimize=True)
    return maps @ c.T


def dense_objective(x, hsi, msi, p1, p2, p3) -> float:
    """``||HSI - X x1 P1 x2 P2||^2 + ||MSI - X x3 P3||^2`` from the dense image."""
    x_h = np.einsum("ai,ijk->ajk", p1, x, optimize=True)
    x_h = np.einsum("bj,ajk->abk", p2, x_h, optimize=True)
    x_m = x @ p3.T
    return float(np.sum((hsi - x_h) ** 2) + np.sum((msi - x_m) ** 2))


def rsnr_db(ref, est) -> float:
    return 10.0 * math.log10(float(np.sum(ref**2)) / float(np.sum((ref - est) ** 2)))


def nrmse(rsnr: float) -> float:
    """``||ref - est|| / ||ref||``, the linear form of an R-SNR in dB."""
    return 10.0 ** (-rsnr / 20.0)


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_fusion(params: dict, *, estimate, trace_len, trace_tail, factors, sri,
                 hsi, msi, ops, report_rsnr) -> list[str]:
    """Reasons the fusion output fails its checks; empty when it passes.

    ``trace_tail`` is every objective entry the run exposes (the whole trace
    in-process, only the final value through the CLI); ``factors`` is
    ``(A, B, C, widths)`` or None when only the estimate is available.
    """
    reasons = []
    if estimate.shape != tuple(params["dims"]):
        return [f"estimate shape {estimate.shape} != {tuple(params['dims'])}"]
    if not np.isfinite(estimate).all():
        return ["estimate has non-finite values"]
    want_len = 3 * params["sweeps"] + (1 if params["method"] == "two_stage" else 0)
    if trace_len != want_len:
        reasons.append(f"objective trace has {trace_len} entries, expected {want_len}")
    if not all(math.isfinite(v) for v in trace_tail):
        return reasons + ["objective trace has non-finite entries"]
    x = estimate
    if factors is not None:
        a, b, c, widths = factors
        if params["method"] == "cnn_btd" and min(a.min(), b.min(), c.min()) < 0:
            reasons.append("cnn_btd returned negative factor entries")
        x = reconstruct(a, b, c, widths)
        gap = float(np.linalg.norm(x - estimate) / np.linalg.norm(x))
        if gap > ESTIMATE_RTOL:
            reasons.append(f"estimate differs from its factors by {gap:.3e} relative")
    dense = dense_objective(x, hsi, msi, ops[0], ops[1], ops[2])
    gap = relative_gap(trace_tail[-1], dense)
    if gap > OBJECTIVE_RTOL:
        reasons.append(
            f"final objective {trace_tail[-1]!r} differs from the dense recomputation "
            f"{dense!r} by {gap:.3e} relative (limit {OBJECTIVE_RTOL:g})"
        )
    own = rsnr_db(sri, estimate)
    if abs(own - report_rsnr) > REPORT_RSNR_ATOL_DB:
        reasons.append(f"reported R-SNR {report_rsnr!r} dB, recomputed {own!r} dB")
    if own < params["rsnr_floor_db"]:
        reasons.append(f"R-SNR {own:.3f} dB below the floor {params['rsnr_floor_db']} dB")
    return reasons
