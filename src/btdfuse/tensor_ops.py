"""Dense third-order tensor kernels: unfoldings, mode products, structured products.

Conventions used throughout the package (all arrays are float64 ndarrays):

* a third-order tensor is an ndarray of shape ``(I, J, K)``;
* ``vec`` of a matrix is column-major (first index fastest), i.e.
  ``M.ravel(order="F")``, so that ``vec(P @ M @ Q.T) == kron(Q, P) @ vec(M)``;
* the three unfoldings place the mode index along columns with a fixed row
  order (first remaining index fastest within the slower one):

    - mode 1: ``(K*J, I)`` with ``X1[k*J + j, i] = X[i, j, k]``
    - mode 2: ``(K*I, J)`` with ``X2[k*I + i, j] = X[i, j, k]``
    - mode 3: ``(I*J, K)`` with ``X3[j*I + i, k] = X[i, j, k]``

  (0-based indices).  These row orders are exactly the ones that make the
  factorized forms ``X1 = pw_khatri_rao(C, B) @ A.T`` etc. hold for the
  block-term model in :mod:`btdfuse.model`.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from collections.abc import Sequence

import numpy as np

from .errors import UsageError

__all__ = [
    "unfold",
    "fold",
    "mode_product",
    "kronecker",
    "khatri_rao",
    "pw_khatri_rao",
    "frob_norm",
    "vec",
    "unvec",
]


def _check_tensor3(t: np.ndarray, name: str = "tensor") -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise UsageError(f"{name} must be a third-order tensor, got ndim={t.ndim}")
    if min(t.shape) < 1:
        raise UsageError(f"all {name} dimensions must be >= 1, got {t.shape}")
    return t


def _check_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise UsageError(f"{name} must be 2-D, got ndim={m.ndim}")
    return m


def _check_int(value, name: str, least: int | None = None) -> int:
    """``value`` as an int: the package's one rule for sizes, ranks, ratios, counts and seeds.

    An int, a numpy integer or a float with an integral value is accepted;
    anything else (2.5, NaN, an infinity, None, a bool, a string) raises
    UsageError naming ``name``, so nothing is truncated on the way.  With
    ``least`` given, a whole number below it raises UsageError too.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer()):
        if least is not None and value < least:
            raise UsageError(f"{name} must be >= {least}, got {int(value)}")
        return int(value)
    raise UsageError(f"{name} must be an integer or an integral float, got {value!r}")


def _check_real(value, name: str) -> float:
    """``value`` as a float: the package's one rule for real parameters (rho, tol, sigma, SNR, d).

    An int, a float or a numpy integer or floating scalar is accepted; anything
    else (None, a bool, a string, a complex number, NaN, an int too large for
    a float) raises UsageError naming ``name``.  Infinities pass: each caller
    checks its own range.
    """
    if isinstance(value, (numbers.Integral, float, np.floating)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            if not math.isnan(real := float(value)):
                return real
    raise UsageError(f"{name} must be a real number, got {value!r}")


def _check_mode(mode) -> int:
    """An unfolding or product mode: a whole number, 1, 2 or 3."""
    mode = _check_int(mode, "mode")
    if mode not in (1, 2, 3):
        raise UsageError(f"mode must be 1, 2 or 3, got {mode!r}")
    return mode


def _check_dims(dims, name: str = "dims") -> tuple[int, int, int]:
    """The three sizes of a third-order tensor, each a whole number >= 1."""
    out = tuple(_check_int(d, name) for d in dims) if np.iterable(dims) else ()
    if len(out) != 3 or min(out) < 1:
        raise UsageError(f"{name} must be three integers >= 1, got {dims!r}")
    return out


# the axes of (I, J, K) in the order each mode's unfolding reads them: the two
# remaining ones, slower first, then the mode's own as the column index
_UNFOLD_AXES = {1: (2, 1, 0), 2: (2, 0, 1), 3: (1, 0, 2)}


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Matricize ``t`` along ``mode`` (1, 2 or 3).

    Parameters
    ----------
    t : ndarray, shape (I, J, K)
    mode : int
        Which index becomes the column index of the result.

    Returns
    -------
    ndarray
        Shape ``(K*J, I)``, ``(K*I, J)`` or ``(I*J, K)`` for modes 1, 2, 3,
        with the row orders documented in the module docstring.
    """
    t = _check_tensor3(t)
    axes = _UNFOLD_AXES[_check_mode(mode)]
    return t.transpose(axes).reshape(-1, t.shape[axes[2]])


def fold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the ``(I, J, K)`` tensor from a mode-n unfolding."""
    m = _check_matrix(m)
    i, j, k = dims = _check_dims(dims)
    mode = _check_mode(mode)
    axes = _UNFOLD_AXES[mode]
    expected = (math.prod(dims) // dims[axes[2]], dims[axes[2]])
    if m.shape != expected:
        raise UsageError(
            f"mode-{mode} unfolding of a {i}x{j}x{k} tensor has shape {expected}, got {m.shape}"
        )
    return m.reshape([dims[a] for a in axes]).transpose(np.argsort(axes))


def mode_product(t: np.ndarray, p: np.ndarray, mode: int) -> np.ndarray:
    """Multiply every mode-``mode`` fiber of ``t`` by the matrix ``p``.

    The mode-th dimension ``t.shape[mode-1]`` must equal ``p.shape[1]`` and is
    replaced by ``p.shape[0]`` in the result, which is column-major like the
    tensor file, or row-major for a row-major ``t``.
    """
    t = _check_tensor3(t)
    p = _check_matrix(p, "operator")
    mode = _check_mode(mode)
    if p.shape[1] != t.shape[mode - 1]:
        raise UsageError(
            f"operator has {p.shape[1]} columns but tensor mode-{mode} has size {t.shape[mode - 1]}"
        )
    if t.flags.c_contiguous and not t.flags.f_contiguous:
        return mode_product(t.T, p, 4 - mode).T  # t.T is column-major
    # (before, mode, after) view of the column-major t: one GEMM on the mode-1
    # or mode-3 unfolding, one per band for mode 2.  Modes 2 and 3 write the
    # result column-major; mode 1 is copied to it, because a GEMM that writes
    # its (J*K, rows(p)) transpose is slower than the copy for few rows
    t = np.asfortranarray(t)
    m = t.reshape(math.prod(t.shape[: mode - 1]), t.shape[mode - 1], -1, order="F")
    out = p @ m[0] if mode == 1 else np.matmul(p, m.transpose(2, 1, 0)).transpose(2, 1, 0)
    return np.asfortranarray(out.reshape(t.shape[: mode - 1] + (p.shape[0],) + t.shape[mode:],
                                         order="F"))


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product: block (i, j) of the result is ``a[i, j] * b``."""
    a = _check_matrix(a, "a")
    b = _check_matrix(b, "b")
    return np.kron(a, b)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product: column f is ``kron(a[:, f], b[:, f])``.

    Both inputs must have the same number of columns; the result has
    ``a.shape[0] * b.shape[0]`` rows.
    """
    a = _check_matrix(a, "a")
    b = _check_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise UsageError(
            f"khatri_rao needs equal column counts, got {a.shape[1]} and {b.shape[1]}"
        )
    # (a ⊗ b) per column: outer product along rows, b's row index fastest
    out = a[:, None, :] * b[None, :, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1])


def pw_khatri_rao(c: np.ndarray, a: np.ndarray, block_widths: Sequence[int]) -> np.ndarray:
    """Partition-wise Khatri-Rao product ``[c_1 ⊗ A_1, ..., c_R ⊗ A_R]``.

    ``c`` has one column per block; ``a`` is partitioned column-wise into
    blocks ``A_r`` of ``block_widths[r]`` columns.  Block r of the result is
    the Kronecker product of column ``c[:, r]`` with ``A_r``.  With all block
    widths equal to 1 this reduces to :func:`khatri_rao`.
    """
    c = _check_matrix(c, "c")
    a = _check_matrix(a, "a")
    widths = [_check_int(w, "block_widths", 1) for w in block_widths]
    if c.shape[1] != len(widths):
        raise UsageError(
            f"c has {c.shape[1]} columns but the partition has {len(widths)} blocks"
        )
    if a.shape[1] != sum(widths):
        raise UsageError(
            f"a has {a.shape[1]} columns but the partition sums to {sum(widths)}"
        )
    # block r of c repeated once per column of A_r: every entry is one product
    return khatri_rao(c[:, np.repeat(np.arange(len(widths)), widths)], a)


def frob_norm(t: np.ndarray) -> float:
    """Frobenius norm (square root of the sum of squared entries, any shape).

    Finite for every finite ``t`` whose norm is below the float maximum:
    where the plain norm leaves the range in which its square is a normal
    float, ``t`` is scaled by the power of two of its largest entry, which is
    exact, and the norm is scaled back.
    """
    t = np.asarray(t, dtype=np.float64).ravel(order="K")  # a column-major t is not copied
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(t))
        if not 2.0 ** -511 <= norm < math.inf:  # its square is not a normal float
            e = math.frexp(float(np.abs(t).max(initial=0.0)))[1]
            norm = float(np.ldexp(np.linalg.norm(np.ldexp(t, -e)), e))
    return norm


def vec(m: np.ndarray) -> np.ndarray:
    """Column-major vectorization (row index fastest)."""
    return np.asarray(m, dtype=np.float64).ravel(order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=np.float64)
    rows, cols = _check_int(rows, "rows"), _check_int(cols, "cols")
    if v.size != rows * cols:
        raise UsageError(f"cannot reshape {v.size} entries to {rows}x{cols}")
    return v.reshape(rows, cols, order="F")
