"""Coupled fusion solvers.

Four methods share one block-coordinate skeleton over the factor blocks
A, B, C of the block-term model:

* ``cnn_btd`` / ``cnn_cpd``: each block solves a nonnegativity-constrained
  quadratic program by a fixed number of ADMM iterations (``cnn_cpd`` is the
  same algorithm with every block rank forced to 1).
* ``stereo``: each block solves the unconstrained quadratic exactly.
* ``two_stage``: fits the spatial factors to the MSI alone, then recovers the
  spectral factor from the HSI by linear least squares.

Every block subproblem reduces to a generalized Sylvester equation
``H1 @ X @ H2 + H3 @ X @ H4 = H5``, and its form is fixed by the model:
blocks A and B are in the row form (H3 = I, H1 = P^T P for P1 or P2), block
C in the column form (H2 = I, H4 = P3^T P3).  Both are ``P^T P Y b + Y c =
rhs``, with ``Y = X`` and ``(b, c) = (H2, H4)`` in the row form and
``Y = X^T``, ``(b, c) = (H3, H1)``, ``rhs = H5^T`` in the column form.
``build_subproblem`` records each block's form in the workspace it returns
(``AdmmWorkspace.form = (transposed, P)``); only the public
``sylvester_solve`` and a workspace built by hand detect it from H1..H4.
Within one block update only H5 changes between ADMM steps, so each update
factors H1..H4 once (``_SylvesterFactor``, as in AO-ADMM) and every step is
then four GEMMs, a Hadamard divide and the residual check.  Every term of a
block subproblem is assembled by one kernel (``_normal_equations``), for A
and B from small R x R and L x L Grams, without forming the partition-wise
Khatri-Rao matrices.  It, the block maps and ``svd_warm`` loop over no
block: each stacks a factor's column blocks as one (R, rows, max L) array,
zero past each block's width, runs one batched product or SVD over the R
blocks and gathers the result back to factor columns.  ``two_stage`` solves
its least-squares updates on the explicit designs instead, from their thin
SVDs, since a Gram squares the design's condition number.

With a stated form the factor takes the thin SVD ``P = U S Q1^T``, so that
``P^T P = Q1 S^2 Q1^T`` with min(rows, cols) columns in Q1.  The operators
have fewer rows than columns (I/d of I for P1 and P2, K_M of K for P3), and
on the directions Q1 leaves out the eigenvalue is 0 and the divisor is 1, so
``Y = (G + Q1 ((Q1^T G) o (1 / den1 - 1))) V^T`` with ``G = rhs V``.  The
residual is formed in the same coordinates, through P and without a product
by the identity: ``||P^T ((P Y) b) + Y c - rhs||``, against the same
``SYLVESTER_RESIDUAL_RTOL`` bound.

``bcd_fuse`` records the coupled objective after every block update from the
quadratic the update solved (the Gram form, ``_block_score``): for the new
value Z it is ``||Y_H||^2 + ||Y_M||^2 - 2 <Z, H5> + <Z, H1 Z H2 + H3 Z H4>``
less the penalty's ``rho ||Z||^2``, with no degraded tensor rebuilt.  Below
``DENSE_SCORE_SHARE`` (1e-4) of ``||Y_H||^2 + ||Y_M||^2`` or of the
quadratic's mass (its terms by magnitude, which bound the Grams' rounding)
it computes the dense ``objective()`` instead.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .degradation import DegradationOps
from .errors import NumericalError, UsageError
from .model import (
    BtdFactors,
    RankSpec,
    _block_maps,
    _partition,
    _stack,
    btd_reconstruct,
    check_coupled_identifiability,
    degrade_factors,
)
from .tensor_ops import _check_dims, _check_int, _check_real, _check_tensor3, frob_norm, kronecker
from .tensor_ops import pw_khatri_rao, unfold, unvec, vec

__all__ = [
    "FusionConfig",
    "AdmmWorkspace",
    "FusionResult",
    "objective",
    "sylvester_solve",
    "sylvester_solve_dense",
    "build_subproblem",
    "admm_nn_block",
    "bcd_fuse",
    "two_stage_recover",
    "recover_spectral_factor",
    "init_factors",
]

METHODS = ("cnn_btd", "cnn_cpd", "stereo", "two_stage")
INIT_STRATEGIES = ("random_uniform", "svd_warm", "provided")

# accepted solves must satisfy ||H1 X H2 + H3 X H4 - H5|| <= RTOL ||H5||
SYLVESTER_RESIDUAL_RTOL = 1e-8

# bcd_fuse scores a block update from its quadratic, as ||Y||^2 minus terms of
# about that size, or larger where the factors' columns nearly cancel.  Below
# this share of the larger of ||Y||^2 and the terms' mass the difference has
# lost digits to cancellation (noiseless data and ground-truth starts drive
# the objective toward 0), and the update is scored by the dense objective().
DENSE_SCORE_SHARE = 1e-4


@dataclass(frozen=True)
class FusionConfig:
    """Everything a fusion run needs besides the data.

    A config is checked when it is made: a bad value raises UsageError
    naming it.  The counts and the seed follow the whole-number rule and are
    stored as int, ``tol`` and a numeric ``rho`` the real-number rule and are
    stored as float.  It is frozen; vary one with ``dataclasses.replace``,
    which checks the new config too.

    Parameters
    ----------
    method : one of ``cnn_btd``, ``cnn_cpd``, ``stereo``, ``two_stage``.
    rank : RankSpec
        Block count and per-block spatial ranks.  A ``cnn_cpd`` config stores
        ``RankSpec(rank.R, 1)``, the rank its run fits.
    outer_iters : int
        Number of block-coordinate sweeps (cap; always enforced).
    inner_iters : int
        ADMM iterations per block for the constrained methods.
    rho : float or "auto"
        ADMM penalty.  "auto" rescales per block and sweep to the mean
        diagonal of that block's data Gram matrix.
    tol : float
        Relative objective change between sweeps below which iteration stops
        early; 0 disables the check.
    seed : int
        Seed for random initialization.
    init : one of ``random_uniform``, ``svd_warm``, ``provided``.
    init_factors : BtdFactors, required when ``init="provided"`` and refused otherwise.
    """

    method: str = "cnn_btd"
    rank: RankSpec = field(default_factory=lambda: RankSpec(1, 1))
    outer_iters: int = 20
    inner_iters: int = 5
    rho: float | str = "auto"
    tol: float = 0.0
    seed: int = 0
    init: str = "random_uniform"
    init_factors: BtdFactors | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not isinstance(self.rank, RankSpec):
            raise UsageError("cfg.rank must be a RankSpec")
        for name in ("outer_iters", "inner_iters", "seed"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name))
        if self.outer_iters < 1:
            raise UsageError(f"outer_iters must be >= 1, got {self.outer_iters}")
        if self.method in ("cnn_btd", "cnn_cpd") and self.inner_iters < 1:
            raise UsageError(f"inner_iters must be >= 1, got {self.inner_iters}")
        if not (isinstance(self.rho, str) and self.rho == "auto"):
            object.__setattr__(self, "rho", _check_real(self.rho, "rho"))
            if not 0 < self.rho < math.inf:
                raise UsageError(f"rho must be positive and finite or 'auto', got {self.rho!r}")
        object.__setattr__(self, "tol", _check_real(self.tol, "tol"))
        if not self.tol >= 0:
            raise UsageError(f"tol must be >= 0, got {self.tol!r}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.init not in INIT_STRATEGIES:
            raise UsageError(f"unknown init {self.init!r}; choose from {INIT_STRATEGIES}")
        # _start reads init_factors only for "provided": with any other init they would be ignored
        if (self.init == "provided") != (self.init_factors is not None):
            raise UsageError(f"cfg.init_factors is needed with init='provided' and refused with "
                             f"any other init, got init={self.init!r}")
        if self.method == "cnn_cpd":
            object.__setattr__(self, "rank", RankSpec(self.rank.R, 1))


@dataclass
class AdmmWorkspace:
    """State of one block's constrained quadratic subproblem.

    H1..H4 are the (symmetric) coefficient matrices of the Sylvester system,
    H5_base the data part of its right-hand side; Z is the feasible split
    variable (what gets stored back into the factors), U the scaled dual, and
    X the most recent unconstrained solve.  Z and U persist across sweeps as
    warm starts.  ``form = (transposed, P)`` states the Sylvester form, as
    ``build_subproblem`` records it: ``(False, P1)`` for A, ``(False, P2)``
    for B (H1 = P^T P, H3 = I) and ``(True, P3)`` for C (H4 = P^T P,
    H2 = I).  A workspace without it has its form detected from H1..H4.
    """

    H1: np.ndarray
    H2: np.ndarray
    H3: np.ndarray
    H4: np.ndarray
    H5_base: np.ndarray
    Z: np.ndarray
    U: np.ndarray
    rho: float
    X: np.ndarray | None = None
    form: tuple | None = None


@dataclass(frozen=True)
class FusionResult:
    """Factors, reconstructed image, and the per-block-update objective trace."""

    factors: BtdFactors
    sri_estimate: np.ndarray
    objective_trace: tuple
    iters_run: int
    wall_time: float
    method: str


def objective(f: BtdFactors, hsi: np.ndarray, msi: np.ndarray, ops: DegradationOps) -> float:
    """Coupled data-fit value: squared residual on the HSI plus on the MSI."""
    hsi = _check_tensor3(hsi, "hsi")
    msi = _check_tensor3(msi, "msi")
    _require_coupled_dims(f, hsi, msi, ops)
    f_h, f_m = degrade_factors(f, ops)
    j_h = frob_norm(hsi - btd_reconstruct(f_h)) ** 2
    j_m = frob_norm(msi - btd_reconstruct(f_m)) ** 2
    return j_h + j_m


def _require_coupled_dims(f, hsi, msi, ops):
    i, j, k = f.dims
    p1, p2, p3 = ops.P1, ops.P2, ops.P3
    if p1.shape[1] != i or p2.shape[1] != j or p3.shape[1] != k:
        raise UsageError(
            f"operators expect an image of {p1.shape[1]}x{p2.shape[1]}x{p3.shape[1]}, "
            f"factors give {i}x{j}x{k}"
        )
    if hsi.shape != (p1.shape[0], p2.shape[0], k):
        raise UsageError(f"hsi is {hsi.shape}, expected {(p1.shape[0], p2.shape[0], k)}")
    if msi.shape != (i, j, p3.shape[0]):
        raise UsageError(f"msi is {msi.shape}, expected {(i, j, p3.shape[0])}")


def _as_square(m, name, size=None):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise UsageError(f"{name} must be square, got shape {m.shape}")
    if size is not None and m.shape[0] != size:
        raise UsageError(f"{name} must be {size}x{size}, got {m.shape}")
    return m


def _identity_scale(m: np.ndarray) -> float | None:
    """c such that m == c*I (within 1e-12 |c|), else None."""
    n = m.shape[0]
    c = float(np.trace(m)) / n
    if c == 0.0:
        return None
    if np.abs(m - c * np.eye(n)).max() <= 1e-12 * abs(c):
        return c
    return None


def _require_symmetric(m, name):
    scale = np.abs(m).max() if m.size else 0.0
    if np.abs(m - m.T).max() > 1e-10 * scale:
        raise UsageError(f"{name} must be symmetric")


def _check_residual(h1, h2, h3, h4, h5, x):
    return _require_residual(frob_norm(h1 @ x @ h2 + h3 @ x @ h4 - h5), h5, x)


def _require_residual(res: float, h5, x):
    """x when ``res <= SYLVESTER_RESIDUAL_RTOL ||h5||``, else NumericalError."""
    bound = SYLVESTER_RESIDUAL_RTOL * frob_norm(h5)
    if not np.isfinite(res) or res > bound:
        raise NumericalError(
            f"Sylvester solve residual {res:.3e} exceeds {bound:.3e}; "
            "the coefficient pencil is singular or severely ill-conditioned"
        )
    return x


def sylvester_solve(h1, h2, h3, h4, h5) -> np.ndarray:
    """Solve ``h1 @ X @ h2 + h3 @ X @ h4 = h5`` for the two forms used here.

    Supported structure: h3 or h2 is a scalar multiple of the identity (these
    are the only forms the block subproblems produce).  h1..h4 must be
    symmetric.  The returned X satisfies the residual bound
    ``||h1 X h2 + h3 X h4 - h5||_F <= 1e-8 ||h5||_F``; a singular pencil
    raises NumericalError.  For anything more general use
    ``sylvester_solve_dense``.
    """
    return _SylvesterFactor(h1, h2, h3, h4).solve(h5)


def _tril_inv(l: np.ndarray, block: int = 48) -> np.ndarray:
    """Inverse of the lower-triangular matrix l, one block of rows at a time.

    With ``l = [[L11, 0], [L21, L22]]`` the inverse is
    ``[[L11^-1, 0], [-L22^-1 L21 L11^-1, L22^-1]]``; each row block costs one
    small dense inverse and two GEMMs, where ``np.linalg.inv(l)`` would run
    a general LU inverse of the whole matrix.
    """
    n = l.shape[0]
    x = np.zeros_like(l)
    for j in range(0, n, block):
        e = min(j + block, n)
        d = np.tril(np.linalg.inv(l[j:e, j:e]))
        x[j:e, j:e] = d
        x[j:e, :j] = -d @ (l[j:e, :j] @ x[:j, :j])
    return x


def _cholesky(c):
    """Lower Cholesky factor of c, or None when c is not positive definite."""
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        return None


def _detect_form(h1, h2, h3, h4):
    """``(transposed, c, chol(c))`` of the best applicable form of h1..h4.

    The row form applies when ``h3 = c3 I`` (``c = c3 h4``), the column form
    when ``h2 = c2 I`` (``c = c2 h1``).  Of the forms whose c is positive
    definite it takes the one whose Cholesky diagonal has the largest ratio of
    smallest to largest entry: Cholesky can succeed on a numerically singular
    c.  When no c is positive definite it returns the first form with
    ``chol(c) = None``.
    """
    scales = ((False, _identity_scale(h3), h4), (True, _identity_scale(h2), h1))
    forms = [(transposed, s * c) for transposed, s, c in scales if s is not None]
    if not forms:
        raise UsageError(
            "neither h3 nor h2 is a scalar multiple of the identity; "
            "use sylvester_solve_dense for general systems"
        )
    best, best_ratio = (*forms[0], None), 0.0
    for transposed, c in forms:
        l = _cholesky(c)
        ratio = 0.0 if l is None else np.diag(l).min() / np.diag(l).max()
        if ratio > best_ratio:
            best, best_ratio = (transposed, c, l), ratio
    return best


class _SylvesterFactor:
    """One factorization of ``h1 X h2 + h3 X h4 = h5`` for fixed h1..h4.

    The constructor checks h1..h4 (square, nonempty, symmetric, finite) and
    solves ``a Y b + Y c = rhs`` in one of two forms: the row form, with
    ``Y = X`` and ``(a, b, c) = (h1, h2, h4)``, or the column form, with
    ``Y = X^T``, ``(a, b, c) = (h4, h3, h1)`` and ``rhs = h5^T``.

    ``form`` states the form as ``(transposed, P)``: the row form (h3 = I)
    when ``transposed`` is false, the column form (h2 = I) when it is true,
    and ``a = P^T P``, decomposed as ``Q diag(lam) Q^T`` by the thin SVD of
    P.  Without it the form is detected by :func:`_detect_form` (c then
    carries the identity's scale) and a is decomposed by ``eigh``.

    The pencil ``b V = c V diag(w)`` is reduced with ``V^T c V = I``, so that
    each :meth:`solve` is ``Y = Q ((Q^T rhs V) / (1 + lam w^T)) V^T``, checked
    against the residual bound.  With a stated form Q has min(rows, cols)
    columns, the solve adds back the directions Q leaves out (``gain = 1/den -
    1``) and the residual is formed through P (see the module docstring).
    When c is not positive definite the pencil has no such reduction and
    every solve falls back to one small dense system per column of Q; with
    fewer columns than a has rows it sets Y to 0 on the rest, and the
    residual check refuses the solve unless rhs is 0 there too.
    """

    def __init__(self, h1, h2, h3, h4, form=None):
        h1 = _as_square(h1, "h1")
        h2 = _as_square(h2, "h2")
        m, n = h1.shape[0], h2.shape[0]
        if m == 0 or n == 0:
            raise UsageError(f"empty Sylvester system: h1 is {m}x{m} and h2 is {n}x{n}")
        h3 = _as_square(h3, "h3", m)
        h4 = _as_square(h4, "h4", n)
        for mat, name in ((h1, "h1"), (h2, "h2"), (h3, "h3"), (h4, "h4")):
            _require_symmetric(mat, name)
        if not all(np.isfinite(mat).all() for mat in (h1, h2, h3, h4)):
            raise NumericalError("non-finite entries in the Sylvester system")
        self.h = (h1, h2, h3, h4)
        self.shape = (m, n)
        if form is None:
            transposed, c, l = _detect_form(h1, h2, h3, h4)
            (lam, self.q), self.p = np.linalg.eigh(h4 if transposed else h1), None
        else:
            transposed, self.p = form
            _, s, vt = np.linalg.svd(self.p, full_matrices=False)
            lam, self.q = s * s, vt.T
            c = h1 if transposed else h4
            l = _cholesky(c)
        b = h3 if transposed else h2
        self.transposed, self.b, self.c = transposed, b, c
        if l is None:
            # c is singular: one (b-sized) system per eigenvalue of a
            self.den = None
            self.mats = lam[:, None, None] * b[None, :, :] + c[None, :, :]
            return
        # b V = c V diag(w) with V^T c V = I: the symmetric problem for l^-1 b l^-T
        l_inv = _tril_inv(l)
        w, u = np.linalg.eigh(l_inv @ b @ l_inv.T)
        self.v = l_inv.T @ u
        self.den = 1.0 + np.outer(lam, w)
        if np.abs(self.den).min() < 1e-12:
            raise NumericalError(
                "singular pencil: eigenvalue combination 1 + lam*w reaches "
                f"{np.abs(self.den).min():.3e}"
            )
        self.gain = 1.0 / self.den - 1.0

    def solve(self, h5) -> np.ndarray:
        """X for right-hand side h5, checked against the residual bound."""
        h5 = np.asarray(h5, dtype=np.float64)
        if h5.shape != self.shape:
            raise UsageError(f"h5 must be {self.shape[0]}x{self.shape[1]}, got shape {h5.shape}")
        if not np.isfinite(h5).all():
            raise NumericalError("non-finite entries in the Sylvester system")
        rhs = h5.T if self.transposed else h5
        q = self.q
        if self.den is None:
            try:
                y = q @ np.linalg.solve(self.mats, (q.T @ rhs)[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular pencil in Sylvester solve: {exc}") from exc
        elif self.p is None:
            y = q @ ((q.T @ rhs @ self.v) / self.den) @ self.v.T
        else:
            g = rhs @ self.v
            y = (g + q @ ((q.T @ g) * self.gain)) @ self.v.T
        x = y.T if self.transposed else y
        if self.p is None:
            return _check_residual(*self.h, h5, x)
        # ||h1 X h2 + h3 X h4 - h5|| in the reduced coordinates, through P
        p = self.p
        return _require_residual(frob_norm(p.T @ ((p @ y) @ self.b) + y @ self.c - rhs), h5, x)


def sylvester_solve_dense(h1, h2, h3, h4, h5) -> np.ndarray:
    """General dense solve via the equivalent Kronecker system.

    Builds ``(h2^T kron h1 + h4^T kron h3) vec(X) = vec(h5)`` with
    column-major vec; O((mn)^3), intended for tiny systems and cross-checks.
    """
    h5 = np.asarray(h5, dtype=np.float64)
    if h5.ndim != 2:
        raise UsageError(f"h5 must be a matrix, got shape {h5.shape}")
    m, n = h5.shape
    h1 = _as_square(h1, "h1", m)
    h3 = _as_square(h3, "h3", m)
    h2 = _as_square(h2, "h2", n)
    h4 = _as_square(h4, "h4", n)
    system = kronecker(h2.T, h1) + kronecker(h4.T, h3)
    try:
        sol = np.linalg.solve(system, vec(h5))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular pencil in dense Sylvester solve: {exc}") from exc
    return _check_residual(h1, h2, h3, h4, h5, unvec(sol, m, n))


def _resolve_rho(rho, gram: np.ndarray, ncols: int) -> float:
    if isinstance(rho, str) and rho == "auto":
        val = float(np.trace(gram)) / ncols
        # a zero Gram means zero factors; any positive penalty works then
        return val if val > 0 else 1.0
    val = _check_real(rho, "rho")
    if not 0 <= val < math.inf:
        raise UsageError(f"rho must be finite and >= 0, got {rho!r}")
    return val


def _normal_equations(y, u, v, rank: RankSpec, mode: int):
    """``(G, R)``, the normal equations of ``unfold(y, mode) ~ W X^T`` with ``G = W^T W``.

    The right-hand side R is in the orientation of the block's unknown:
    ``unfold(y, mode)^T W`` for mode 1 or 2 (the unknown is A or B), and
    ``W^T unfold(y, 3)`` for mode 3 (the unknown is C^T).  For mode 1 or 2, W
    is ``pw_khatri_rao(u, v, rank.L)`` and is never formed:
    ``W^T W = expand(u^T u) o v^T v``, with entry (r, s) of ``u^T u`` spread
    over block (r, s), and y is contracted with u along mode 3 once, then with
    the stacked column blocks of v by one batched product, gathered back to
    the columns of v.  For mode 3, W is the block-map matrix of (u, v).
    """
    if mode == 3:
        w = _block_maps(u, v, rank)
        return w.T @ w, w.T @ unfold(y, 3)
    i, j, _ = y.shape
    block, place = _partition(rank)
    # t[r, j, i] = sum_k y[i, j, k] u[k, r]
    t = (u.T @ unfold(y, 3).T).reshape(rank.R, j, i)
    r_mat = ((t.transpose(0, 2, 1) if mode == 1 else t) @ _stack(v, rank))[block, :, place].T
    return (u.T @ u)[np.ix_(block, block)] * (v.T @ v), r_mat


def build_subproblem(block, f: BtdFactors, hsi, msi, ops: DegradationOps, rho) -> AdmmWorkspace:
    """Assemble one block's quadratic subproblem as an AdmmWorkspace.

    The unknown is A for block "A", B for block "B", and C^T for block "C";
    the penalty ``rho`` lands on the identity-adjacent Gram so the system
    stays a supported Sylvester form, which the workspace records as
    ``form``: ``(False, P1)`` for A, ``(False, P2)`` for B and ``(True, P3)``
    for C.  Z starts at the current factor value and U at zero; callers that
    warm-start replace them afterwards.
    """
    hsi = _check_tensor3(hsi, "hsi")
    msi = _check_tensor3(msi, "msi")
    _require_coupled_dims(f, hsi, msi, ops)
    rank = f.rank
    total = rank.total
    p1, p2, p3 = ops.P1, ops.P2, ops.P3
    if block in ("A", "B"):
        # the HSI term pairs C with the degraded partner factor q @ partner,
        # the MSI term P3 C with the partner itself
        p, q, partner, mode = (p1, p2, f.B, 1) if block == "A" else (p2, p1, f.A, 2)
        h2, r_h = _normal_equations(hsi, f.C, q @ partner, rank, mode)
        gram_m, r_m = _normal_equations(msi, p3 @ f.C, partner, rank, mode)
        rho_val = _resolve_rho(rho, gram_m, total)
        h1 = p.T @ p
        h3 = np.eye(p.shape[1])
        h4 = gram_m + rho_val * np.eye(total)
        h5 = p.T @ r_h + r_m
        z = getattr(f, block).copy()
        form = (False, p)
    elif block == "C":
        gram_h, r_h = _normal_equations(hsi, p1 @ f.A, p2 @ f.B, rank, 3)
        h3, r_m = _normal_equations(msi, f.A, f.B, rank, 3)
        rho_val = _resolve_rho(rho, gram_h, rank.R)
        h1 = gram_h + rho_val * np.eye(rank.R)
        h2 = np.eye(f.C.shape[0])
        h4 = p3.T @ p3
        # (Wm^T Y3) P3, not Wm^T (Y3 P3): no (I*J, K) temporary
        h5 = r_h + r_m @ p3
        z = f.C.T.copy()
        form = (True, p3)
    else:
        raise UsageError(f"block must be 'A', 'B' or 'C', got {block!r}")

    return AdmmWorkspace(
        H1=h1, H2=h2, H3=h3, H4=h4, H5_base=h5,
        Z=z, U=np.zeros_like(z), rho=rho_val, form=form,
    )


def admm_nn_block(w: AdmmWorkspace, inner_iters: int):
    """Run the fixed-count ADMM loop for one nonnegative block.

    Each iteration solves the Sylvester system with right-hand side
    ``H5_base + rho (Z + U)``, projects ``X - U`` onto the nonnegative
    orthant, and takes a dual step.  H1..H4 are factored once before the
    loop, in the form ``w.form`` states (``build_subproblem`` always records
    it; without it the form is detected, see ``_SylvesterFactor``).
    Returns the feasible iterate Z (this is what gets stored as the
    factor) together with the updated workspace.
    """
    inner_iters = _check_int(inner_iters, "inner_iters")
    if inner_iters < 1:
        raise UsageError(f"inner_iters must be >= 1, got {inner_iters}")
    if not _check_real(w.rho, "rho") > 0:
        raise UsageError(f"constrained block updates need rho > 0, got {w.rho}")
    system = _SylvesterFactor(w.H1, w.H2, w.H3, w.H4, w.form)
    for _ in range(inner_iters):
        w.X = system.solve(w.H5_base + w.rho * (w.Z + w.U))
        w.Z = np.maximum(w.X - w.U, 0.0)
        w.U = w.U + (w.Z - w.X)
    return w.Z, w


def _solve_block_exact(w: AdmmWorkspace, block: str) -> np.ndarray:
    """Unconstrained exact block solve; one jitter retry on a finite, singular system.

    The retry factors a local copy of H1..H4 with the pencil's c jittered
    (H4 in the row form, H1 in the column form, never the P^T P of the form;
    a workspace without a stated form is taken to be in the row form).  The
    workspace keeps the system the objective's quadratic is read from.
    """
    h = [w.H1, w.H2, w.H3, w.H4]
    try:
        return _SylvesterFactor(*h, w.form).solve(w.H5_base)
    except NumericalError:
        if not all(np.isfinite(m).all() for m in (*h, w.H5_base)):
            raise
        i = 0 if w.form and w.form[0] else 3
        n = h[i].shape[0]
        jitter = 1e-12 * float(np.trace(h[i])) / n
        warnings.warn(
            f"block {block} system is numerically singular; retrying with "
            f"diagonal jitter {jitter:.3e} on H{i + 1}",
            RuntimeWarning,
            stacklevel=2,
        )
        h[i] = h[i] + jitter * np.eye(n)
        return _SylvesterFactor(*h, w.form).solve(w.H5_base)


def _normalize_pair(hsi, msi):
    """``(e, hsi / 2^e, msi / 2^e)`` with 2^e the power of two just above the largest entry.

    A power-of-two scaling is exact, so fusing the normalized pair and then
    multiplying C by ``2^e`` and the objective by ``4^e`` gives the result for
    the pair as given, while every absolute threshold of the solver sees data
    of unit scale.  The largest entry is used rather than the norm, whose
    square overflows for entries above about 1e154.  A pair that is all zero
    or not finite keeps ``e = 0``.
    """
    big = max(float(np.abs(hsi).max()), float(np.abs(msi).max()))
    e = math.frexp(big)[1] if math.isfinite(big) else 0
    # column-major copies, so that every unfold(., 3) of the pair is a view
    return e, *(np.ldexp(t, -e, out=np.empty(t.shape, order="F")) for t in (hsi, msi))


def _start(hsi, msi, ops: DegradationOps, cfg: FusionConfig):
    """Checked and normalized ``(e, hsi, msi)`` and the initial factors for them."""
    hsi = _check_tensor3(hsi, "hsi")
    msi = _check_tensor3(msi, "msi")
    dims = (msi.shape[0], msi.shape[1], hsi.shape[2])
    e, hsi, msi = _normalize_pair(hsi, msi)
    if cfg.init == "provided":
        f = cfg.init_factors.copy()
        if f.dims != dims:
            raise UsageError(f"provided factors give dims {f.dims}, data needs {dims}")
        if f.rank != cfg.rank:
            raise UsageError(f"provided factors have rank {f.rank}, config wants {cfg.rank}")
        f.C = np.ldexp(f.C, -e)
    else:
        f = init_factors(dims, cfg.rank, cfg.seed, cfg.init, msi=msi)
    _require_coupled_dims(f, hsi, msi, ops)
    return e, hsi, msi, f


def _block_score(w: AdmmWorkspace, z, data_sq: float) -> float | None:
    """The coupled objective at block value z, from the quadratic it was solved from.

    With the other blocks fixed the objective is ``data_sq - 2 <z, H5_base> +
    <z, H1 z H2 + H3 z H4> - rho ||z||^2``, ``data_sq = ||Y_H||^2 + ||Y_M||^2``.
    The quadratic is formed through the P of ``w.form`` and never multiplies by
    the identity: ``<P z, (P z) H2> + <z, z H4>`` in the row form,
    ``<z, H1 z> + <z P^T, H3 z P^T>`` in the column form.

    Returns None where the difference has lost digits to cancellation: below
    ``DENSE_SCORE_SHARE`` of the larger of ``data_sq`` and the quadratic's
    mass, the quadratic with every entry of z's side taken by magnitude and
    each Gram G by its Cauchy-Schwarz bound ``sqrt(G_ii G_jj)``.  The mass
    bounds the rounding of the Grams, which reaches far past ``data_sq``
    where the factors' columns nearly cancel.
    """
    transposed, p = w.form
    if transposed:
        zp = z @ p.T
        quad = np.vdot(z, w.H1 @ z) + np.vdot(zp, w.H3 @ zp)
        mass = (frob_norm(np.sqrt(np.diag(w.H1)) @ np.abs(z)) ** 2
                + frob_norm(np.sqrt(np.diag(w.H3)) @ np.abs(zp)) ** 2)
    else:
        pz = p @ z
        quad = np.vdot(pz, pz @ w.H2) + np.vdot(z, z @ w.H4)
        mass = (frob_norm(np.abs(pz) @ np.sqrt(np.diag(w.H2))) ** 2
                + frob_norm(np.abs(z) @ np.sqrt(np.diag(w.H4))) ** 2)
    j = float(data_sq - 2.0 * np.vdot(z, w.H5_base) + quad - w.rho * np.vdot(z, z))
    return j if j >= DENSE_SCORE_SHARE * max(data_sq, mass) else None


def _run(cfg: FusionConfig, method: str, start: float, e: int, update, finish,
         floor: float = -math.inf, broken=()) -> FusionResult:
    """Sweeps of ``update(block)`` over A -> B -> C, then ``finish()``: every run's one exit.

    ``update`` returns the objective after that block update, and
    ``finish()`` the factors and the values that end the trace (stage 2 of
    ``two_stage`` and its coupled objective).  Every stop is decided here:
    after ``cfg.outer_iters`` sweeps, or earlier when a sweep's last value
    moved by less than ``cfg.tol`` relative to the previous sweep's, or is at
    or below ``floor``.  A non-finite value, or a ``LinAlgError`` or
    NumericalError from ``update`` or ``finish``, raises NumericalError naming
    where it happened and carrying the trace so far; a failed block update's
    message ends with the recovery conditions ``broken`` names.  The factors
    and the trace are those of the pair normalized by ``2^-e``; C is scaled
    back by ``2^e`` and the trace by ``4^e`` here.
    """
    trace, failure, block = [], None, None

    def record(j):
        if not math.isfinite(j):
            raise NumericalError("the objective became non-finite")
        trace.append(j)

    try:
        for sweep in range(1, cfg.outer_iters + 1):
            for block in "ABC":
                record(update(block))
            j, prev = trace[-1], trace[-4] if sweep > 1 else None
            if j <= floor or (cfg.tol > 0 and prev is not None
                              and abs(prev - j) / max(abs(prev), 1e-30) < cfg.tol):
                break
        block = None
        f, tail = finish()
        for j in tail:
            record(j)
    except (np.linalg.LinAlgError, NumericalError) as exc:
        failure = exc
    trace = [math.ldexp(j, 2 * e) for j in trace]
    if failure is not None:
        place = (f"block {block} update failed at sweep {sweep}" if block
                 else f"spectral recovery from the HSI failed after sweep {sweep}")
        why = f"; failed recovery conditions: {'; '.join(broken)}" if block and broken else ""
        raise NumericalError(f"{place}: {failure}{why}", trace=trace) from failure
    f.C = np.ldexp(f.C, e)
    return FusionResult(
        factors=f,
        sri_estimate=btd_reconstruct(f),
        objective_trace=tuple(trace),
        iters_run=sweep,
        wall_time=time.perf_counter() - start,
        method=method,
    )


def bcd_fuse(hsi, msi, ops: DegradationOps, cfg: FusionConfig) -> FusionResult:
    """Fuse an HSI/MSI pair by cyclic block updates A -> B -> C.

    Runs the method selected in ``cfg`` (``two_stage`` is delegated to
    :func:`two_stage_recover`).  The objective value is recorded after every
    block update; iteration stops at ``outer_iters`` sweeps or earlier when
    the relative objective change between sweeps drops below ``tol``.
    """
    if cfg.method == "two_stage":
        return two_stage_recover(hsi, msi, ops, cfg)
    start = time.perf_counter()
    e, hsi, msi, f = _start(hsi, msi, ops, cfg)
    constrained = cfg.method in ("cnn_btd", "cnn_cpd")
    broken = (() if cfg.rank.uniform_L is None else check_coupled_identifiability(
        *msi.shape, *hsi.shape[:2], cfg.rank).failed_clauses)
    data_sq = frob_norm(hsi) ** 2 + frob_norm(msi) ** 2
    dual_state = {}

    def update(block):
        w = build_subproblem(block, f, hsi, msi, ops, cfg.rho if constrained else 0.0)
        w.U = dual_state.get(block, w.U)
        if constrained:
            new_value, w = admm_nn_block(w, cfg.inner_iters)
            dual_state[block] = w.U
        else:
            new_value = _solve_block_exact(w, block)
        if block == "C":
            f.C = new_value.T.copy()
        else:
            setattr(f, block, new_value)
        j = _block_score(w, new_value, data_sq)
        return objective(f, hsi, msi, ops) if j is None else j

    return _run(cfg, cfg.method, start, e, update, lambda: (f, ()), broken=broken)


def _min_norm_lstsq(w: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """``lstsq(w, y, rcond=None)``'s minimum-norm solution and the rank of ``w``.

    From the thin SVD ``w = U S V^T``: ``V_r (U_r^T y / s_r)`` over the
    singular values above ``eps * max(rows, cols) * s_max``, the ones
    ``lstsq`` keeps.  Never forms ``w^T w``, and with many right-hand sides
    it is several times faster than ``lstsq``.
    """
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    r = int(np.count_nonzero(s > np.finfo(np.float64).eps * max(w.shape) * s[:1]))
    return vt[:r].T @ ((u[:, :r].T @ y) / s[:r, None]), r


def recover_spectral_factor(hsi, ops: DegradationOps, a, b, rank: RankSpec) -> np.ndarray:
    """Least-squares spectral factor given fixed spatial factors.

    Solves ``unfold(hsi, 3) = K @ C^T`` where column r of K is
    ``vec((P1 A_r)(P2 B_r)^T)``, i.e. the spatially degraded block map.  The
    system determines C only when K has full column rank, which needs at
    least as many coarse pixels as blocks.
    """
    hsi = _check_tensor3(hsi, "hsi")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    k_mat = _block_maps(ops.P1 @ a, ops.P2 @ b, rank)
    sol, eff_rank = _min_norm_lstsq(k_mat, unfold(hsi, 3))
    if eff_rank < rank.R:
        raise NumericalError(
            "the spatially degraded block-map matrix is rank-deficient "
            f"(rank {eff_rank} < R = {rank.R}); the spectral factor is only "
            "recoverable when it has full column rank, which requires "
            f"I_H*J_H >= R (here {k_mat.shape[0]} coarse pixels) and "
            "linearly independent degraded maps"
        )
    return sol.T


def two_stage_recover(hsi, msi, ops: DegradationOps, cfg: FusionConfig) -> FusionResult:
    """Decouple the fusion: fit the MSI first, then read the spectra off the HSI.

    Stage 1 runs unconstrained alternating least squares on the MSI-only
    objective ``||Y_M - sum_r A_r B_r^T o (P3 C)_r||_F^2`` with the reduced
    spectral factor as an auxiliary variable (discarded afterwards); each
    update takes the minimum-norm solution from its explicit design's thin
    SVD, not from the normal equations, whose Gram squares the design's
    condition number; stage 2 recovers the full spectral factor from the HSI
    the same way.  The objective trace holds the stage-1 MSI residual after
    each block update, taken in the unfolding the update solved, then the
    final coupled objective of the assembled factors; a failed stage 2
    raises NumericalError carrying the stage-1 trace.
    """
    start = time.perf_counter()
    rank = cfg.rank
    e, hsi, msi, f0 = _start(hsi, msi, ops, cfg)
    # stage-1 factors, C holding the reduced spectral factor, and the MSI's unfoldings
    x = {"A": f0.A, "B": f0.B, "C": ops.P3 @ f0.C}
    y = {block: unfold(msi, mode) for mode, block in enumerate("ABC", 1)}
    msi_sq = frob_norm(msi) ** 2

    def update(block):
        a, b, c_m = x.values()
        w = (_block_maps(a, b, rank) if block == "C"
             else pw_khatri_rao(c_m, b if block == "A" else a, rank.L))
        sol = _min_norm_lstsq(w, y[block])[0]
        x[block] = sol.T
        # ||Y_M - X_M||^2 in the unfolding just solved: no block maps rebuilt
        return frob_norm(y[block] - w @ sol) ** 2

    def finish():
        # a non-finite spectral factor gives a non-finite coupled objective
        c = recover_spectral_factor(hsi, ops, x["A"], x["B"], rank)
        f = BtdFactors(x["A"], x["B"], c, rank)
        return f, (objective(f, hsi, msi, ops),)

    # a perfect MSI fit cannot improve further: stop there whatever tol says
    return _run(cfg, "two_stage", start, e, update, finish, floor=1e-28 * max(msi_sq, 1.0))


def init_factors(dims, rank: RankSpec, seed: int, strategy: str, msi=None) -> BtdFactors:
    """Deterministic starting factors for a given geometry and seed.

    ``random_uniform`` draws every entry uniform on [0, 1), then scales C so
    the model's reconstruction has Frobenius norm equal to ``||msi||_F`` (a
    crude but scale-correct anchor; skipped when no msi is given).
    ``svd_warm`` interpolates the MSI to the full band count, takes one SVD
    per block of its band-map matrix, and uses absolute values of the
    truncated components; no randomness involved.
    """
    i, j, k = dims = _check_dims(dims)
    seed = _check_int(seed, "seed")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    if msi is not None:
        msi = _check_tensor3(msi, "msi")
        if msi.shape[:2] != (i, j):
            raise UsageError(f"msi spatial dims {msi.shape[:2]} do not match {(i, j)}")
    if strategy == "random_uniform":
        rng = np.random.default_rng(seed)
        a = rng.uniform(size=(i, rank.total))
        b = rng.uniform(size=(j, rank.total))
        c = rng.uniform(size=(k, rank.R))
        f = BtdFactors(a, b, c, rank)
    elif strategy == "svd_warm":
        if msi is None:
            raise UsageError("svd_warm needs the msi tensor")
        f = _svd_warm_factors(dims, rank, msi)
    elif strategy == "provided":
        raise UsageError("pass pre-built factors via FusionConfig.init_factors")
    else:
        raise UsageError(f"unknown init strategy {strategy!r}")
    if msi is not None:
        # ||X||^2 = sum((C^T C spread over the blocks) o A^T A o B^T B): no reconstruction
        block = _partition(f.rank)[0]
        norm_sq = float(np.sum((f.C.T @ f.C)[np.ix_(block, block)] * (f.A.T @ f.A) * (f.B.T @ f.B)))
        if norm_sq > 0:
            f.C = f.C * (frob_norm(msi) / math.sqrt(norm_sq))
    return f


def _svd_warm_factors(dims: tuple[int, int, int], rank: RankSpec, msi) -> BtdFactors:
    i, j, k = dims
    k_m = msi.shape[2]
    if rank.R > min(i * j, k):
        raise UsageError(f"svd_warm needs R <= min(I*J, K) = {min(i * j, k)}, got R={rank.R}")
    if max(rank.L) > min(i, j):
        raise UsageError(f"svd_warm needs L <= min(I, J) = {min(i, j)}")
    # linear band interpolation as a (K, K_M) matrix applied along mode 3
    src, dst = np.linspace(0.0, 1.0, k_m), np.linspace(0.0, 1.0, k)
    t = np.stack([np.interp(dst, src, basis) for basis in np.eye(k_m)], axis=1)
    interp3 = unfold(msi, 3) @ t.T
    u, s, vt = np.linalg.svd(interp3, full_matrices=False)
    # the R leading left vectors as (I, J) maps, and one batched SVD of them
    us, ss, vts = np.linalg.svd(u[:, :rank.R].T.reshape(rank.R, j, i).transpose(0, 2, 1),
                                full_matrices=False)
    block, place = _partition(rank)
    root = np.sqrt(ss)[:, None, :]
    a = np.abs(us * root)[block, :, place].T
    b = np.abs(vts.transpose(0, 2, 1) * root)[block, :, place].T
    return BtdFactors(a, b, np.abs(s[:rank.R] * vt[:rank.R].T), rank)
