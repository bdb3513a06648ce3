"""Coupled fusion solvers.

Four methods share one block-coordinate skeleton over the factor blocks
A, B, C of the block-term model:

* ``cnn_btd`` / ``cnn_cpd``: each block solves a nonnegativity-constrained
  quadratic program by a fixed number of ADMM iterations (``cnn_cpd`` is the
  same algorithm with every block rank forced to 1).
* ``stereo``: each block solves the unconstrained quadratic exactly.
* ``two_stage``: fits the spatial factors to the MSI alone, then recovers
  the spectral factor from the HSI by linear least squares.  It fits the MSI
  compressed to its leading mode-1 and mode-2 subspaces of at most sum(L)
  dimensions, by Levenberg-Marquardt steps on that core where the core fit
  is small and then by sweeps of alternating least squares.

Every block subproblem is the same least squares problem, ``P^T P Y b + Y c
= rhs`` for Y = A, B or C: the operator P (P1, P2 or P3) acts on the unknown
in one data term, whose Gram is b, and c is the other term's Gram plus the
penalty.  Written as a generalized Sylvester equation ``H1 @ X @ H2 + H3 @ X
@ H4 = H5``, blocks A and B hold it as it stands, the row form (X = Y, H1 =
P^T P, H2 = b, H3 = I, H4 = c), and block C, whose unknown is X = C^T, holds
it transposed, the column form (H1 = c, H2 = I, H3 = b, H4 = P^T P, H5 =
rhs^T).  ``build_subproblem`` records each block's form in the workspace it
returns (``AdmmWorkspace.form = (transposed, P)``); only the public
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

The solver forms the dense data fit by one rule, ``_fit``: an image's
squared residual ``||c S^T - Y3^T||^2`` in its mode-3 unfolding Y3, with S
the block maps and c the spectral factor of its model.  ``objective()`` is
``_fit`` of the HSI with (P1 A, P2 B, C) plus ``_fit`` of the MSI with (A, B,
P3 C); every stage-1 trace entry of ``two_stage`` is ``_fit`` of the MSI's
core with the stage-1 factors, plus the residual the compression leaves.
Levenberg-Marquardt on the core forms its residual from the core's
Khatri-Rao matrix instead (``_core_fit``), which its Gauss-Newton system
(``_core_normal_equations``) reuses.

With a stated form the factor takes the thin SVD ``P = U S Q1^T``, so that
``P^T P = Q1 S^2 Q1^T`` with min(rows, cols) columns in Q1.  The operators
have fewer rows than columns (I/d of I for P1 and P2, K_M of K for P3), and
on the directions Q1 leaves out the eigenvalue is 0 and the divisor is 1, so
``Y = (G + Q1 ((Q1^T G) o (1 / den1 - 1))) V^T`` with ``G = rhs V``.  Every
solve, in a stated or a detected form, is checked by one residual in the
same coordinates, ``||a Y b + Y c - rhs||`` against
``SYLVESTER_RESIDUAL_RTOL``, with no product by the identity: ``a Y b`` is
``P^T ((P Y) b)`` for a stated form and ``(a Y) b``, with the decomposed a
(h1 or h4), for a detected one.

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
    _require_ops_fit,
    _stack,
    btd_reconstruct,
    check_coupled_identifiability,
)
from .tensor_ops import _check_dims, _check_int, _check_matrix, _check_real, _check_tensor3
from .tensor_ops import frob_norm, kronecker, mode_product, pw_khatri_rao, unfold, unvec, vec

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
        Its entries must be finite.
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
        # only the constrained methods run the ADMM steps that inner_iters counts
        inner_least = 1 if self.method in ("cnn_btd", "cnn_cpd") else None
        for name, least in (("outer_iters", 1), ("inner_iters", inner_least), ("seed", 0)):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, least))
        if not (isinstance(self.rho, str) and self.rho == "auto"):
            object.__setattr__(self, "rho", _check_real(self.rho, "rho"))
            if not 0 < self.rho < math.inf:
                raise UsageError(f"rho must be positive and finite or 'auto', got {self.rho!r}")
        object.__setattr__(self, "tol", _check_real(self.tol, "tol"))
        if not self.tol >= 0:
            raise UsageError(f"tol must be >= 0, got {self.tol!r}")
        if self.init not in INIT_STRATEGIES:
            raise UsageError(f"unknown init {self.init!r}; choose from {INIT_STRATEGIES}")
        # _start reads init_factors only for "provided": with any other init they would be ignored
        if (self.init == "provided") != (self.init_factors is not None):
            raise UsageError(f"cfg.init_factors is needed with init='provided' and refused with "
                             f"any other init, got init={self.init!r}")
        f = self.init_factors
        if f is not None:
            if not isinstance(f, BtdFactors):
                raise UsageError(f"cfg.init_factors must be a BtdFactors, got {type(f).__name__}")
            if not all(np.isfinite(m).all() for m in (f.A, f.B, f.C)):
                raise UsageError("cfg.init_factors holds non-finite entries (NaN or Inf)")
        if self.method == "cnn_cpd":
            object.__setattr__(self, "rank", RankSpec(self.rank.R, 1))


@dataclass
class AdmmWorkspace:
    """State of one block's constrained quadratic subproblem.

    H1..H4 are the (symmetric) coefficient matrices of the Sylvester system,
    H5_base the data part of its right-hand side; Z is the feasible split
    variable (what gets stored back into the factors), U the scaled dual, and
    X the most recent unconstrained solve.  Z and U persist across sweeps as
    warm starts.  Every block's system is ``P^T P Y b + Y c = rhs``;
    ``form = (transposed, P)`` states how the workspace holds it, as
    ``build_subproblem`` records it: as it stands for A, ``(False, P1)``, and
    B, ``(False, P2)`` (X = Y, H1 = P^T P, H2 = b, H3 = I, H4 = c), and
    transposed for C, ``(True, P3)`` (X = C^T, H1 = c, H2 = I, H3 = b,
    H4 = P^T P).  A workspace without it has its form detected from H1..H4.
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
    """Coupled data-fit value: squared residual on the HSI plus on the MSI.

    ``||Y_H - [[P1 A, P2 B, C]]||^2 + ||Y_M - [[A, B, P3 C]]||^2``, each term
    taken in its image's mode-3 unfolding by :func:`_fit`, with no degraded
    factors copied and no dense model tensor formed.
    """
    hsi, msi = _require_coupled_dims(f, hsi, msi, ops)
    return (_fit(unfold(hsi, 3), f.C, _block_maps(ops.P1 @ f.A, ops.P2 @ f.B, f.rank))
            + _fit(unfold(msi, 3), ops.P3 @ f.C, _block_maps(f.A, f.B, f.rank)))


def _fit(y3, c, maps) -> float:
    """``||c maps^T - Y3^T||^2``, the squared residual of the model ``maps c^T`` of ``Y3``.

    ``Y3`` is an image's mode-3 unfolding, ``maps`` its model's block maps and
    ``c`` the model's spectral factor.  The (K, I*J) difference is formed in
    place; for a column-major image ``Y3^T`` is a view in its own memory
    order, so no array changes layout.  A square past the float range is inf.
    """
    fit = c @ maps.T
    fit -= y3.T
    norm = frob_norm(fit)
    return norm * norm


def _require_coupled_dims(f, hsi, msi, ops):
    """The checked ``(hsi, msi)``, refused unless ``ops`` map an image of ``f.dims`` to them."""
    hsi, msi = _check_tensor3(hsi, "hsi"), _check_tensor3(msi, "msi")
    p1, p2, p3 = _require_ops_fit(f, ops)
    i, j, k = f.dims
    if hsi.shape != (p1.shape[0], p2.shape[0], k):
        raise UsageError(f"hsi is {hsi.shape}, expected {(p1.shape[0], p2.shape[0], k)}")
    if msi.shape != (i, j, p3.shape[0]):
        raise UsageError(f"msi is {msi.shape}, expected {(i, j, p3.shape[0])}")
    return hsi, msi


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
    if c != 0.0 and np.abs(m - c * np.eye(n)).max() <= 1e-12 * abs(c):
        return c
    return None


def _require_symmetric(m, name):
    scale = np.abs(m).max() if m.size else 0.0
    if np.abs(m - m.T).max() > 1e-10 * scale:
        raise UsageError(f"{name} must be symmetric")


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


# rows per block of _tril_inv
_TRIL_BLOCK = 48


def _tril_inv(l: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular matrix l, one block of rows at a time.

    With ``l = [[L11, 0], [L21, L22]]`` the inverse is
    ``[[L11^-1, 0], [-L22^-1 L21 L11^-1, L22^-1]]``; each row block costs one
    small dense inverse and two GEMMs, where ``np.linalg.inv(l)`` would run
    a general LU inverse of the whole matrix.
    """
    n = l.shape[0]
    x = np.zeros_like(l)
    for j in range(0, n, _TRIL_BLOCK):
        e = min(j + _TRIL_BLOCK, n)
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
    """``(transposed, c)`` of the best applicable form of h1..h4.

    The row form applies when ``h3 = c3 I`` (``c = c3 h4``), the column form
    when ``h2 = c2 I`` (``c = c2 h1``).  Of the forms whose c is positive
    definite it takes the one whose Cholesky diagonal has the largest ratio of
    smallest to largest entry: Cholesky can succeed on a numerically singular
    c.  A tie, as when no c is positive definite, goes to the first form.
    """
    scales = ((False, _identity_scale(h3), h4), (True, _identity_scale(h2), h1))
    forms = [(transposed, s * c) for transposed, s, c in scales if s is not None]
    if not forms:
        raise UsageError(
            "neither h3 nor h2 is a scalar multiple of the identity; "
            "use sylvester_solve_dense for general systems"
        )

    def ratio(form):
        return 0.0 if (l := _cholesky(form[1])) is None else np.diag(l).min() / np.diag(l).max()

    return max(forms, key=ratio)


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
    against the residual bound by ``||a Y b + Y c - rhs||``, which equals
    ``||h1 X h2 + h3 X h4 - h5||`` (``a Y b`` is formed through P for a
    stated form, with ``self.a`` for a detected one).  With a stated form Q
    has min(rows, cols) columns and the solve adds back the directions Q
    leaves out (``gain = 1/den - 1``; see the module docstring).
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
        self.shape = (m, n)
        if form is None:
            transposed, c = _detect_form(h1, h2, h3, h4)
            self.a, self.p = h4 if transposed else h1, None
            lam, self.q = np.linalg.eigh(self.a)
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
        # ||h1 X h2 + h3 X h4 - h5|| as ||a y b + y c - rhs||, with a = P^T P if the form is stated
        ayb = self.a @ y @ self.b if self.p is None else self.p.T @ ((self.p @ y) @ self.b)
        x = y.T if self.transposed else y
        return _require_residual(frob_norm(ayb + y @ self.c - rhs), h5, x)


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
    x = unvec(sol, m, n)
    return _require_residual(frob_norm(h1 @ x @ h2 + h3 @ x @ h4 - h5), h5, x)


def _resolve_rho(rho, gram: np.ndarray) -> float:
    if isinstance(rho, str) and rho == "auto":
        val = float(np.trace(gram)) / len(gram)
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

    Every block solves ``P^T P Y b + Y c = rhs`` for its factor Y: b and the
    right-hand side ``r_p`` come from the data term whose operator P acts on
    Y (the HSI term with P1 or P2 for A and B, the MSI term with P3 for C), c
    and ``r_c`` from the other term, with the penalty ``rho`` added to c's
    diagonal, and ``rhs = P^T r_p + r_c``.  A and B are stored as they stand,
    ``form = (False, P1)`` or ``(False, P2)``: H1 = P^T P, H2 = b, H3 = I,
    H4 = c.  Block C's unknown is C^T and its system is stored transposed,
    ``form = (True, P3)``: H1 = c, H2 = I, H3 = b, H4 = P^T P, H5 = rhs^T.
    Z starts at the current factor value (C^T for block C) and U at zero;
    callers that warm-start replace them afterwards.
    """
    hsi, msi = _require_coupled_dims(f, hsi, msi, ops)
    rank = f.rank
    p1, p2, p3 = ops.P1, ops.P2, ops.P3
    # each data term as the (y, u, v) of _normal_equations
    if block == "C":
        p, mode, on_p, other = p3, 3, (msi, f.A, f.B), (hsi, p1 @ f.A, p2 @ f.B)
    elif block in ("A", "B"):
        # the HSI term pairs C with the degraded partner factor q @ partner,
        # the MSI term P3 C with the partner itself
        p, q, partner, mode = (p1, p2, f.B, 1) if block == "A" else (p2, p1, f.A, 2)
        on_p, other = (hsi, f.C, q @ partner), (msi, p3 @ f.C, partner)
    else:
        raise UsageError(f"block must be 'A', 'B' or 'C', got {block!r}")
    b, r_p = _normal_equations(*on_p, rank, mode)
    c, r_c = _normal_equations(*other, rank, mode)
    rho_val = _resolve_rho(rho, c)
    c = c + rho_val * np.eye(len(c))
    transposed = block == "C"
    ptp, eye = p.T @ p, np.eye(p.shape[1])
    # for C, (Wm^T Y3) P3 and not Wm^T (Y3 P3): no (I*J, K) temporary
    h = (c, eye, b, ptp, r_c + r_p @ p) if transposed else (ptp, b, eye, c, p.T @ r_p + r_c)
    z = (f.C.T if transposed else getattr(f, block)).copy()
    return AdmmWorkspace(*h, Z=z, U=np.zeros_like(z), rho=rho_val, form=(transposed, p))


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
    inner_iters = _check_int(inner_iters, "inner_iters", 1)
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
    keeps ``e = 0``.  This is a fusion run's one finite-data rule: an image
    with a NaN or Inf entry has a non-finite largest entry (``max`` passes a
    NaN on), and it raises NumericalError naming the image, with an empty
    trace, before any start is drawn or any block is solved.
    """
    big = [float(np.abs(t).max()) for t in (hsi, msi)]
    for name, m in zip(("HSI", "MSI"), big):
        if not math.isfinite(m):
            raise NumericalError(f"the {name} holds non-finite entries (NaN or Inf)", trace=[])
    e = math.frexp(max(big))[1]
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
    The quadratic is formed in every block's row form ``P^T P Y b + Y c``,
    through the P of ``w.form`` and never multiplying by the identity:
    ``<P y, (P y) b> + <y, y c>`` with ``(y, b, c) = (z, H2, H4)``, or
    ``(z^T, H3, H1)`` for a workspace that holds its system transposed.

    Returns None where the difference has lost digits to cancellation: below
    ``DENSE_SCORE_SHARE`` of the larger of ``data_sq`` and the quadratic's
    mass, the quadratic with every entry of z's side taken by magnitude and
    each Gram G by its Cauchy-Schwarz bound ``sqrt(G_ii G_jj)``.  The mass
    bounds the rounding of the Grams, which reaches far past ``data_sq``
    where the factors' columns nearly cancel.
    """
    transposed, p = w.form
    y, b, c = (z.T, w.H3, w.H1) if transposed else (z, w.H2, w.H4)
    py = p @ y
    quad = np.vdot(py, py @ b) + np.vdot(y, y @ c)
    mass = (frob_norm(np.abs(py) @ np.sqrt(np.diag(b))) ** 2
            + frob_norm(np.abs(y) @ np.sqrt(np.diag(c))) ** 2)
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
            j, before = trace[-1], trace[-4] if sweep > 1 else None
            if j <= floor or (cfg.tol > 0 and before is not None
                              and abs(before - j) / max(abs(before), 1e-30) < cfg.tol):
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
    the relative objective change between sweeps drops below ``tol``.  A
    pair with a NaN or Inf entry raises NumericalError naming the image
    before any work, with an empty trace (:func:`_normalize_pair`).
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
        setattr(f, block, new_value.T.copy() if block == "C" else new_value)
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
    least as many coarse pixels as blocks.  An HSI, ``a`` or ``b`` that holds
    NaN or Inf, or a solution that overflows, raises NumericalError.
    """
    hsi = _check_tensor3(hsi, "hsi")
    a, b = _check_matrix(a, "a"), _check_matrix(b, "b")
    p1, p2 = ops.P1.shape, ops.P2.shape
    for name, got, want in (("a", a.shape, (p1[1], rank.total)),
                            ("b", b.shape, (p2[1], rank.total)),
                            ("hsi's spatial size", hsi.shape[:2], (p1[0], p2[0]))):
        if got != want:
            raise UsageError(f"{name} is {got}, the operators and rank need {want}")
    for name, m in (("the HSI", hsi), ("a", a), ("b", b)):
        if not np.isfinite(m).all():
            raise NumericalError(f"{name} holds non-finite entries (NaN or Inf)")
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
    if not np.isfinite(sol).all():
        raise NumericalError("the least-squares spectral factor is non-finite "
                             "(the solve overflowed)")
    return sol.T


# Levenberg-Marquardt starts two_stage's stage 1 only while the core fit has
# at most this many parameters, (min(sum(L), I_M) + min(sum(L), J_M)) sum(L)
# + K_M R (a 6x6x2 MSI at R4L2 has 104), since its damped system is solved
# densely.  At the benchmark's 145x145 MSI of 4 bands (one BLAS thread) a
# step takes about 0.25 ms at the 84 parameters of R3L2.  Against 15-31 ms
# for the 20 sweeps on the core, LM alone took 67-78 ms at the 220 of R5L2,
# 88-210 ms at the 312 of R6L2 and 232-288 ms at the 420 of R7L2, and it
# lifted the estimate's R-SNR by 8-16 dB at each.
_LM_MAX_PARAMS = 250
# steps, taken or refused, after which Levenberg-Marquardt stops
_LM_MAX_STEPS = 200


def _compress(msi, n: int):
    """``(U, V, G, offset)``: the MSI compressed to its leading mode-1 and mode-2 subspaces.

    U and V span the MSI's leading mode-1 and mode-2 subspaces of min(n, I_M)
    and min(n, J_M) dimensions: the top eigenvectors of the Gram of
    ``unfold(msi, 1)`` or ``unfold(msi, 2)``, at a fraction of the cost of the
    unfolding's thin SVD, refined by one step of orthogonal iteration on the
    unfolding itself.  The Gram squares the unfolding's condition number, and
    so the error of its eigenvectors: on noiseless data it alone left the
    offset at 1e-29 to 1.3e-28 of ``||Y||^2``, which the exact-fit floor does
    not always clear, and the step takes it to rounding level, 1e-31.  Where
    n reaches a mode's size, its basis is a full orthonormal one: G is then
    the MSI rotated in that mode, and the offset is at rounding level.  ``G =
    Y x1 U^T x2 V^T`` is the core, and ``offset = ||Y - G x1 U x2 V||^2`` is
    taken densely, once: ``||Y||^2 - ||G||^2`` would cancel to about 1e-16
    ``||Y||^2``, above the exact-fit floor of a noiseless MSI.  For every
    model ``M = M' x1 U x2 V`` Pythagoras gives ``||Y - M||^2 = ||G - M'||^2 +
    offset``, whatever orthonormal U and V are taken; their choice bears on
    how well the core can be fit, not on what its residual means.  The MSI
    is finite: a fusion run refuses a non-finite pair before it gets here
    (:func:`_normalize_pair`).
    """

    def subspace(y):  # eigh orders the eigenvalues up: the last min(n, dim), largest first
        top = np.linalg.eigh(y.T @ y)[1][:, :-min(n, y.shape[1]) - 1:-1]
        return np.linalg.qr(y.T @ (y @ top))[0]

    u, v = subspace(unfold(msi, 1)), subspace(unfold(msi, 2))
    core = mode_product(mode_product(msi, u.T, 1), v.T, 2)
    offset = frob_norm(msi - mode_product(mode_product(core, u, 1), v, 2)) ** 2
    return u, v, core, offset


def _spread(rank: RankSpec) -> np.ndarray:
    """The (sum(L), R) matrix with a 1 where factor column l lies in block r, else 0."""
    return np.equal.outer(_partition(rank)[0], np.arange(rank.R)).astype(np.float64)


def _core_fit(y3, a, b, c, spread):
    """``(e, kr, c_x)``: the residual ``e = kr c_x^T - Y3`` of the model (a, b, c) of the core.

    ``Y3`` is the core's mode-3 unfolding, ``c_x = c spread^T`` is c spread
    over the factor columns, and column l of the Khatri-Rao matrix ``kr`` is
    ``vec(a_l b_l^T)``, so that ``kr spread`` is the block maps.
    """
    c_x = c @ spread.T
    kr = (b[:, None, :] * a[None, :, :]).reshape(-1, a.shape[1])
    return kr @ c_x.T - y3, kr, c_x


def _core_normal_equations(y3, a, b, c, spread):
    """``(f, H, g)`` of the core model (a, b, c) (see :func:`_core_fit`), for Gauss-Newton steps.

    With e the residual, column-major, and J its Jacobian in the parameters
    ``(vec(a), vec(b), vec(c))``: ``f = ||e||^2``, ``H = J^T J`` and ``g =
    J^T e``.  J is never formed.  The model is the CPD of ``(a, b, c_x)``,
    whose J^T J (Phan, Tichavsky & Cichocki, SIAM J. Matrix Anal. Appl. 2013)
    has the blocks ``G_q kron I`` on its diagonal and ``[l, s, m, t] =
    G_qp[l, m] F_q[s, m] F_p[t, l]`` off it, for factors F_q and F_p, each G
    being the Hadamard product of the other factors' Grams; c's rows and
    columns sum c_x's over each block (``spread``).
    """
    e, kr, c_x = _core_fit(y3, a, b, c, spread)
    pa, pb, n = a.size, b.size, a.shape[1]
    t = (e @ c_x).reshape(len(b), len(a), n)  # t[j, i, l] = sum_k e[i, j, k] c_x[k, l]
    g = np.concatenate((np.einsum("jil,jl->li", t, b).ravel(),
                        np.einsum("jil,il->lj", t, a).ravel(), (spread.T @ (kr.T @ e)).ravel()))
    ga, gb, gc = a.T @ a, b.T @ b, c_x.T @ c_x
    h = np.zeros((len(g), len(g)))
    ha, hb, hc = h[:pa], h[pa:pa + pb], h[pa + pb:]
    for diag, rows, gram in ((ha[:, :pa], len(a), gb * gc), (hb[:, pa:pa + pb], len(b), ga * gc),
                             (hc[:, pa + pb:], len(c), spread.T @ (ga * gb) @ spread)):
        r = np.arange(rows)
        diag.reshape(len(gram), rows, len(gram), rows)[:, r, :, r] = gram
    ha[:, pa:pa + pb] = (gc[:, None, :, None] * a[None, :, :, None]
                         * b.T[:, None, None, :]).reshape(pa, pb)
    for rows, f, gram in ((ha, a, gb), (hb, b, ga)):
        # sum over the columns m of each block of gram[l, m] f[s, m], times c_x[k, l]
        rows[:, pa + pb:] = (((f[None] * gram[:, None, :]) @ spread)[..., None]
                             * c_x.T[:, None, None, :]).reshape(f.size, -1)
    hb[:, :pa] = ha[:, pa:pa + pb].T
    hc[:, :pa + pb] = h[:pa + pb, pa + pb:].T
    return np.vdot(e, e), h, g


def _levenberg_marquardt(y3, x: dict, rank: RankSpec) -> list:
    """Move the stage-1 factors ``x`` of the core whose mode-3 unfolding is ``y3`` by LM steps.

    Each step solves ``(H + lam D) delta = -g``, with H and g from
    :func:`_core_normal_equations` and Marquardt's damping D = diag(H), each
    entry kept at or above 1e-12 of the largest so that the system stays
    definite.  It is solved as ``(D^-1/2 H D^-1/2 + lam I) D^1/2 delta =
    -D^-1/2 g``, whose matrix has a unit diagonal and does not change when a
    factor is scaled by a power of two, so the steps scale with the data
    exactly.  A step is taken only when it lowers the core residual: the
    residual never rises.  lam starts at 1e-3 and follows Nielsen's rule
    (Madsen, Nielsen & Tingleff, *Methods for Non-Linear Least Squares
    Problems*, 2004): after a step taken it scales by ``max(1/3, 1 - (2 rho -
    1)^3)``, rho being the decrease over the one the linear model predicted,
    and after a step refused by 2, 4, 8, ...  It stops after a step that
    lowers the residual by at most 1e-12 of it, once the residual is at most
    1e-28 of ``||Y3||^2`` (an exact fit), once no parameter moves the model
    or the damped step no longer moves the point, or after ``_LM_MAX_STEPS``
    steps taken or refused.  Returns the residuals of the points taken, the
    start's first.
    """
    spread, shapes = _spread(rank), [m.shape for m in x.values()]
    ends = np.cumsum([m.size for m in x.values()])

    def factors(theta):  # views of a, b and c in the parameter vector
        return [theta[end - math.prod(s):end].reshape(s[::-1]).T for end, s in zip(ends, shapes)]

    def at(theta):  # the residual, the scaled system and D^-1/2 at theta
        f, h, g = _core_normal_equations(y3, *factors(theta), spread)
        d = np.diag(h)
        scale = 1.0 / np.sqrt(np.maximum(d, 1e-12 * d.max())) if d.max() > 0 else None
        return f, h, g, scale

    theta = np.concatenate([m.ravel(order="F") for m in x.values()])
    f, h, g, scale = at(theta)
    taken, lam, nu, exact = [f], 1e-3, 2.0, 1e-28 * np.vdot(y3, y3)
    for _ in range(_LM_MAX_STEPS):
        if not (f > exact and scale is not None):
            break
        damped = scale[:, None] * h * scale
        damped[np.diag_indices_from(damped)] += lam
        try:
            delta = scale * np.linalg.solve(damped, -scale * g)
        except np.linalg.LinAlgError:  # too little damping for the gauge's null directions
            lam, nu = lam * nu, 2.0 * nu
            continue
        new = theta + delta
        if np.array_equal(new, theta):  # damped below rounding: no step moves the point
            break
        e = _core_fit(y3, *factors(new), spread)[0]
        f_new = np.vdot(e, e)
        if not f_new < f:
            lam, nu = lam * nu, 2.0 * nu
            continue
        theta = new
        taken.append(f_new)
        if f - f_new <= 1e-12 * f:
            break
        rho = (f - f_new) / -(delta @ (2.0 * g + h @ delta))
        lam, nu = lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        f, h, g, scale = at(theta)
    x.update(zip(x, (m.copy() for m in factors(theta))))
    return taken


def _stage1_data(msi, x: dict, rank: RankSpec):
    """``(y, offset, lift)``: the MSI's core for two_stage's stage 1, with ``x`` started on it.

    ``y`` maps "A", "B" and "C" to the unfoldings 1, 2 and 3 of the MSI's
    core (:func:`_compress`), and ``offset`` plus the core's residual is the
    MSI's.  x's A and B are projected to ``U^T A`` and ``V^T B``,
    Levenberg-Marquardt moves x (:func:`_levenberg_marquardt`) while the core
    fit has at most ``_LM_MAX_PARAMS`` parameters, and ``lift`` is (U, V),
    which map the core's A and B back to the MSI's.
    """
    *lift, core, offset = _compress(msi, rank.total)
    x["A"], x["B"] = lift[0].T @ x["A"], lift[1].T @ x["B"]
    y = {block: unfold(core, mode) for mode, block in enumerate("ABC", 1)}
    if sum(m.size for m in x.values()) <= _LM_MAX_PARAMS:
        _levenberg_marquardt(y["C"], x, rank)
    return y, offset, lift


def two_stage_recover(hsi, msi, ops: DegradationOps, cfg: FusionConfig) -> FusionResult:
    """Decouple the fusion: fit the MSI first, then read the spectra off the HSI.

    Stage 1 runs unconstrained alternating least squares on the MSI-only
    objective ``||Y_M - sum_r A_r B_r^T o (P3 C)_r||_F^2`` with the reduced
    spectral factor as an auxiliary variable (discarded afterwards); each
    update takes the minimum-norm solution from its explicit design's thin
    SVD, not from the normal equations, whose Gram squares the design's
    condition number; stage 2 recovers the full spectral factor from the HSI
    the same way.  Each update minimizes the MSI residual over its block, so
    no stage-1 entry rises past rounding.

    Stage 1 fits the MSI's core, the MSI compressed to its leading mode-1 and
    mode-2 subspaces U and V of min(sum(L), I_M) and min(sum(L), J_M)
    dimensions (compress, decompose, refine: Bro & Andersson, Chemometrics
    Intell. Lab. Syst. 1998; De Lathauwer & Nion 2008, Part III).  Where
    sum(L) reaches a mode's size, its basis is a full orthonormal one, a
    rotation, under which the minimum-norm updates are those of the MSI
    itself.  Levenberg-Marquardt on the core, from the projected start, comes
    before the sweeps while the core fit is small enough
    (``_LM_MAX_PARAMS``), and stage 2 takes ``A = U A'`` and ``B = V B'``
    (see :func:`_stage1_data`).  On cli-roundtrip's instances that lowers the
    estimate's nrmse about tenfold, where 20 sweeps alone stay in ALS's
    swamp.  Every stage-1 entry is the core's residual plus the offset
    ``||Y - G x1 U x2 V||^2``, which by Pythagoras is the MSI's residual of
    the lifted factors.

    The objective trace holds the stage-1 MSI residual after each block
    update, taken in the mode-3 unfolding by :func:`_fit` as the coupled
    objective is; then the final coupled objective of the assembled factors.
    A pair with a NaN or Inf entry raises NumericalError naming the image
    before stage 1, with an empty trace (:func:`_normalize_pair`).  A failed
    compression or LM start fails block A's update of sweep 1; a failed
    stage 2 raises NumericalError carrying the stage-1 trace.
    """
    start = time.perf_counter()
    rank = cfg.rank
    e, hsi, msi, f0 = _start(hsi, msi, ops, cfg)
    # stage-1 factors, C holding the reduced spectral factor
    x = {"A": f0.A, "B": f0.B, "C": ops.P3 @ f0.C}
    data = []  # _stage1_data's (y, offset, lift), from the first update

    def update(block):
        if not data:  # here, so that a failure names block A and sweep 1
            data.extend(_stage1_data(msi, x, rank))
        y, offset, _ = data
        a, b, c_m = x.values()
        w = (_block_maps(a, b, rank) if block == "C"
             else pw_khatri_rao(c_m, b if block == "A" else a, rank.L))
        x[block] = _min_norm_lstsq(w, y[block])[0].T
        # the C update's design is the block maps; the A and B updates rebuild them
        j = _fit(y["C"], x["C"], w if block == "C" else _block_maps(x["A"], x["B"], rank))
        return offset + j

    def finish():
        a, b = (m @ x[k] for m, k in zip(data[2], "AB"))  # A = U A', B = V B'
        c = recover_spectral_factor(hsi, ops, a, b, rank)
        f = BtdFactors(a, b, c, rank)
        return f, (objective(f, hsi, msi, ops),)

    # a perfect MSI fit cannot improve further: stop there whatever tol says
    floor = 1e-28 * max(frob_norm(msi) ** 2, 1.0)
    return _run(cfg, "two_stage", start, e, update, finish, floor=floor)


def init_factors(dims, rank: RankSpec, seed: int, strategy: str, msi=None) -> BtdFactors:
    """Deterministic starting factors for a given geometry and seed.

    ``random_uniform`` draws every entry uniform on [0, 1), then scales C so
    the model's reconstruction has Frobenius norm equal to ``||msi||_F`` (a
    crude but scale-correct anchor; skipped when no msi is given).
    ``svd_warm`` interpolates the MSI to the full band count, takes one SVD
    per block of its band-map matrix, and uses absolute values of the
    truncated components; no randomness involved.  An msi with a NaN or Inf
    entry raises UsageError.
    """
    i, j, k = dims = _check_dims(dims)
    seed = _check_int(seed, "seed", 0)
    if msi is not None:
        msi = _check_tensor3(msi, "msi")
        if msi.shape[:2] != (i, j):
            raise UsageError(f"msi spatial dims {msi.shape[:2]} do not match {(i, j)}")
        msi_norm = frob_norm(msi)  # finite for every finite msi
        if not math.isfinite(msi_norm):
            raise UsageError("msi holds non-finite entries (NaN or Inf)")
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
            f.C = f.C * (msi_norm / math.sqrt(norm_sq))
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
