"""Sylvester solves, ADMM blocks, and the coupled fusion drivers."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btdfuse import (
    BtdFactors,
    FusionConfig,
    NoiseSpec,
    NumericalError,
    RankSpec,
    UsageError,
    add_noise,
    apply_degradation,
    bcd_fuse,
    btd_reconstruct,
    degrade_factors,
    frob_norm,
    init_factors,
    make_degradation_ops,
    objective,
    pw_khatri_rao,
    r_snr,
    recover_spectral_factor,
    sylvester_solve,
    sylvester_solve_dense,
    unfold,
)
from btdfuse.solver import AdmmWorkspace, admm_nn_block, build_subproblem


def oracle_sylvester(h1, h2, h3, h4, h5):
    """Solve H1 X H2 + H3 X H4 = H5 through the vectorized normal system."""
    n, m = h5.shape
    big = np.kron(h2.T, h1) + np.kron(h4.T, h3)
    return np.linalg.solve(big, h5.ravel(order="F")).reshape((n, m), order="F")


def spd(rng, n, shift=0.5):
    m = rng.standard_normal((n + 2, n))
    return m.T @ m + shift * np.eye(n)


def psd(rng, n):
    m = rng.standard_normal((n + 1, n))
    return m.T @ m


def coupled_instance(seed, dims=(12, 12, 8), rank=RankSpec(2, 2), K_M=3, snr=None, d=2):
    rng = np.random.default_rng(seed)
    i, j, k = dims
    truth = BtdFactors(
        rng.uniform(size=(i, rank.total)),
        rng.uniform(size=(j, rank.total)),
        rng.uniform(size=(k, rank.R)),
        rank,
    )
    sri = btd_reconstruct(truth)
    ops = make_degradation_ops(i, j, k, K_M=K_M, kernel_size=3, sigma=1.0, d=d)
    hsi, msi = apply_degradation(sri, ops)
    if snr is not None:
        hsi = add_noise(hsi, NoiseSpec(snr, seed + 1))
        msi = add_noise(msi, NoiseSpec(snr, seed + 2))
    return truth, sri, ops, hsi, msi


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_at_exact_factors():
    truth, _, ops, hsi, msi = coupled_instance(0)
    scale = frob_norm(hsi) ** 2 + frob_norm(msi) ** 2
    assert objective(truth, hsi, msi, ops) <= 1e-18 * scale


def test_objective_zero_factors_gives_data_energy():
    truth, _, ops, hsi, msi = coupled_instance(1)
    f = truth.copy()
    f.A[:] = 0.0
    expected = frob_norm(hsi) ** 2 + frob_norm(msi) ** 2
    assert objective(f, hsi, msi, ops) == pytest.approx(expected, rel=1e-12)


def test_objective_matches_reconstruction_route():
    truth, _, ops, hsi, msi = coupled_instance(2, snr=20.0)
    f = init_factors((12, 12, 8), truth.rank, seed=3, strategy="random_uniform", msi=msi)
    f_h, f_m = degrade_factors(f, ops)
    expected = (
        frob_norm(hsi - btd_reconstruct(f_h)) ** 2
        + frob_norm(msi - btd_reconstruct(f_m)) ** 2
    )
    assert objective(f, hsi, msi, ops) == pytest.approx(expected, rel=1e-12)


def test_objective_is_inf_past_the_float_range():
    # a finite fit whose squared norm leaves the float range is inf; squaring
    # its norm as a Python float used to raise a bare OverflowError
    truth, _, ops, hsi, msi = coupled_instance(0)
    f = truth.copy()
    f.C *= 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert objective(f, hsi, msi, ops) == np.inf


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray], ids=["C", "F"])
@pytest.mark.parametrize("rank", [RankSpec(2, 2), RankSpec(3, (1, 2, 3)), RankSpec(1, 1)],
                         ids=["R2L2", "R3L123", "R1"])
def test_objective_is_the_dense_fit_of_the_degraded_models(rank, layout):
    # the objective takes each term in its image's mode-3 unfolding, with no
    # degraded factors copied and no model tensor formed; it is the dense
    # formula to the last bits in either memory layout of the pair
    _, _, ops, hsi, msi = coupled_instance(4, rank=rank, snr=30.0)
    hsi, msi = layout(hsi), layout(msi)
    f = init_factors((12, 12, 8), rank, seed=5, strategy="random_uniform", msi=msi)
    f_h, f_m = degrade_factors(f, ops)
    dense = (frob_norm(hsi - btd_reconstruct(f_h)) ** 2
             + frob_norm(msi - btd_reconstruct(f_m)) ** 2)
    assert abs(objective(f, hsi, msi, ops) - dense) <= 1e-14 * dense


# ---------------------------------------------------------------------------
# sylvester_solve


def test_sylvester_identity_halving():
    h5 = np.array([[2.0, 4.0], [6.0, 8.0]])
    x = sylvester_solve(np.eye(2), np.eye(2), np.eye(2), np.eye(2), h5)
    np.testing.assert_allclose(x, h5 / 2.0, atol=1e-14)


def test_sylvester_form1_against_oracle():
    # H3 = c I: the A/B-block shape
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        c = float(rng.uniform(0.5, 2.0))
        h1, h2 = psd(rng, n), psd(rng, m)
        h3 = c * np.eye(n)
        h4 = spd(rng, m)
        h5 = rng.standard_normal((n, m))
        x = sylvester_solve(h1, h2, h3, h4, h5)
        ref = oracle_sylvester(h1, h2, h3, h4, h5)
        assert np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-30) <= 1e-9


def test_sylvester_form2_against_oracle():
    # H2 = c I: the C-block shape
    for seed in range(12):
        rng = np.random.default_rng(200 + seed)
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        c = float(rng.uniform(0.5, 2.0))
        h1 = spd(rng, n)
        h2 = c * np.eye(m)
        h3, h4 = psd(rng, n), psd(rng, m)
        h5 = rng.standard_normal((n, m))
        x = sylvester_solve(h1, h2, h3, h4, h5)
        ref = oracle_sylvester(h1, h2, h3, h4, h5)
        assert np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-30) <= 1e-9


def test_sylvester_residual_contract():
    rng = np.random.default_rng(300)
    h1, h2 = psd(rng, 5), psd(rng, 4)
    h3 = np.eye(5)
    h4 = spd(rng, 4)
    h5 = rng.standard_normal((5, 4))
    x = sylvester_solve(h1, h2, h3, h4, h5)
    res = np.linalg.norm(h1 @ x @ h2 + h3 @ x @ h4 - h5)
    assert res <= 1e-8 * np.linalg.norm(h5)


def test_sylvester_singular_generalized_pair_falls_back():
    # rank-deficient H4 breaks the generalized eigendecomposition; the
    # batched per-eigenvalue solve must still produce the right answer
    rng = np.random.default_rng(301)
    n, m = 5, 4
    h1 = spd(rng, n)
    h2 = spd(rng, m)
    h3 = np.eye(n)
    v = rng.standard_normal((m, 1))
    h4 = v @ v.T
    h5 = rng.standard_normal((n, m))
    x = sylvester_solve(h1, h2, h3, h4, h5)
    ref = oracle_sylvester(h1, h2, h3, h4, h5)
    assert np.linalg.norm(x - ref) / np.linalg.norm(ref) <= 1e-9


def test_sylvester_unsupported_structure():
    d = np.diag([1.0, 2.0])
    with pytest.raises(UsageError, match="dense"):
        sylvester_solve(np.eye(2), d, d, np.eye(2), np.ones((2, 2)))


def test_sylvester_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    for scale in (1.0, 1e-13):
        with pytest.raises(UsageError, match="symmetric"):
            sylvester_solve(scale * bad, np.eye(2), np.eye(2), np.eye(2), np.ones((2, 2)))


def test_sylvester_structure_tests_are_relative_to_scale():
    # with absolute floors a 1e-13-scaled h3 counted as identity-scaled and
    # the solve failed its residual check instead of naming the unsupported form
    from btdfuse.solver import SYLVESTER_RESIDUAL_RTOL, _SylvesterFactor

    rng = np.random.default_rng(302)
    h1, h2, h3, h4 = spd(rng, 4), spd(rng, 3), spd(rng, 4), spd(rng, 3)
    h5 = rng.standard_normal((4, 3))
    for scale in (1.0, 1e-13):
        with pytest.raises(UsageError, match="neither h3 nor h2"):
            sylvester_solve(scale * h1, h2, scale * h3, h4, h5)
    small_eye = 1e-13 * np.eye(4)
    system = _SylvesterFactor(h1, h2, small_eye, h4)
    assert system.den is not None and not system.transposed
    x = system.solve(h5)
    res = np.linalg.norm(h1 @ x @ h2 + small_eye @ x @ h4 - h5)
    assert res <= SYLVESTER_RESIDUAL_RTOL * np.linalg.norm(h5)


def test_sylvester_singular_pencil():
    h1 = np.array([[-1.0]])
    with pytest.raises(NumericalError):
        sylvester_solve(h1, np.eye(1), np.eye(1), np.eye(1), np.array([[1.0]]))


def test_sylvester_empty_system_is_usage_error():
    # the symmetry check used to reduce over an empty array and escape as a
    # bare ValueError ("zero-size array to reduction operation maximum")
    for m, n in ((0, 0), (0, 2), (2, 0)):
        with pytest.raises(UsageError, match="empty Sylvester system"):
            sylvester_solve(np.zeros((m, m)), np.eye(n), np.eye(m), np.eye(n), np.zeros((m, n)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 1999))
@example(seed=474)
def test_sylvester_takes_best_conditioned_form(seed):
    # both forms apply: the 1x1 h3 is identity-scaled (row form, c = h3 P^T P,
    # rank 1) and so is h2 (column form, c = c2 h1).  Cholesky can pass on the
    # rank-1 c; taking the row form then left the solve up to 7e-11 off.
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 5)
    h1 = np.array([[rng.uniform(0.1, 3)]])
    h3 = np.array([[rng.uniform(0.1, 3)]])
    p = rng.standard_normal((1, n))
    h4 = p.T @ p
    h2 = rng.uniform(0.5, 2) * np.eye(n)
    h5 = rng.standard_normal((1, n))
    x = sylvester_solve(h1, h2, h3, h4, h5)
    ref = sylvester_solve_dense(h1, h2, h3, h4, h5)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_sylvester_detected_form_ties_go_to_the_row_form():
    # both forms apply to each system.  With identities their c are equally
    # well conditioned, and the row form is taken; with two indefinite c,
    # neither is positive definite, and the row form is taken with one dense
    # system per eigenvalue of h1
    from btdfuse.solver import _SylvesterFactor

    rng = np.random.default_rng(23)
    eye3 = np.eye(3)
    system = _SylvesterFactor(eye3, eye3, eye3, eye3)
    assert system.den is not None and not system.transposed
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    h1 = q @ np.diag([2.0, -1.0, 0.5]) @ q.T
    h1, h4 = (h1 + h1.T) / 2, np.diag([3.0, -0.25, 1.5])
    h5 = rng.standard_normal((3, 3))
    system = _SylvesterFactor(h1, eye3, eye3, h4)
    assert system.den is None and not system.transposed
    np.testing.assert_allclose(
        system.solve(h5), oracle_sylvester(h1, eye3, eye3, h4, h5), rtol=1e-10, atol=1e-12
    )


@pytest.mark.parametrize("n", [1, 47, 48, 49, 200])
def test_tril_inv_matches_inv(n):
    # the pencil reduction inverts the Cholesky factor by blocks of 48 rows
    from btdfuse.solver import _tril_inv

    rng = np.random.default_rng(n)
    l = np.linalg.cholesky(spd(rng, n))
    x = _tril_inv(l)
    assert np.array_equal(x, np.tril(x))
    ref = np.linalg.inv(l)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_sylvester_dense_refuses_mismatched_shapes():
    h = (np.eye(3), np.eye(2), np.eye(3), np.eye(2))
    for bad, match in (
        ((*h, np.ones(6)), "h5 must be a matrix"),
        ((np.ones((3, 2)), *h[1:], np.ones((3, 2))), "h1 must be square"),
        ((*h[:3], np.eye(3), np.ones((3, 2))), "h4 must be 2x2"),
        ((*h, np.ones((2, 3))), "h1 must be 2x2"),
    ):
        with pytest.raises(UsageError, match=match):
            sylvester_solve_dense(*bad)


def test_sylvester_solve_refuses_an_h5_of_another_shape():
    h = (np.eye(3), np.eye(2), np.eye(3), np.eye(2))
    with pytest.raises(UsageError, match=re.escape("h5 must be 3x2, got shape (2, 3)")):
        sylvester_solve(*h, np.ones((2, 3)))


def test_sylvester_dense_singular_pencil_is_a_numerical_error():
    # I X I + I X (-I) = 0 for every X: the Kronecker system is exactly zero
    with pytest.raises(NumericalError, match="singular pencil in dense Sylvester solve"):
        sylvester_solve_dense(np.eye(2), np.eye(2), np.eye(2), -np.eye(2), np.ones((2, 2)))


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
@pytest.mark.parametrize("column_form", [False, True], ids=["row-form", "column-form"])
def test_sylvester_solve_matches_dense_on_a_grid(column_form, scale):
    # a detected form is checked, as a stated one is, by one residual in the
    # reduced coordinates, ||a y b + y c - rhs||, with the identity's scale in
    # c.  Every accepted solve matches the dense Kronecker solve, and a
    # singular system (h1 X h2 + h3 X h4 = 0 for some X != 0) is refused
    rng = np.random.default_rng(27)
    for m in range(1, 9):
        for n in range(1, 9):
            g_m, g_n = scale * spd(rng, m), scale * spd(rng, n)
            if column_form:
                h = (scale * spd(rng, m), scale * np.eye(n), g_m, g_n)
                singular = (g_m, scale * np.eye(n), g_m, -scale * np.eye(n))
            else:
                h = (g_m, g_n, scale * np.eye(m), scale * spd(rng, n))
                singular = (-scale * np.eye(m), g_n, scale * np.eye(m), g_n)
            h5 = rng.standard_normal((m, n))
            x = sylvester_solve(*h, h5)
            ref = sylvester_solve_dense(*h, h5)
            assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref), (m, n)
            for solve in (sylvester_solve, sylvester_solve_dense):
                with pytest.raises(NumericalError):
                    solve(*singular, h5)


def test_sylvester_dense_general_symmetric():
    rng = np.random.default_rng(302)
    h1, h3 = spd(rng, 4), psd(rng, 4)
    h2, h4 = psd(rng, 3), spd(rng, 3)
    h5 = rng.standard_normal((4, 3))
    x = sylvester_solve_dense(h1, h2, h3, h4, h5)
    ref = oracle_sylvester(h1, h2, h3, h4, h5)
    assert np.linalg.norm(x - ref) / np.linalg.norm(ref) <= 1e-10


# ---------------------------------------------------------------------------
# build_subproblem


def blockwise_columns(c, a, rank):
    cols = []
    for r in range(rank.R):
        sl = rank.block_slice(r)
        for l in range(sl.start, sl.stop):
            cols.append(np.kron(c[:, r], a[:, l]))
    return np.column_stack(cols)


def blockwise_maps(a, b, rank):
    return np.column_stack(
        [(a[:, rank.block_slice(r)] @ b[:, rank.block_slice(r)].T).ravel(order="F")
         for r in range(rank.R)]
    )


@pytest.mark.parametrize("block", ["A", "B", "C"])
@pytest.mark.parametrize(
    "rank",
    [RankSpec(2, 2), RankSpec(3, (1, 2, 3)), RankSpec(1, 2), RankSpec(4, (1, 5, 1, 2))],
    ids=["L2", "L123", "R1", "L1512"],
)
def test_build_subproblem_assembly(block, rank):
    # the Gram-based assembly against the explicit Khatri-Rao / map-matrix formulas
    _, _, ops, hsi, msi = coupled_instance(10, rank=rank, snr=25.0)
    f = init_factors((12, 12, 8), rank, seed=4, strategy="random_uniform", msi=msi)
    rho = 0.7
    w = build_subproblem(block, f, hsi, msi, ops, rho)
    p1, p2, p3 = ops.P1, ops.P2, ops.P3
    if block in ("A", "B"):
        p, partner, partner_h, mode, z = (
            (p1, f.B, p2 @ f.B, 1, f.A) if block == "A" else (p2, f.A, p1 @ f.A, 2, f.B)
        )
        wh = blockwise_columns(f.C, partner_h, rank)
        wm = blockwise_columns(p3 @ f.C, partner, rank)
        expected = (
            p.T @ p,
            wh.T @ wh,
            np.eye(z.shape[0]),
            wm.T @ wm + rho * np.eye(rank.total),
            p.T @ (unfold(hsi, mode).T @ wh) + unfold(msi, mode).T @ wm,
        )
    else:
        wh = blockwise_maps(p1 @ f.A, p2 @ f.B, rank)
        wm = blockwise_maps(f.A, f.B, rank)
        z = f.C.T
        expected = (
            wh.T @ wh + rho * np.eye(rank.R),
            np.eye(f.C.shape[0]),
            wm.T @ wm,
            p3.T @ p3,
            wh.T @ unfold(hsi, 3) + wm.T @ (unfold(msi, 3) @ p3),
        )
    got = (w.H1, w.H2, w.H3, w.H4, w.H5_base)
    for name, g, e in zip(("H1", "H2", "H3", "H4", "H5"), got, expected):
        assert g.shape == e.shape, name
        np.testing.assert_allclose(g, e, atol=1e-12, err_msg=name)
    identity = w.H2 if block == "C" else w.H3
    np.testing.assert_array_equal(identity, np.eye(identity.shape[0]))
    np.testing.assert_array_equal(w.Z, z)
    np.testing.assert_array_equal(w.U, np.zeros_like(z))
    assert w.rho == rho


def test_build_subproblem_auto_rho_is_mean_gram_trace():
    truth, _, ops, hsi, msi = coupled_instance(11)
    f = init_factors((12, 12, 8), truth.rank, seed=5, strategy="random_uniform", msi=msi)
    w = build_subproblem("A", f, hsi, msi, ops, "auto")
    wm = blockwise_columns(ops.P3 @ f.C, f.B, f.rank)
    assert w.rho == pytest.approx(np.trace(wm.T @ wm) / f.rank.total, rel=1e-12)
    w_c = build_subproblem("C", f, hsi, msi, ops, "auto")
    from btdfuse import degrade_factors

    f_h, _ = degrade_factors(f, ops)
    wh = blockwise_columns(np.ones((1, f.rank.R)), np.ones((1, f.rank.total)), f.rank)
    # H-side Gram for the C block: stacked degraded spatial maps
    s = np.column_stack(
        [
            (f_h.A[:, f.rank.block_slice(r)] @ f_h.B[:, f.rank.block_slice(r)].T).ravel(
                order="F"
            )
            for r in range(f.rank.R)
        ]
    )
    assert w_c.rho == pytest.approx(np.trace(s.T @ s) / f.rank.R, rel=1e-12)


def test_build_subproblem_identity_ops_scalar_grams():
    # L = 1, R = 1, identity P's: every Gram collapses to a squared norm
    rng = np.random.default_rng(12)
    rank = RankSpec(1, 1)
    f = BtdFactors(
        rng.uniform(size=(3, 1)), rng.uniform(size=(3, 1)), rng.uniform(size=(3, 1)), rank
    )
    sri = btd_reconstruct(f)
    ops = make_degradation_ops(3, 3, 3, K_M=3, kernel_size=1, d=1)
    w = build_subproblem("A", f, sri, sri, ops, rho=0.5)
    norm_cb = float(np.linalg.norm(f.C) ** 2 * np.linalg.norm(f.B) ** 2)
    assert w.H2[0, 0] == pytest.approx(norm_cb, rel=1e-12)
    assert w.H4[0, 0] == pytest.approx(norm_cb + 0.5, rel=1e-12)


def test_build_subproblem_bad_block_name():
    truth, _, ops, hsi, msi = coupled_instance(13)
    with pytest.raises(UsageError):
        build_subproblem("D", truth, hsi, msi, ops, 1.0)


def test_build_subproblem_refuses_a_negative_rho():
    truth, _, ops, hsi, msi = coupled_instance(13)
    with pytest.raises(UsageError, match="rho must be finite and >= 0, got -1.0"):
        build_subproblem("A", truth, hsi, msi, ops, rho=-1.0)


@pytest.mark.parametrize("call", [
    objective, lambda f, hsi, msi, ops: build_subproblem("A", f, hsi, msi, ops, 1.0),
], ids=["objective", "build_subproblem"])
def test_coupled_data_of_the_wrong_shape_is_refused(call):
    truth, _, ops, hsi, msi = coupled_instance(13)
    short = BtdFactors(truth.A, truth.B, truth.C[:5], truth.rank)
    for args, match in (
        ((truth, hsi[:, :, :5], msi), "hsi is"),
        ((truth, hsi, msi[:-1]), "msi is"),
        ((short, hsi, msi), "operators expect"),
    ):
        with pytest.raises(UsageError, match=match):
            call(*args, ops)


@pytest.mark.parametrize("call", [
    lambda f, hsi, msi, ops: degrade_factors(f, ops),
    objective,
    lambda f, hsi, msi, ops: build_subproblem("A", f, hsi, msi, ops, 1.0),
], ids=["degrade_factors", "objective", "build_subproblem"])
def test_coupled_entry_points_refuse_misfit_operators_alike(call):
    # degrade_factors used to say "P1 has 12 columns, A has 11 rows" instead
    truth, _, ops, hsi, msi = coupled_instance(13)
    for f, dims in ((BtdFactors(truth.A[:-1], truth.B, truth.C, truth.rank), "11x12x8"),
                    (BtdFactors(truth.A, truth.B, truth.C[:5], truth.rank), "12x12x5")):
        with pytest.raises(UsageError, match=re.escape(
                f"operators expect an image of 12x12x8, factors give {dims}")):
            call(f, hsi, msi, ops)


def fd_gradient(g, x, h=1e-6):
    out = np.zeros_like(x)
    for p in range(x.shape[0]):
        for q in range(x.shape[1]):
            e = np.zeros_like(x)
            e[p, q] = h
            out[p, q] = (g(x + e) - g(x - e)) / (2.0 * h)
    return out


@pytest.mark.parametrize("block", ["A", "B", "C"])
def test_unpenalized_solution_is_stationary(block):
    truth, _, ops, hsi, msi = coupled_instance(14, snr=25.0)
    f = init_factors((12, 12, 8), truth.rank, seed=6, strategy="random_uniform", msi=msi)
    w = build_subproblem(block, f, hsi, msi, ops, rho=0.0)
    xstar = sylvester_solve(w.H1, w.H2, w.H3, w.H4, w.H5_base)

    def g(x):
        f2 = f.copy()
        if block == "A":
            f2.A = x
        elif block == "B":
            f2.B = x
        else:
            f2.C = x.T
        return objective(f2, hsi, msi, ops)

    fd = fd_gradient(g, xstar)
    assert np.abs(fd).max() <= 1e-6 * max(1.0, g(xstar))


def test_analytic_gradient_matches_finite_differences():
    truth, _, ops, hsi, msi = coupled_instance(15, snr=20.0)
    f = init_factors((12, 12, 8), truth.rank, seed=7, strategy="random_uniform", msi=msi)
    w = build_subproblem("A", f, hsi, msi, ops, rho=0.0)
    x = np.abs(np.random.default_rng(8).standard_normal(f.A.shape))

    def g(mat):
        f2 = f.copy()
        f2.A = mat
        return objective(f2, hsi, msi, ops)

    analytic = 2.0 * (w.H1 @ x @ w.H2 + w.H3 @ x @ w.H4 - w.H5_base)
    fd = fd_gradient(g, x)
    assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) <= 1e-4


# ---------------------------------------------------------------------------
# admm_nn_block


def test_admm_clamps_negative_scalar():
    w = AdmmWorkspace(
        H1=np.eye(1),
        H2=np.eye(1),
        H3=np.eye(1),
        H4=np.eye(1),
        H5_base=np.array([[-1.0]]),
        Z=np.zeros((1, 1)),
        U=np.zeros((1, 1)),
        rho=1.0,
    )
    z, w = admm_nn_block(w, 100)
    assert abs(z[0, 0]) <= 1e-8
    # the multiplier, not the primal solve, carries the active constraint
    assert w.X is not None and w.X[0, 0] <= 0.0
    assert w.U[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_admm_recovers_interior_minimizer():
    # when the unconstrained optimum is strictly positive the projection is
    # inactive and ADMM must land on the plain least-squares solution
    rng = np.random.default_rng(20)
    m = rng.standard_normal((9, 5))
    g = rng.standard_normal((8, 4))
    xstar = rng.uniform(0.5, 1.5, size=(5, 4))
    d = m @ xstar @ g.T
    h1, h2 = m.T @ m, g.T @ g
    rho = float(np.trace(h2)) / 4
    w = AdmmWorkspace(
        H1=h1,
        H2=h2,
        H3=np.eye(5),
        H4=rho * np.eye(4),
        H5_base=m.T @ d @ g,
        Z=np.zeros((5, 4)),
        U=np.zeros((5, 4)),
        rho=rho,
    )
    z, w = admm_nn_block(w, 200)
    assert np.linalg.norm(z - xstar) / np.linalg.norm(xstar) <= 1e-6


def pg_nnls(m, g, d, iters=200000):
    h1, h2 = m.T @ m, g.T @ g
    h5 = m.T @ d @ g
    step = 1.0 / (2.0 * np.linalg.eigvalsh(h1)[-1] * np.linalg.eigvalsh(h2)[-1])
    x = np.zeros((m.shape[1], g.shape[1]))
    for _ in range(iters):
        xn = np.maximum(x - step * 2.0 * (h1 @ x @ h2 - h5), 0.0)
        if np.linalg.norm(xn - x) <= 1e-14 * max(1.0, np.linalg.norm(x)):
            return xn
        x = xn
    return x


def test_admm_matches_projected_gradient_oracle():
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        m = rng.standard_normal((9, 6))
        g = rng.standard_normal((7, 4))
        d = rng.standard_normal((9, 7))
        h1, h2 = m.T @ m, g.T @ g
        rho = float(np.trace(h2)) / 4
        w = AdmmWorkspace(
            H1=h1,
            H2=h2,
            H3=np.eye(6),
            H4=rho * np.eye(4),
            H5_base=m.T @ d @ g,
            Z=np.zeros((6, 4)),
            U=np.zeros((6, 4)),
            rho=rho,
        )
        z, w = admm_nn_block(w, 500)
        ref = pg_nnls(m, g, d)
        f_admm = np.linalg.norm(d - m @ z @ g.T) ** 2
        f_ref = np.linalg.norm(d - m @ ref @ g.T) ** 2
        assert abs(f_admm - f_ref) <= 1e-6 * max(1.0, f_ref)
        assert z.min() >= 0.0
        assert np.linalg.norm(w.Z - w.X) / max(1.0, np.linalg.norm(w.X)) <= 1e-6


def test_admm_requires_positive_rho():
    w = AdmmWorkspace(
        H1=np.eye(1),
        H2=np.eye(1),
        H3=np.eye(1),
        H4=np.eye(1),
        H5_base=np.ones((1, 1)),
        Z=np.zeros((1, 1)),
        U=np.zeros((1, 1)),
        rho=0.0,
    )
    with pytest.raises(UsageError):
        admm_nn_block(w, 10)


@pytest.mark.parametrize(
    "block, rank",
    [("A", RankSpec(2, 2)), ("B", RankSpec(2, 2)), ("C", RankSpec(2, 2)), ("C", RankSpec(1, 1))],
    ids=["A", "B", "C", "C-R1"],
)
def test_admm_factored_path_matches_per_step_solves(block, rank):
    # admm_nn_block factors H1..H4 once (in the form build_subproblem
    # states); every iterate must match a loop that calls
    # sylvester_solve afresh on each step.  R = 1 makes both forms of block C
    # apply (its 1x1 H3 is identity-scaled); the row form's pencil
    # (I, c P3^T P3) is singular, so the column form must be chosen and the
    # factored path taken.
    from btdfuse.solver import _SylvesterFactor

    _, _, ops, hsi, msi = coupled_instance(16, rank=rank, snr=25.0)
    f = init_factors((12, 12, 8), rank, seed=8, strategy="random_uniform", msi=msi)
    w0 = build_subproblem(block, f, hsi, msi, ops, "auto")
    assert _SylvesterFactor(w0.H1, w0.H2, w0.H3, w0.H4, w0.form).den is not None

    z, u = w0.Z.copy(), w0.U.copy()
    for steps in range(1, 7):
        x = sylvester_solve(w0.H1, w0.H2, w0.H3, w0.H4, w0.H5_base + w0.rho * (z + u))
        z = np.maximum(x - u, 0.0)
        u = u + (z - x)
        w = AdmmWorkspace(
            H1=w0.H1, H2=w0.H2, H3=w0.H3, H4=w0.H4, H5_base=w0.H5_base,
            Z=w0.Z.copy(), U=w0.U.copy(), rho=w0.rho, form=w0.form,
        )
        got, w = admm_nn_block(w, steps)
        # relative to the iterate's scale: U and the clamped part of Z may be 0
        scale = np.linalg.norm(x)
        for mine, ref in ((w.X, x), (got, z), (w.U, u)):
            assert np.linalg.norm(mine - ref) <= 1e-10 * scale


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 7),
    cols=st.integers(2, 6),
    other=st.integers(2, 5),  # a 1x1 partner would also pass as identity-scaled
    log_rho=st.floats(-2.0, 2.0),
    column_form=st.booleans(),
)
def test_structured_sylvester_matches_dense(seed, rows, cols, other, log_rho, column_form):
    # the operator Gram P^T P sits in H1 (row form, blocks A and B) or H4
    # (column form, block C); whatever P's shape, the factor solves through
    # P's thin SVD and checks the residual through P
    from btdfuse.solver import _SylvesterFactor

    rng = np.random.default_rng(seed)
    p = rng.standard_normal((rows, cols))
    gram = p.T @ p
    partner = spd(rng, other)
    pencil = spd(rng, other, shift=0.0) + 10.0 ** log_rho * np.eye(other)
    if column_form:
        h, shape = (pencil, np.eye(cols), partner, gram), (other, cols)
    else:
        h, shape = (gram, partner, np.eye(cols), pencil), (cols, other)
    h5 = rng.standard_normal(shape)
    system = _SylvesterFactor(*h, (column_form, p))
    assert system.p is not None and system.den is not None
    x = system.solve(h5)
    ref = sylvester_solve_dense(*h, h5)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_structured_residual_rejects_corrupt_factor():
    # without the Q1 correction the solve is wrong on the span of P's rows;
    # the residual formed through P must refuse it
    from btdfuse.solver import _SylvesterFactor

    _, _, ops, hsi, msi = coupled_instance(17, snr=25.0)
    f = init_factors((12, 12, 8), RankSpec(2, 2), seed=9, strategy="random_uniform", msi=msi)
    for block in ("A", "B", "C"):
        w = build_subproblem(block, f, hsi, msi, ops, "auto")
        system = _SylvesterFactor(w.H1, w.H2, w.H3, w.H4, w.form)
        assert system.p is not None
        h5 = w.H5_base + w.rho * w.Z
        x = system.solve(h5)
        res = np.linalg.norm(w.H1 @ x @ w.H2 + w.H3 @ x @ w.H4 - h5)
        assert res <= 1e-8 * np.linalg.norm(h5)
        system.gain = np.zeros_like(system.gain)
        with pytest.raises(NumericalError, match="residual"):
            system.solve(h5)


def test_sylvester_factor_singular_pencil_falls_back_to_dense_solves():
    # only the row form applies (h2 is not identity-scaled) and its c = h4 is
    # singular: every solve goes through one dense system per eigenvalue of h1
    from btdfuse.solver import _SylvesterFactor

    rng = np.random.default_rng(21)
    h1, h2 = spd(rng, 4), spd(rng, 3)
    g = rng.standard_normal((1, 3))
    h4 = g.T @ g
    h5 = rng.standard_normal((4, 3))
    system = _SylvesterFactor(h1, h2, np.eye(4), h4)
    assert system.den is None and not system.transposed
    np.testing.assert_allclose(
        system.solve(h5), oracle_sylvester(h1, h2, np.eye(4), h4, h5), rtol=1e-10, atol=1e-12
    )


def test_exact_solve_jitter_retry_keeps_shared_gram():
    # H1 and H4 singular: the first exact solve fails, the retry jitters H4.
    # bcd_fuse hands every build the same operator-Gram arrays and scores the
    # update from the workspace, so the retry must leave the workspace's very
    # arrays as they were and jitter a copy
    from btdfuse.solver import _solve_block_exact

    def workspace(h1, h3, h4, h5, form=None):
        return AdmmWorkspace(H1=h1, H2=np.eye(2), H3=h3, H4=h4, H5_base=h5,
                             Z=np.zeros((2, 2)), U=np.zeros((2, 2)), rho=0.0, form=form)

    def kept(w):
        arrays = [w.H1, w.H2, w.H3, w.H4, w.H5_base]
        return arrays, [a.copy() for a in arrays]

    def assert_kept(w, held):
        arrays, values = held
        for name, a, v in zip(("H1", "H2", "H3", "H4", "H5_base"), arrays, values):
            assert getattr(w, name) is a, name
            np.testing.assert_array_equal(a, v)

    w = workspace(np.diag([2.0, 0.0]), np.eye(2), np.diag([1.0, 0.0]),
                  np.array([[1.0, 0.0], [2.0, 0.0]]))
    held = kept(w)
    with pytest.warns(RuntimeWarning) as caught:
        x = _solve_block_exact(w, "A")
    assert [str(c.message) for c in caught] == [
        "block A system is numerically singular; retrying with diagonal jitter 5.000e-13 on H4"]
    assert_kept(w, held)
    # x solves the jittered system, not the workspace's singular one
    h4 = w.H4 + 5e-13 * np.eye(2)
    res = np.linalg.norm(w.H1 @ x @ w.H2 + w.H3 @ x @ h4 - w.H5_base)
    assert res <= 1e-8 * np.linalg.norm(w.H5_base)
    # the column form stated by P jitters H1, and a retry that fails too
    # leaves the workspace as it was
    p = np.array([[1.0, 1.0]])
    u = np.array([1.0, -1.0]) / np.sqrt(2)
    h5 = (np.outer(u, [1.0, 0.0]) + np.outer([1.0, 1.0], [0.3, 0.7])).T
    w = workspace(np.diag([1.0, 0.0]), np.array([[2.0, 0.5], [0.5, 1.0]]), p.T @ p, h5,
                  form=(True, p))
    held = kept(w)
    with pytest.warns(RuntimeWarning, match="jitter 5.000e-13 on H1"):
        with pytest.raises(NumericalError):
            _solve_block_exact(w, "C")
    assert_kept(w, held)


# ---------------------------------------------------------------------------
# bcd_fuse


def test_fuse_config_validation():
    # a config is checked when it is made, and refused there
    truth, _, ops, hsi, msi = coupled_instance(30)
    rank = RankSpec(2, 2)

    def spoiled(name, value):
        f = truth.copy()
        getattr(f, name)[1, 0] = value
        return f

    for bad in (
        {"method": "nope"},
        {"outer_iters": 0},
        {"inner_iters": 0},
        {"rho": -1.0},
        {"rho": "fast"},
        {"tol": -1e-3},
        # NaN >= 0 is false: a NaN tol used to pass and never stop a run early
        {"tol": float("nan")},
        {"seed": -1},
        {"init": "lucky"},
        {"init": "provided"},
        # these used to escape as a bare TypeError
        {"outer_iters": 2.5},
        {"inner_iters": 2.5},
        {"seed": 1.5},
        {"tol": "x"},
        # float() of these used to escape as a bare TypeError
        {"rho": None},
        {"rho": [1.0]},
        # factors given with another init used to be ignored without a word
        {"init_factors": truth},
        {"init": "svd_warm", "init_factors": truth},
        # a start that is not a BtdFactors used to be accepted here and then
        # to escape bcd_fuse as a bare AttributeError
        {"init": "provided", "init_factors": {"A": truth.A, "B": truth.B, "C": truth.C}},
        {"init": "provided", "init_factors": (truth.A, truth.B, truth.C)},
        {"init": "provided", "init_factors": "truth"},
        # a NaN A used to pass stereo and two_stage silently, and an Inf C
        # warned twice before block A failed
        {"init": "provided", "init_factors": spoiled("A", np.nan)},
        {"init": "provided", "init_factors": spoiled("C", np.inf)},
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError) as info:
                FusionConfig(rank=rank, **bad)
        if "init_factors" in bad:
            assert "cfg.init_factors" in str(info.value)
    with pytest.raises(UsageError, match="cfg.rank must be a RankSpec"):
        FusionConfig(rank=(2, 2))
    # provided factors that do not fit the data or the rank are refused by the run
    for provided in (init_factors((12, 12, 5), rank, 0, "random_uniform"),
                     init_factors((12, 12, 8), RankSpec(2, 1), 0, "random_uniform")):
        cfg = FusionConfig(rank=rank, init="provided", init_factors=provided)
        with pytest.raises(UsageError):
            bcd_fuse(hsi, msi, ops, cfg)


def test_fuse_config_is_frozen_and_replace_checks_again():
    cfg = FusionConfig(rank=RankSpec(2, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 1
    assert dataclasses.replace(cfg, seed=np.int64(4)).seed == 4
    with pytest.raises(UsageError, match="seed must be >= 0"):
        dataclasses.replace(cfg, seed=-1)


def test_fuse_integral_settings_run_as_int():
    _, _, ops, hsi, msi = coupled_instance(30)
    rank = RankSpec(2, 2)
    cfg = FusionConfig(rank=rank, outer_iters=2.0, inner_iters=np.int64(5), seed=np.float64(3))
    assert [type(v) for v in (cfg.outer_iters, cfg.inner_iters, cfg.seed)] == [int, int, int]
    got = bcd_fuse(hsi, msi, ops, cfg)
    want = bcd_fuse(hsi, msi, ops, FusionConfig(rank=rank, outer_iters=2, inner_iters=5, seed=3))
    assert got.objective_trace == want.objective_trace
    for name in "ABC":
        np.testing.assert_array_equal(getattr(got.factors, name), getattr(want.factors, name))


def test_fuse_geometry_mismatch():
    _, _, ops, hsi, msi = coupled_instance(31)
    with pytest.raises(UsageError):
        bcd_fuse(hsi[:, :, :5], msi, ops, FusionConfig(rank=RankSpec(2, 2)))


@pytest.mark.parametrize("method", ["cnn_btd", "cnn_cpd", "stereo", "two_stage"])
def test_fuse_ground_truth_is_fixed_point(method):
    # cnn_cpd fits unit blocks, so its truth has them too
    rank = RankSpec(2, 1) if method == "cnn_cpd" else RankSpec(2, 2)
    truth, sri, ops, hsi, msi = coupled_instance(32, rank=rank)
    scale = frob_norm(hsi) ** 2 + frob_norm(msi) ** 2
    cfg = FusionConfig(
        method=method,
        rank=truth.rank,
        outer_iters=3,
        inner_iters=5,
        init="provided",
        init_factors=truth,
    )
    res = bcd_fuse(hsi, msi, ops, cfg)
    # two_stage fits the noiseless MSI exactly in its first sweep and stops
    assert res.iters_run == (1 if method == "two_stage" else 3)
    assert max(res.objective_trace) <= 1e-10 * scale
    assert np.linalg.norm(res.factors.A - truth.A) / np.linalg.norm(truth.A) <= 1e-6
    assert np.linalg.norm(res.factors.C - truth.C) / np.linalg.norm(truth.C) <= 1e-6


def _permute_blocks(f, order):
    """The factors of f with block ``order[r]`` in place r."""
    starts = np.cumsum((0, *f.rank.L))
    cols = np.concatenate([np.arange(starts[r], starts[r + 1]) for r in order])
    rank = RankSpec(f.rank.R, tuple(f.rank.L[r] for r in order))
    return BtdFactors(f.A[:, cols], f.B[:, cols], f.C[:, list(order)], rank)


# a permuted run more than 1e-10 relative off may be off by up to this many
# times the change a last-bits nudge of the input makes (see _assert_same_run)
NUDGE_MULTIPLE = 100


def _assert_same_run(mine, res, view, hsi, msi, ops, cfg):
    """``mine`` is ``view(res)``, to 1e-10 relative or to the run's own conditioning.

    ``res`` is ``bcd_fuse(hsi, msi, ops, cfg)``, and ``view(run)`` lists the
    arrays of a run in ``mine``'s order, the objective trace last.  Each array
    must be within 1e-10 relative in norm, and each trace entry within 1e-10
    relative, of its counterpart.  Where one is not, ``res`` is run again with
    every entry of ``hsi`` and ``msi`` moved one unit in the last place, each
    up or down at random.  The largest of those relative differences between
    the nudged run and ``res`` is the run's own sensitivity to rounding, and
    ``mine`` may then differ by up to ``NUDGE_MULTIPLE`` times it.  On an
    ill-conditioned pencil, reordered sums move a run as much as such a nudge.
    """
    def differences(ours, theirs):
        *arrays, trace = zip(ours, theirs)
        return np.array([np.linalg.norm(m - t) / np.linalg.norm(t) for m, t in arrays]
                        + list(np.abs(np.subtract(*trace)) / np.abs(trace[1])))

    want = view(res)
    worst = differences(mine, want).max()
    if worst <= 1e-10:
        return
    rng = np.random.default_rng(0)
    nudged = (np.nextafter(t, np.where(rng.random(t.shape) < 0.5, -np.inf, np.inf))
              for t in (hsi, msi))
    own = differences(view(bcd_fuse(*nudged, ops, cfg)), want).max()
    assert worst <= NUDGE_MULTIPLE * own, (worst, own)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 50),
    method=st.sampled_from(("cnn_btd", "cnn_cpd", "stereo", "two_stage")),
    uneven=st.booleans(),
    order=st.permutations(range(3)),
)
# an ill-conditioned stereo run (block B's pencil c reaches a condition number
# of 1.7e6): A came out 2.9e-10 off, and a nudge of the input moves it 7.2e-11
@example(seed=34, method="stereo", uneven=True, order=[0, 2, 1])
def test_fuse_permuting_start_blocks_permutes_the_run(seed, method, uneven, order):
    # the model is a sum over blocks: fusing from a start whose blocks are
    # permuted gives the permuted factors, the same estimate and the same trace
    rank = RankSpec(3, 1 if method == "cnn_cpd" else (1, 2, 3) if uneven else 2)
    _, _, ops, hsi, msi = coupled_instance(seed, snr=30.0)
    start = init_factors((12, 12, 8), rank, seed + 1, "random_uniform", msi=msi)
    moved = _permute_blocks(start, order)
    cfg = FusionConfig(method=method, rank=rank, outer_iters=5, init="provided",
                       init_factors=start)
    res = bcd_fuse(hsi, msi, ops, cfg)
    got = bcd_fuse(hsi, msi, ops, dataclasses.replace(cfg, rank=moved.rank, init_factors=moved))
    mine = [got.factors.A, got.factors.B, got.factors.C, got.sri_estimate, got.objective_trace]

    def view(run):
        f = _permute_blocks(run.factors, order)
        return [f.A, f.B, f.C, run.sri_estimate, run.objective_trace]

    _assert_same_run(mine, res, view, hsi, msi, ops, cfg)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 50),
    method=st.sampled_from(("cnn_btd", "cnn_cpd", "stereo", "two_stage")),
    uneven=st.booleans(),
    order=st.permutations(range(8)),
)
# the same run as above: B came out 1.6e-10 off
@example(seed=34, method="stereo", uneven=True, order=[0, 1, 2, 3, 5, 4, 6, 7])
def test_fuse_permuting_bands_permutes_the_estimate(seed, method, uneven, order):
    # the bands enter the model through C's rows, the HSI's mode 3 and P3's
    # columns.  Permuting the SRI's bands and P3's columns together permutes
    # the HSI's bands (noise included) and leaves the MSI as it is; fused from
    # a start whose C rows are permuted the same way, the estimate's bands are
    # permuted, and A, B and the trace stay
    rank = RankSpec(3, 1 if method == "cnn_cpd" else (1, 2, 3) if uneven else 2)
    _, _, ops, hsi, msi = coupled_instance(seed, snr=30.0)
    start = init_factors((12, 12, 8), rank, seed + 1, "random_uniform", msi=msi)
    cfg = FusionConfig(method=method, rank=rank, outer_iters=5, init="provided",
                       init_factors=start)
    res = bcd_fuse(hsi, msi, ops, cfg)
    order = list(order)
    moved = BtdFactors(start.A, start.B, start.C[order], rank)
    got = bcd_fuse(hsi[:, :, order], msi, dataclasses.replace(ops, P3=ops.P3[:, order]),
                   dataclasses.replace(cfg, init_factors=moved))
    mine = [got.sri_estimate, got.factors.A, got.factors.B, got.factors.C, got.objective_trace]

    def view(run):
        return [run.sri_estimate[:, :, order], run.factors.A, run.factors.B,
                run.factors.C[order], run.objective_trace]

    _assert_same_run(mine, res, view, hsi, msi, ops, cfg)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 50),
    method=st.sampled_from(("cnn_btd", "cnn_cpd", "stereo")),
    rank=st.sampled_from((RankSpec(2, 2), RankSpec(3, (1, 2, 3)), RankSpec(1, 1))),
    snr=st.floats(min_value=10.0, max_value=40.0),
    outer_iters=st.integers(1, 3),
    square=st.booleans(),
)
# nearly cancelling factors: the Grams' rounding put the Gram-form score
# 1.4e-10 off at 3.2e-4 of ||Y_H||^2 + ||Y_M||^2, above DENSE_SCORE_SHARE
@example(seed=2, method="stereo", rank=RankSpec(3, (1, 2, 3)), snr=38.13325437286805,
         outer_iters=2, square=True)
def test_fuse_trace_is_the_objective(seed, method, rank, snr, outer_iters, square):
    # each block update is scored from the quadratic it solved; the score must
    # be the coupled objective, and scoring must not touch the iterates.
    # With d = 1 and K_M = K every operator is square.
    import btdfuse.solver as solver

    geometry = {"d": 1, "K_M": 8} if square else {}
    _, _, ops, hsi, msi = coupled_instance(seed, snr=snr, **geometry)
    cfg = FusionConfig(method=method, rank=rank, outer_iters=outer_iters, seed=seed)
    res = bcd_fuse(hsi, msi, ops, cfg)
    dense = objective(res.factors, hsi, msi, ops)
    assert abs(res.objective_trace[-1] - dense) <= 1e-10 * dense
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "DENSE_SCORE_SHARE", np.inf)
        ref = bcd_fuse(hsi, msi, ops, cfg)
    np.testing.assert_allclose(res.objective_trace, ref.objective_trace, rtol=1e-10, atol=0)
    for mine, theirs in ((res.sri_estimate, ref.sri_estimate), (res.factors.A, ref.factors.A),
                         (res.factors.B, ref.factors.B), (res.factors.C, ref.factors.C)):
        np.testing.assert_array_equal(mine, theirs)


@pytest.mark.parametrize("block", ["A", "B", "C"])
def test_block_score_mass_holds_both_terms_each_by_its_own_gram(block):
    # the score gives way to the dense objective below DENSE_SCORE_SHARE of
    # the quadratic's mass: the P-side term <|P y|, |P y| b> plus the other
    # term <|y|, |y| c>, each Gram by its own diagonal (y, b, c = z, H2, H4 in
    # the row form, z^T, H3, H1 for block C).  With data_sq an argument the
    # score is placed between the share of the mass less one term and the
    # share of the full mass (None), just below the full mass's share (None)
    # and just past it (the score).
    import btdfuse.solver as solver

    truth, _, ops, hsi, msi = coupled_instance(31, snr=30.0)
    f = init_factors((12, 12, 8), truth.rank, seed=3, strategy="random_uniform", msi=msi)
    w = build_subproblem(block, f, hsi, msi, ops, rho=0.0)
    # at twice the minimizer the quadratic's part of the score is 0 (up to rounding)
    z = 2.0 * sylvester_solve(w.H1, w.H2, w.H3, w.H4, w.H5_base)
    part = float(-2.0 * np.vdot(z, w.H5_base) + np.vdot(z, w.H1 @ z @ w.H2 + w.H3 @ z @ w.H4))
    transposed, p = w.form
    y, b, c = (z.T, w.H3, w.H1) if transposed else (z, w.H2, w.H4)

    def bound(v, g):
        return float(np.sum((np.abs(v) @ np.sqrt(np.diag(g))) ** 2))

    terms = (bound(p @ y, b), bound(y, c))
    mass = sum(terms)
    share = solver.DENSE_SCORE_SHARE
    for level, scored in ([(mass - t / 2, False) for t in terms]
                          + [(mass * (1 - 1e-3), False), (mass * (1 + 1e-3), True)]):
        data_sq = share * level - part
        assert 0 < data_sq < min(terms)  # the mass, not data_sq, sets the bar
        got = solver._block_score(w, z, data_sq)
        if scored:
            assert got == pytest.approx(share * level, rel=1e-6)
        else:
            assert got is None, (level, mass)


def test_fuse_dense_objective_calls(monkeypatch):
    import btdfuse.solver as solver

    calls = []
    dense = solver.objective

    def counted(*args):
        calls.append(1)
        return dense(*args)

    monkeypatch.setattr(solver, "objective", counted)
    _, _, ops, hsi, msi = coupled_instance(34, snr=30.0)
    res = bcd_fuse(hsi, msi, ops, FusionConfig(rank=RankSpec(2, 2), outer_iters=3, seed=2))
    assert len(res.objective_trace) == 9 and calls == []
    # a noiseless ground-truth start drives the objective toward 0, where the
    # Gram form cancels: every update takes the dense path
    truth, _, ops, hsi, msi = coupled_instance(32)
    cfg = FusionConfig(method="cnn_btd", rank=truth.rank, outer_iters=3, inner_iters=5,
                       init="provided", init_factors=truth)
    res = bcd_fuse(hsi, msi, ops, cfg)
    assert len(calls) == len(res.objective_trace) == 9
    assert min(res.objective_trace) >= 0.0
    # from the truth of a 42 dB pair the scores stay at 5.2e-5 to 5.7e-5 of
    # ||Y_H||^2 + ||Y_M||^2, below DENSE_SCORE_SHARE: all 9 are dense (a share
    # of 1e-5 used to pass with none)
    calls.clear()
    truth, _, ops, hsi, msi = coupled_instance(32, snr=42.0)
    cfg = FusionConfig(method="cnn_btd", rank=truth.rank, outer_iters=3, inner_iters=5,
                       init="provided", init_factors=truth)
    res = bcd_fuse(hsi, msi, ops, cfg)
    assert len(calls) == len(res.objective_trace) == 9
    # an update whose first solve fails is retried with a jittered copy of its
    # system; the workspace keeps the objective's own quadratic, so that
    # update is scored by the Gram form like any other
    factor, made = solver._SylvesterFactor, []

    def failing_last_update(*args):
        made.append(1)
        system = factor(*args)
        if len(made) == 6:
            def fail(h5):
                raise NumericalError("forced")
            system.solve = fail
        return system

    monkeypatch.setattr(solver, "_SylvesterFactor", failing_last_update)
    calls.clear()
    _, _, ops, hsi, msi = coupled_instance(34, snr=30.0)
    with pytest.warns(RuntimeWarning, match="block C system is numerically singular"):
        res = bcd_fuse(hsi, msi, ops, FusionConfig(method="stereo", rank=RankSpec(2, 2),
                                                   outer_iters=2, seed=2))
    assert len(made) == 7 and len(res.objective_trace) == 6 and calls == []
    dense = objective(res.factors, hsi, msi, ops)
    assert abs(res.objective_trace[-1] - dense) <= 1e-10 * dense


def test_fuse_independent_of_memory_layout():
    # the pair is copied into one layout on entry, so strides cannot change a bit
    from btdfuse import fold

    _, _, ops, hsi, msi = coupled_instance(35, snr=30.0)
    layouts = (
        np.ascontiguousarray,
        np.asfortranarray,
        lambda t: fold(unfold(t, 3).copy(), 3, t.shape),  # btd_reconstruct's layout
    )
    for method in ("cnn_btd", "cnn_cpd", "stereo", "two_stage"):
        cfg = FusionConfig(method=method, rank=RankSpec(2, 2), outer_iters=3, seed=6)
        ref, *others = (bcd_fuse(lay(hsi), lay(msi), ops, cfg) for lay in layouts)
        for got in others:
            assert got.objective_trace == ref.objective_trace, method
            for mine, theirs in ((got.sri_estimate, ref.sri_estimate),
                                 (got.factors.A, ref.factors.A), (got.factors.B, ref.factors.B),
                                 (got.factors.C, ref.factors.C)):
                np.testing.assert_array_equal(mine, theirs, err_msg=method)


def test_fuse_states_block_forms_without_detecting_them(monkeypatch):
    # build_subproblem states each block's Sylvester form in its workspace,
    # so neither bcd_fuse nor admm_nn_block on a built workspace may run the
    # identity-scale test of the public sylvester_solve
    import btdfuse.solver as solver

    def detect(matrix):
        raise AssertionError("a stated form was detected again")

    _, _, ops, hsi, msi = coupled_instance(33, snr=30.0)
    for method in ("cnn_btd", "cnn_cpd", "stereo"):
        for rank in (RankSpec(2, 2), RankSpec(1, 1), RankSpec(3, (1, 2, 3))):
            cfg = FusionConfig(method=method, rank=rank, outer_iters=3, seed=4)
            ref = bcd_fuse(hsi, msi, ops, cfg)
            with monkeypatch.context() as m:
                m.setattr(solver, "_identity_scale", detect)
                got = bcd_fuse(hsi, msi, ops, cfg)
            assert got.objective_trace == ref.objective_trace
            for mine, theirs in ((got.sri_estimate, ref.sri_estimate),
                                 (got.factors.A, ref.factors.A), (got.factors.C, ref.factors.C)):
                np.testing.assert_array_equal(mine, theirs)
    # one sweep of the public admm_nn_block on built workspaces is bcd_fuse's
    # first sweep from the same start
    rank = RankSpec(2, 2)
    start = init_factors((12, 12, 8), rank, seed=4, strategy="random_uniform", msi=msi)
    cfg = FusionConfig(rank=rank, outer_iters=1, inner_iters=5, init="provided",
                       init_factors=start)
    fused = bcd_fuse(hsi, msi, ops, cfg).factors
    f = start.copy()
    with monkeypatch.context() as m:
        m.setattr(solver, "_identity_scale", detect)
        for block in ("A", "B", "C"):
            z, _ = admm_nn_block(build_subproblem(block, f, hsi, msi, ops, "auto"), 5)
            setattr(f, block, z.T if block == "C" else z)
    for block in ("A", "B", "C"):
        mine, theirs = getattr(f, block), getattr(fused, block)
        assert np.linalg.norm(mine - theirs) <= 1e-12 * np.linalg.norm(theirs), block


def test_fuse_stereo_trace_monotone():
    for seed in range(4):
        _, _, ops, hsi, msi = coupled_instance(40 + seed, snr=20.0)
        cfg = FusionConfig(method="stereo", rank=RankSpec(2, 2), outer_iters=15, seed=seed)
        res = bcd_fuse(hsi, msi, ops, cfg)
        tr = np.asarray(res.objective_trace)
        assert tr.shape == (45,)
        drops = np.diff(tr)
        assert np.all(drops <= 1e-9 * np.maximum(np.abs(tr[:-1]), 1e-30))


def test_fuse_result_contract():
    _, sri, ops, hsi, msi = coupled_instance(50, snr=25.0)
    cfg = FusionConfig(method="cnn_btd", rank=RankSpec(2, 2), outer_iters=4, seed=1)
    res = bcd_fuse(hsi, msi, ops, cfg)
    assert res.method == "cnn_btd"
    assert res.iters_run == 4
    assert len(res.objective_trace) == 12
    assert res.wall_time >= 0.0
    assert res.factors.is_nonnegative()
    np.testing.assert_allclose(res.sri_estimate, btd_reconstruct(res.factors), atol=1e-12)
    assert res.sri_estimate.shape == sri.shape


@pytest.mark.parametrize("method, tol, extra", [("stereo", 1e-4, 0), ("two_stage", 1e-3, 1)],
                         ids=["stereo", "two_stage"])
def test_fuse_tol_stops_early(method, tol, extra):
    # two_stage appends the coupled objective after its stage-1 sweeps
    _, _, ops, hsi, msi = coupled_instance(51, snr=25.0)
    cfg = FusionConfig(
        method=method, rank=RankSpec(2, 2), outer_iters=200, tol=tol, seed=2
    )
    res = bcd_fuse(hsi, msi, ops, cfg)
    assert res.iters_run < 200
    assert len(res.objective_trace) == 3 * res.iters_run + extra
    # the run stops at the first sweep whose last entry moved by less than
    # tol relative to the previous sweep's (a stop at 10 tol used to pass)
    ends = res.objective_trace[2:3 * res.iters_run:3]
    moved = [abs(a - b) / max(abs(a), 1e-30) for a, b in zip(ends, ends[1:])]
    assert res.iters_run == next((sweep for sweep, m in enumerate(moved, 2) if m < tol), None)


def test_fuse_cpd_equals_btd_with_unit_blocks():
    _, _, ops, hsi, msi = coupled_instance(52, snr=25.0)
    cfg_cpd = FusionConfig(method="cnn_cpd", rank=RankSpec(3, 1), outer_iters=6, seed=3)
    cfg_btd = FusionConfig(method="cnn_btd", rank=RankSpec(3, 1), outer_iters=6, seed=3)
    res_cpd = bcd_fuse(hsi, msi, ops, cfg_cpd)
    res_btd = bcd_fuse(hsi, msi, ops, cfg_btd)
    np.testing.assert_allclose(res_cpd.sri_estimate, res_btd.sri_estimate, atol=1e-12)
    np.testing.assert_allclose(res_cpd.factors.A, res_btd.factors.A, atol=1e-12)
    assert res_cpd.method == "cnn_cpd"


def test_fuse_cpd_coerces_block_width():
    # a cnn_cpd request with L > 1 runs with L = 1 blocks of the same R
    _, _, ops, hsi, msi = coupled_instance(53, snr=25.0)
    cfg = FusionConfig(method="cnn_cpd", rank=RankSpec(3, 2), outer_iters=2, seed=4)
    # the config stores the rank its run fits
    assert cfg.rank == RankSpec(3, 1)
    res = bcd_fuse(hsi, msi, ops, cfg)
    assert res.factors.rank == RankSpec(3, 1)


def test_fuse_factors_nonnegative_at_every_sweep():
    # identical deterministic runs of growing length expose every iterate
    _, _, ops, hsi, msi = coupled_instance(55, snr=20.0)
    for outer in (1, 2, 3, 4):
        cfg = FusionConfig(
            method="cnn_btd", rank=RankSpec(2, 2), outer_iters=outer, seed=6
        )
        res = bcd_fuse(hsi, msi, ops, cfg)
        assert res.factors.is_nonnegative()


def test_fuse_improves_from_random_init():
    truth, sri, ops, hsi, msi = coupled_instance(54)
    cfg = FusionConfig(
        method="cnn_btd", rank=truth.rank, outer_iters=30, inner_iters=5, seed=5
    )
    res = bcd_fuse(hsi, msi, ops, cfg)
    assert r_snr(sri, res.sri_estimate) >= 15.0


# ---------------------------------------------------------------------------
# two-stage recovery


def test_recover_spectral_factor_exact():
    truth, _, ops, hsi, msi = coupled_instance(60)
    c = recover_spectral_factor(hsi, ops, truth.A, truth.B, truth.rank)
    assert np.linalg.norm(c - truth.C) / np.linalg.norm(truth.C) <= 1e-8


def test_recover_spectral_factor_identity_ops_pinv_oracle():
    rng = np.random.default_rng(61)
    rank = RankSpec(2, 2)
    f = BtdFactors(
        rng.uniform(size=(5, 4)), rng.uniform(size=(6, 4)), rng.uniform(size=(7, 2)), rank
    )
    sri = btd_reconstruct(f)
    ops = make_degradation_ops(5, 6, 7, K_M=7, kernel_size=1, d=1)
    maps = np.column_stack(
        [
            (f.A[:, rank.block_slice(r)] @ f.B[:, rank.block_slice(r)].T).ravel(order="F")
            for r in range(2)
        ]
    )
    expected = (np.linalg.pinv(maps) @ unfold(sri, 3)).T
    got = recover_spectral_factor(sri, ops, f.A, f.B, rank)
    np.testing.assert_allclose(got, expected, atol=1e-10)


@pytest.mark.parametrize("cut, match", [
    (lambda t, hsi: (t.A[:10], t.B, hsi), "a is (10, 4), the operators and rank need (12, 4)"),
    (lambda t, hsi: (t.A[:, :3], t.B, hsi), "a is (12, 3), the operators and rank need (12, 4)"),
    (lambda t, hsi: (t.A, t.B[:5], hsi), "b is (5, 4), the operators and rank need (12, 4)"),
    (lambda t, hsi: (t.A, t.B, hsi[:5]),
     "hsi's spatial size is (5, 6), the operators and rank need (6, 6)"),
    (lambda t, hsi: (t.A, t.B[0], hsi), "b must be 2-D, got ndim=1"),
], ids=["rows-of-a", "columns-of-a", "rows-of-b", "hsi", "vector-b"])
def test_recover_spectral_factor_refuses_shapes_the_operators_cannot_take(cut, match):
    # the first four used to escape from a matmul or a broadcast as a bare ValueError
    truth, _, ops, hsi, _ = coupled_instance(63)
    a, b, hsi = cut(truth, hsi)
    with pytest.raises(UsageError, match=re.escape(match)):
        recover_spectral_factor(hsi, ops, a, b, truth.rank)


def test_recover_spectral_factor_rank_deficient():
    # a single coarse pixel cannot determine three spectral columns
    rng = np.random.default_rng(62)
    rank = RankSpec(3, 1)
    a = rng.uniform(size=(4, 3))
    b = rng.uniform(size=(4, 3))
    ops = make_degradation_ops(4, 4, 6, K_M=2, kernel_size=1, d=4)
    hsi = rng.uniform(size=(1, 1, 6))
    with pytest.raises(NumericalError, match=r"rank 1 < R = 3.*full column rank.*I_H\*J_H >= R"):
        recover_spectral_factor(hsi, ops, a, b, rank)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_recover_spectral_factor_refuses_a_non_finite_hsi(value):
    # the least-squares solve used to return a non-finite spectral factor
    # with no refusal, and then to warn "invalid value encountered in matmul"
    # before refusing it: the HSI is refused before the solve, with no warning
    truth, _, ops, hsi, _ = coupled_instance(63)
    hsi[1, 2, 3] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite"):
            recover_spectral_factor(hsi, ops, truth.A, truth.B, truth.rank)


@pytest.mark.parametrize("which", ["a", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_recover_spectral_factor_refuses_non_finite_spatial_factors(which, value):
    # a NaN or Inf in a or b used to escape as a bare LinAlgError ("SVD did
    # not converge"), an Inf after a warning: it is refused before the solve
    truth, _, ops, hsi, _ = coupled_instance(63)
    factors = {"a": truth.A.copy(), "b": truth.B.copy()}
    factors[which][1, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match=rf"^{which} holds non-finite entries \(NaN or Inf\)$"):
            recover_spectral_factor(hsi, ops, factors["a"], factors["b"], truth.rank)


@pytest.mark.parametrize("shape, rank", [((40, 6), 6), ((40, 6), 3), ((5, 9), 5)],
                         ids=["tall", "rank-deficient", "underdetermined"])
def test_min_norm_lstsq_matches_lstsq(shape, rank):
    from btdfuse.solver import _min_norm_lstsq

    rng = np.random.default_rng(65)
    w = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    y = rng.standard_normal((shape[0], 7))
    got, got_rank = _min_norm_lstsq(w, y)
    want, _, want_rank, _ = np.linalg.lstsq(w, y, rcond=None)
    assert got_rank == want_rank == rank
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_two_stage_recovers_from_warm_start():
    rank = RankSpec(3, 2)
    rng = np.random.default_rng(7)
    truth = BtdFactors(
        rng.uniform(size=(27, 6)),
        rng.uniform(size=(27, 6)),
        rng.uniform(size=(16, 3)),
        rank,
    )
    sri = btd_reconstruct(truth)
    ops = make_degradation_ops(27, 27, 16, K_M=4, kernel_size=3, sigma=1.5, d=3)
    hsi, msi = apply_degradation(sri, ops)
    jitter = np.random.default_rng(11)
    start = truth.copy()
    for name in ("A", "B", "C"):
        x = getattr(start, name)
        noise = jitter.standard_normal(x.shape)
        x = np.maximum(x + 0.01 * np.linalg.norm(x) / np.linalg.norm(noise) * noise, 0.0)
        setattr(start, name, x)
    cfg = FusionConfig(
        method="two_stage", rank=rank, outer_iters=50, init="provided", init_factors=start
    )
    res = bcd_fuse(hsi, msi, ops, cfg)
    assert res.method == "two_stage"
    assert r_snr(sri, res.sri_estimate) >= 40.0
    # the noiseless MSI is fit exactly in the first sweep: its last entry is
    # at the exact-fit floor, 1e-28 ||Y_M||^2 (the normalized ||Y_M||^2 is
    # above 1 here), which stopped the run (tol is 0); the trace ends with
    # the coupled objective after the spectral stage, at rounding level
    assert res.iters_run == 1 and len(res.objective_trace) == 4
    assert res.objective_trace[2] <= 1e-28 * frob_norm(msi) ** 2
    assert res.objective_trace[-1] <= 1e-26 * (frob_norm(hsi) ** 2 + frob_norm(msi) ** 2)


@pytest.mark.parametrize(
    "where, index, provided",
    [("hsi", (1, 2, 3), False), ("msi", (1, 2, 0), False), ("msi", (1, 2, 0), True)],
    ids=["hsi", "msi", "msi-provided"],
)
def test_two_stage_nan_raises(where, index, provided):
    # a NaN in the HSI used to show only in stage 2, after the one sweep that
    # fits the noiseless MSI exactly (a trace of 3 entries), and one in the
    # MSI failed block A of sweep 1: the pair is refused before stage 1, with
    # the image named, an empty trace and no warning
    truth, _, ops, hsi, msi = coupled_instance(63)
    data = {"hsi": hsi.copy(), "msi": msi.copy()}
    data[where][index] = np.nan
    start = {"init": "provided", "init_factors": truth} if provided else {}
    cfg = FusionConfig(method="two_stage", rank=truth.rank, outer_iters=5, **start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as info:
            bcd_fuse(data["hsi"], data["msi"], ops, cfg)
    assert str(info.value) == f"the {where.upper()} holds non-finite entries (NaN or Inf)"
    assert info.value.trace == []


@pytest.mark.parametrize(
    "rank, rtol",
    [(RankSpec(2, 2), 1e-12), (RankSpec(3, (1, 2, 3)), 1e-12), (RankSpec(3, 14), 1e-10)],
    ids=["R2L2", "R3L123", "R3L14"],
)
def test_two_stage_updates_match_pinv(rank, rtol):
    # stage 1 runs lstsq on the explicit Khatri-Rao design of the MSI's core,
    # as _stage1_data gives it with the start it moves there, and A = U A',
    # B = V B'.  U and V keep min(sum(L), 12) orthonormal columns: with sum(L)
    # = 42 (R3L14) they are 12x12, and the core is the MSI rotated.  There
    # sum(L) = 42 > J*K_M = 36: the design is rank-deficient and its Gram
    # singular.  A solve on the Gram is far off, and lstsq on the Gram, which
    # squares the design's condition number, left B 4e-6 off on this instance
    # (the worst of data seeds 0-39, on the MSI itself); lstsq on the design
    # of the rotated core is within 1.3e-12 here, 3.5e-12 over seeds 0-39
    from btdfuse.solver import _stage1_data

    truth, _, ops, hsi, msi = coupled_instance(32, rank=rank)
    start = init_factors(truth.dims, rank, 3, "random_uniform")
    cfg = FusionConfig(method="two_stage", rank=rank, outer_iters=1, init="provided",
                       init_factors=start)
    res = bcd_fuse(hsi, msi, ops, cfg)
    x = {"A": start.A, "B": start.B, "C": ops.P3 @ start.C}
    y, _, (u, v) = _stage1_data(msi, x, rank)
    n = min(rank.total, 12)
    assert u.shape == v.shape == (12, n)
    for m in (u, v):
        np.testing.assert_allclose(m.T @ m, np.eye(n), rtol=0, atol=1e-14)
    a = u @ (np.linalg.pinv(pw_khatri_rao(x["C"], x["B"], rank.L)) @ y["A"]).T
    b = v @ (np.linalg.pinv(pw_khatri_rao(x["C"], u.T @ res.factors.A, rank.L)) @ y["B"]).T
    assert np.linalg.norm(res.factors.A - a) <= rtol * np.linalg.norm(a)
    assert np.linalg.norm(res.factors.B - b) <= rtol * np.linalg.norm(b)


@pytest.mark.parametrize("method", ["cnn_btd", "stereo", "cnn_cpd"])
@pytest.mark.parametrize("where, index", [("hsi", (1, 2, 3)), ("msi", (1, 2, 0))],
                         ids=["hsi", "msi"])
def test_coupled_fuse_refuses_a_nan_pair_before_any_update(method, where, index):
    # a NaN used to fail the Sylvester solve of block A at sweep 1, and stereo
    # warned of a jitter retry (with jitter nan for a NaN in the MSI) that
    # cannot mend it: the pair is refused before any update, with the image
    # named, an empty trace and no warning
    truth, _, ops, hsi, msi = coupled_instance(63)
    data = {"hsi": hsi.copy(), "msi": msi.copy()}
    data[where][index] = np.nan
    cfg = FusionConfig(method=method, rank=truth.rank, outer_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as info:
            bcd_fuse(data["hsi"], data["msi"], ops, cfg)
    assert str(info.value) == f"the {where.upper()} holds non-finite entries (NaN or Inf)"
    assert info.value.trace == []


@pytest.mark.parametrize("method", ["cnn_btd", "cnn_cpd", "stereo", "two_stage"])
@pytest.mark.parametrize("init", ["random_uniform", "svd_warm"])
@pytest.mark.parametrize("where", ["hsi", "msi"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_fuse_refuses_a_non_finite_pair_before_any_work(monkeypatch, method, init, where, value):
    # one rule for every method and start: the pair is refused before a
    # start is drawn, the MSI compressed or a Sylvester system factored
    import btdfuse.solver as solver

    truth, _, ops, hsi, msi = coupled_instance(63)
    data = {"hsi": hsi.copy(), "msi": msi.copy()}
    data[where][1, 2, 0] = value
    cfg = FusionConfig(method=method, rank=truth.rank, outer_iters=5, init=init)
    for name in ("init_factors", "_compress", "_SylvesterFactor"):
        monkeypatch.setattr(solver, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as info:
            bcd_fuse(data["hsi"], data["msi"], ops, cfg)
    assert str(info.value) == f"the {where.upper()} holds non-finite entries (NaN or Inf)"
    assert info.value.trace == []


def test_stereo_failed_retry_names_block_and_sweep():
    # R = 40 rank-1 blocks on a 30x30x20 pair: a block system stays singular
    # after its jitter retry, and the error says which update failed
    rank = RankSpec(3, 2)
    sri = btd_reconstruct(init_factors((30, 30, 20), rank, 0, "random_uniform"))
    ops = make_degradation_ops(30, 30, 20, K_M=4, kernel_size=5, sigma=2.5, d=5)
    hsi, msi = apply_degradation(sri, ops)
    hsi = add_noise(hsi, NoiseSpec(30.0, 1))
    msi = add_noise(msi, NoiseSpec(30.0, 2))
    cfg = FusionConfig(method="stereo", rank=RankSpec(40, 1), seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericalError) as info:
            bcd_fuse(hsi, msi, ops, cfg)
    head = re.match(r"block ([ABC]) update failed at sweep (\d+): ", str(info.value))
    assert head, str(info.value)
    block, sweep = "ABC".index(head.group(1)), int(head.group(2))
    assert len(info.value.trace) == 3 * (sweep - 1) + block
    # 6x6 coarse pixels cannot determine 40 spectra: the message says so
    assert str(info.value).endswith("I_H*J_H = 36 < R = 40"), str(info.value)


@pytest.mark.parametrize("method", ["cnn_btd", "cnn_cpd", "stereo"])
@pytest.mark.parametrize("rank, clauses", [
    (RankSpec(40, 1), "; failed recovery conditions: "
                      "min(I/L,R)+min(J/L,R)+min(K,R) = 27 < 2R+2 = 82; I_H*J_H = 36 < R = 40"),
    (RankSpec(2, 2), ""),
    (RankSpec(3, (1, 2, 3)), ""),
], ids=["R40", "identifiable", "uneven-L"])
def test_failed_block_update_names_failed_recovery_conditions(method, rank, clauses, monkeypatch):
    # a failed block update ends its message with the coupled identifiability
    # clauses its geometry fails (12x12 MSI of 3 bands, 6x6 HSI pixels); an
    # identifiable geometry or an uneven L, which the conditions do not cover,
    # leaves the message as it was
    import btdfuse.solver as solver

    def failing(*args):
        raise NumericalError("forced")

    monkeypatch.setattr(solver, "_SylvesterFactor", failing)
    _, _, ops, hsi, msi = coupled_instance(63)
    with warnings.catch_warnings():
        # stereo warns of its jitter retry, which fails too
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericalError) as info:
            bcd_fuse(hsi, msi, ops, FusionConfig(method=method, rank=rank, seed=1))
    assert str(info.value) == "block A update failed at sweep 1: forced" + clauses


@pytest.mark.parametrize("snr, sweeps", [(None, 1), (30.0, 4)], ids=["noiseless", "30dB"])
def test_two_stage_spectral_failure_carries_the_trace(snr, sweeps):
    # five blocks on 2x2 coarse pixels, the numerical-3 case of the process
    # tests: stage 2's rank-deficiency error used to carry no trace.  The
    # noiseless MSI is fit exactly in one sweep, which stops stage 1
    sri = btd_reconstruct(init_factors((6, 6, 5), RankSpec(2, 1), 0, "random_uniform"))
    ops = make_degradation_ops(6, 6, 5, K_M=2, kernel_size=3, sigma=1.5, d=3)
    hsi, msi = apply_degradation(sri, ops)
    if snr is not None:
        hsi, msi = add_noise(hsi, NoiseSpec(snr, 1)), add_noise(msi, NoiseSpec(snr, 2))
    cfg = FusionConfig(method="two_stage", rank=RankSpec(5, 1), outer_iters=4)
    with pytest.raises(NumericalError, match="rank-deficient") as info:
        bcd_fuse(hsi, msi, ops, cfg)
    assert str(info.value).startswith(f"spectral recovery from the HSI failed after sweep "
                                      f"{sweeps}: ")
    assert len(info.value.trace) == 3 * sweeps
    assert np.isfinite(info.value.trace).all()


def test_two_stage_stops_at_perfect_msi_fit():
    # started from the true factors on a noiseless pair, the first sweep
    # fits the MSI exactly and the run stops whatever outer_iters and tol say
    truth, _, ops, hsi, msi = coupled_instance(64)
    cfg = FusionConfig(method="two_stage", rank=truth.rank, outer_iters=10,
                       init="provided", init_factors=truth)
    res = bcd_fuse(hsi, msi, ops, cfg)
    assert res.iters_run == 1
    assert len(res.objective_trace) == 4


def test_two_stage_first_sweep_is_plain_als():
    # every sweep is plain ALS and depends only on the sweeps before it: the
    # stage-1 entries of a k-sweep run are the first 3k of a 6-sweep run's,
    # bit for bit, for k = 1..5
    _, _, ops, hsi, msi = coupled_instance(65, snr=30.0)
    cfg = FusionConfig(method="two_stage", rank=RankSpec(2, 2), outer_iters=6, seed=4)
    six = bcd_fuse(hsi, msi, ops, cfg).objective_trace
    assert len(six) == 3 * 6 + 1
    for k in range(1, 6):
        run = bcd_fuse(hsi, msi, ops, dataclasses.replace(cfg, outer_iters=k))
        assert run.objective_trace[:-1] == six[:3 * k], k


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 200),
    rank=st.sampled_from((RankSpec(2, 2), RankSpec(3, (1, 2, 3)), RankSpec(1, 1), RankSpec(3, 1))),
    snr=st.one_of(st.none(), st.floats(min_value=5.0, max_value=60.0)),
    sweeps=st.integers(2, 40),
)
def test_two_stage_trace_never_rises(seed, rank, snr, sweeps):
    # each ALS update minimizes the MSI residual over its block, so stage 1
    # never goes up by more than 1e-12 relative, or near an exact fit by more
    # than the rounding of residuals taken in different unfoldings, about eps
    # ||Y_M|| sqrt(residual) (at most 2e-14 ||Y_M|| sqrt(residual) over
    # 400-sweep noiseless runs)
    _, _, ops, hsi, msi = coupled_instance(seed, snr=snr)
    cfg = FusionConfig(method="two_stage", rank=rank, outer_iters=sweeps, seed=seed + 1)
    stage1 = bcd_fuse(hsi, msi, ops, cfg).objective_trace[:-1]
    y_norm = frob_norm(msi)
    for before, after in zip(stage1, stage1[1:]):
        assert after <= before * (1 + 1e-12) + 1e-12 * y_norm * before ** 0.5, (before, after)


@pytest.mark.parametrize("dims, k_m, rank", [((12, 12, 8), 3, RankSpec(3, 2)),
                                              ((12, 12, 8), 4, RankSpec(3, 14)),
                                              ((10, 14, 8), 3, RankSpec(2, 6))],
                         ids=["R3L2", "R3L14", "R2L6-10x14"])
def test_two_stage_entries_are_the_msi_residual(dims, k_m, rank, monkeypatch):
    # stage 1 fits the MSI's core G, and each entry is the core's residual
    # plus the offset ||Y - G x1 U x2 V||^2.  By Pythagoras that is the MSI's
    # residual of the lifted factors (U A', V B') for any orthonormal U and V,
    # also where sum(L) > min(I_M, J_M) makes U or V a full basis (R3L14,
    # and R2L6 in mode 1 of a 10x14 MSI): every residual stage 1 takes of the
    # core, one per block update, must be it to 1e-12 relative.  R3L14 takes
    # 4 bands: with 3, its A update's design has full row rank (sum(L) = 42 >
    # J*K_M = 36) and fits the noisy MSI exactly in sweep 1, where the
    # residuals are rounding
    import math

    import btdfuse.solver as solver

    _, _, ops, hsi, msi = coupled_instance(66, dims=dims, K_M=k_m, snr=30.0)
    seen, fits = [], []
    data, fit = solver._stage1_data, solver._fit
    monkeypatch.setattr(solver, "_stage1_data",
                        lambda *a: seen.append((a[0], data(*a))) or seen[0][1])
    monkeypatch.setattr(solver, "_fit", lambda *a: fits.append((*a, fit(*a))) or fits[-1][-1])
    cfg = FusionConfig(method="two_stage", rank=rank, outer_iters=6, seed=2)
    res = bcd_fuse(hsi, msi, ops, cfg)
    (normalized, (y, offset, (u, v))), = seen
    on_core = [(c, maps, j) for y3, c, maps, j in fits if y3 is y["C"]]
    assert len(on_core) == 3 * 6
    lifted = np.kron(v, u)  # vec(U X V^T) = kron(V, U) vec(X)
    for c, maps, j in on_core:
        dense = fit(unfold(normalized, 3), c, lifted @ maps)
        assert abs(offset + j - dense) <= 1e-12 * dense
    # each stage-1 entry is one of them, on the pair as the solver normalized it
    e = math.frexp(max(np.abs(hsi).max(), np.abs(msi).max()))[1]
    taken = {offset + j for _, _, j in on_core}
    assert len(res.objective_trace) == 3 * 6 + 1
    assert all(math.ldexp(t, -2 * e) in taken for t in res.objective_trace[:-1])


@pytest.mark.parametrize("rank", [RankSpec(3, 2), RankSpec(3, (1, 2, 3)), RankSpec(1, 1)],
                         ids=["R3L2", "R3L123", "R1"])
def test_core_normal_equations_match_the_dense_jacobian(rank):
    # J^T J and J^T e from the Grams equal those of the Jacobian built densely,
    # one einsum over an identity per factor, on factors of uneven sizes
    from btdfuse.solver import _core_normal_equations, _spread

    rng = np.random.default_rng(74)
    n = rank.total
    a, b, c = (rng.standard_normal((5, n)), rng.standard_normal((4, n)),
               rng.standard_normal((3, rank.R)))
    core = rng.standard_normal((5, 4, 3))
    f, h, g = _core_normal_equations(unfold(core, 3), a, b, c, _spread(rank))
    c_x = c[:, np.repeat(np.arange(rank.R), rank.L)]
    maps = np.einsum("il,jl,lr->ijr", a, b, _spread(rank))
    e = (np.einsum("il,jl,kl->ijk", a, b, c_x) - core).ravel()
    # d M[i, j, k] / d (column l, row s) of each factor, columns in vec order
    jac = np.hstack([m.reshape(e.size, -1) for m in (
        np.einsum("is,jl,kl->ijkls", np.eye(5), b, c_x),
        np.einsum("js,il,kl->ijkls", np.eye(4), a, c_x),
        np.einsum("ks,ijr->ijkrs", np.eye(3), maps))])
    assert h.shape == (jac.shape[1],) * 2
    assert abs(f - e @ e) <= 1e-10 * (e @ e)
    assert np.linalg.norm(h - jac.T @ jac) <= 1e-10 * np.linalg.norm(jac.T @ jac)
    assert np.linalg.norm(g - jac.T @ e) <= 1e-10 * np.linalg.norm(jac.T @ e)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 200),
    rank=st.sampled_from((RankSpec(2, 2), RankSpec(3, (1, 2, 3)), RankSpec(1, 1), RankSpec(3, 1))),
    snr=st.one_of(st.none(), st.floats(min_value=5.0, max_value=60.0)),
)
def test_levenberg_marquardt_residual_never_rises(seed, rank, snr):
    # a step is taken only when it lowers the core residual; x is left at
    # the last point taken
    from btdfuse.solver import _compress, _core_fit, _levenberg_marquardt, _spread

    _, _, ops, _, msi = coupled_instance(seed, snr=snr)
    u, v, core, _ = _compress(msi, rank.total)
    start = init_factors((12, 12, 8), rank, seed + 1, "random_uniform", msi=msi)
    x = {"A": u.T @ start.A, "B": v.T @ start.B, "C": ops.P3 @ start.C}
    y3 = unfold(core, 3)
    taken = _levenberg_marquardt(y3, x, rank)
    assert all(after < before for before, after in zip(taken, taken[1:])), taken
    e = _core_fit(y3, *x.values(), _spread(rank))[0]
    assert abs(np.vdot(e, e) - taken[-1]) <= 1e-12 * taken[-1]


def test_levenberg_marquardt_stops_once_its_step_no_longer_moves():
    # R3L1 at 55.2 dB: after a step that lowered the core residual by 6e-12
    # of it, no step lowered it again, and the damping, doubled in factor
    # after each refused step, overflowed ("overflow encountered in scalar
    # multiply") before the step cap; the loop now stops once the damped
    # step leaves the point as it is
    _, _, ops, hsi, msi = coupled_instance(135, snr=55.19873206773254)
    cfg = FusionConfig(method="two_stage", rank=RankSpec(3, 1), outer_iters=2, seed=136)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = bcd_fuse(hsi, msi, ops, cfg)
    assert len(res.objective_trace) == 7


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 200), rank=st.sampled_from((RankSpec(2, 2), RankSpec(3, 1),
                                                        RankSpec(1, 1))))
def test_two_stage_fits_a_noiseless_msi_in_one_sweep(seed, rank):
    # from a random start, Levenberg-Marquardt fits the noiseless core
    # exactly, so the first sweep ends at the exact-fit floor and stops the
    # run: on every data seed 0-200 for these ranks.  A random start can end
    # in a local minimum instead, as ALS sweeps can: with R3L2 on 3 of data
    # seeds 0-200 (62, 120, 191), with uneven L = (1, 2, 3) on 16 of 0-19
    _, _, ops, hsi, msi = coupled_instance(seed, rank=rank)
    cfg = FusionConfig(method="two_stage", rank=rank, outer_iters=10, seed=seed + 1)
    res = bcd_fuse(hsi, msi, ops, cfg)
    assert res.iters_run == 1 and len(res.objective_trace) == 4


def test_two_stage_above_the_lm_bound_runs_the_sweeps_on_the_core(monkeypatch):
    # 6 blocks of rank 2 on a 16x16 MSI of 4 bands: the core fit has
    # 2 * 12^2 + 4 * 6 = 312 parameters, above the bound, so no LM step runs
    # and the sweeps start from the projected start; they still fit the MSI
    import btdfuse.solver as solver

    rank = RankSpec(6, 2)
    assert 2 * rank.total ** 2 + 4 * rank.R > solver._LM_MAX_PARAMS
    _, _, ops, hsi, msi = coupled_instance(75, dims=(16, 16, 12), rank=rank, K_M=4, snr=30.0)
    compressed = []
    compress = solver._compress
    monkeypatch.setattr(solver, "_compress", lambda *a: compressed.append(1) or compress(*a))
    monkeypatch.setattr(solver, "_levenberg_marquardt", lambda *a: pytest.fail("LM ran"))
    res = bcd_fuse(hsi, msi, ops, FusionConfig(method="two_stage", rank=rank, outer_iters=15,
                                                seed=4))
    assert compressed == [1] and len(res.objective_trace) == 3 * 15 + 1
    stage1, y_norm = res.objective_trace[:-1], frob_norm(msi)
    for before, after in zip(stage1, stage1[1:]):
        assert after <= before * (1 + 1e-12) + 1e-12 * y_norm * before ** 0.5, (before, after)
    assert stage1[-1] <= 0.01 * frob_norm(msi) ** 2


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 200), rank=st.sampled_from((RankSpec(3, 2), RankSpec(6, 2))))
def test_two_stage_stage1_never_rises_with_and_without_lm(seed, rank):
    # on the 16x16 MSI of 4 bands above, R3L2's core fit (84 parameters)
    # starts with LM and R6L2's (312) runs the sweeps alone; either way every
    # update is an exact block minimum of plain ALS, so no stage-1 entry rises
    # past the tolerance of the test above
    _, _, ops, hsi, msi = coupled_instance(seed, dims=(16, 16, 12), rank=rank, K_M=4, snr=30.0)
    res = bcd_fuse(hsi, msi, ops, FusionConfig(method="two_stage", rank=rank, outer_iters=10,
                                                seed=seed + 1))
    stage1, y_norm = res.objective_trace[:-1], frob_norm(msi)
    for before, after in zip(stage1, stage1[1:]):
        assert after <= before * (1 + 1e-12) + 1e-12 * y_norm * before ** 0.5, (before, after)


@pytest.mark.parametrize("snr", [None, 30.0], ids=["noiseless", "30dB"])
@pytest.mark.parametrize("seed", range(6))
def test_two_stage_runs_lm_where_sum_l_exceeds_the_msi_side(seed, snr, monkeypatch):
    # 4 blocks of rank 2 on a 6x6 MSI of 2 bands: sum(L) = 8 > 6 makes U and
    # V full 6x6 bases, and the core fit has 2 * 6 * 8 + 2 * 4 = 104
    # parameters, under the bound, so LM starts the sweeps.  With more
    # parameters than the MSI's 72 entries it fits even the noisy MSI
    # exactly, and the first sweep ends at the exact-fit floor
    import btdfuse.solver as solver

    rank = RankSpec(4, 2)
    _, _, ops, hsi, msi = coupled_instance(seed, dims=(6, 6, 8), rank=rank, K_M=2, snr=snr)
    calls = []
    lm = solver._levenberg_marquardt
    monkeypatch.setattr(solver, "_levenberg_marquardt", lambda *a: calls.append(1) or lm(*a))
    res = bcd_fuse(hsi, msi, ops, FusionConfig(method="two_stage", rank=rank, outer_iters=10,
                                                seed=seed + 1))
    assert calls == [1] and res.iters_run == 1 and len(res.objective_trace) == 4


@pytest.mark.parametrize("method", ["cnn_btd", "stereo", "two_stage"])
@settings(max_examples=12, deadline=None)
@given(log_s=st.floats(min_value=-100.0, max_value=100.0))
@example(log_s=-100.0)
@example(log_s=100.0)
def test_fuse_scale_equivariant(method, log_s):
    # fusing (s HSI, s MSI) gives s times the estimate and s^2 times the
    # trace; at s = 1e100 cnn_btd and stereo used to overflow their residual
    # check, at s = 1e-100 two_stage stopped after one sweep
    s = 10.0**log_s
    _, _, ops, hsi, msi = coupled_instance(60, snr=30.0)
    cfg = FusionConfig(method=method, rank=RankSpec(2, 2), outer_iters=5, seed=3)
    base = bcd_fuse(hsi, msi, ops, cfg)
    res = bcd_fuse(s * hsi, s * msi, ops, cfg)
    assert res.iters_run == base.iters_run
    want = s * base.sri_estimate
    assert np.linalg.norm(res.sri_estimate - want) <= 1e-10 * np.linalg.norm(want)
    np.testing.assert_allclose(
        np.asarray(res.objective_trace) / s**2, base.objective_trace, rtol=1e-10
    )


def test_fuse_provided_init_is_scaled_with_the_data():
    truth, _, ops, hsi, msi = coupled_instance(61)
    s = 1e80
    scaled_truth = truth.copy()
    scaled_truth.C = s * truth.C
    cfg = FusionConfig(method="stereo", rank=truth.rank, outer_iters=2,
                       init="provided", init_factors=scaled_truth)
    res = bcd_fuse(s * hsi, s * msi, ops, cfg)
    np.testing.assert_array_equal(cfg.init_factors.C, scaled_truth.C)  # not modified
    assert np.linalg.norm(res.factors.C - s * truth.C) <= 1e-6 * s * np.linalg.norm(truth.C)


# ---------------------------------------------------------------------------
# init_factors


def test_init_random_uniform_deterministic_and_nonneg():
    a = init_factors((6, 7, 5), RankSpec(2, 2), seed=0, strategy="random_uniform")
    b = init_factors((6, 7, 5), RankSpec(2, 2), seed=0, strategy="random_uniform")
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.C, b.C)
    assert a.is_nonnegative()
    c = init_factors((6, 7, 5), RankSpec(2, 2), seed=1, strategy="random_uniform")
    assert np.any(c.A != a.A)


def test_init_scales_to_msi_norm():
    # C is scaled from the factor Grams, without a reconstruction; the
    # reconstruction's norm must still match the MSI's
    _, _, ops, hsi, msi = coupled_instance(70)
    for strategy in ("random_uniform", "svd_warm"):
        for rank in (RankSpec(2, 2), RankSpec(3, (1, 2, 3))):
            f = init_factors((12, 12, 8), rank, seed=2, strategy=strategy, msi=msi)
            recon = frob_norm(btd_reconstruct(f))
            assert abs(recon - frob_norm(msi)) <= 1e-12 * frob_norm(msi)


def test_init_svd_warm_deterministic_nonneg():
    _, _, ops, hsi, msi = coupled_instance(71, snr=30.0)
    f1 = init_factors((12, 12, 8), RankSpec(2, 2), seed=0, strategy="svd_warm", msi=msi)
    f2 = init_factors((12, 12, 8), RankSpec(2, 2), seed=9, strategy="svd_warm", msi=msi)
    np.testing.assert_array_equal(f1.A, f2.A)  # no randomness involved
    assert f1.is_nonnegative()
    assert f1.dims == (12, 12, 8)


def oracle_svd_warm(dims, rank, msi):
    """svd_warm by a loop over the blocks, each left vector's sign flipped to a positive sum."""
    i, j, k = dims
    k_m = msi.shape[2]
    src, dst = np.linspace(0.0, 1.0, k_m), np.linspace(0.0, 1.0, k)
    t = np.stack([np.interp(dst, src, basis) for basis in np.eye(k_m)], axis=1)
    u, s, vt = np.linalg.svd(unfold(msi, 3) @ t.T, full_matrices=False)
    a, b, c = np.empty((i, rank.total)), np.empty((j, rank.total)), np.empty((k, rank.R))
    for r in range(rank.R):
        ur, vr = u[:, r], vt[r]
        if ur.sum() < 0:
            ur, vr = -ur, -vr
        us, ss, vts = np.linalg.svd(ur.reshape(i, j, order="F"), full_matrices=False)
        l_r, cols = rank.L[r], rank.block_slice(r)
        a[:, cols] = np.abs(us[:, :l_r] * np.sqrt(ss[:l_r]))
        b[:, cols] = np.abs(vts[:l_r].T * np.sqrt(ss[:l_r]))
        c[:, r] = np.abs(s[r] * vr)
    # init_factors scales C so that the reconstruction has the MSI's norm
    c *= frob_norm(msi) / frob_norm(btd_reconstruct(BtdFactors(a, b, c, rank)))
    return a, b, c


def test_init_svd_warm_matches_block_loop():
    for rank in (RankSpec(3, 2), RankSpec(3, (1, 2, 3)), RankSpec(1, 2)):
        _, _, ops, hsi, msi = coupled_instance(73, rank=rank, snr=30.0)
        f = init_factors((12, 12, 8), rank, seed=0, strategy="svd_warm", msi=msi)
        for name, got, want in zip("ABC", (f.A, f.B, f.C), oracle_svd_warm((12, 12, 8), rank, msi)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=f"{rank} {name}")


@pytest.mark.parametrize("strategy", ["random_uniform", "svd_warm"])
def test_init_refuses_an_msi_of_other_spatial_dims(strategy):
    # random_uniform used to scale C by the norm of any MSI it was given
    msi = np.ones((5, 7, 3))
    with pytest.raises(UsageError, match="msi spatial dims"):
        init_factors((12, 12, 8), RankSpec(2, 2), seed=0, strategy=strategy, msi=msi)


def test_init_svd_warm_needs_msi():
    with pytest.raises(UsageError):
        init_factors((6, 6, 4), RankSpec(2, 2), seed=0, strategy="svd_warm")


@pytest.mark.parametrize("strategy", ["random_uniform", "svd_warm"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_init_refuses_a_non_finite_msi(strategy, value):
    # one NaN in the MSI used to give random_uniform an all-NaN C and svd_warm
    # a bare LinAlgError ("SVD did not converge")
    _, _, _, _, msi = coupled_instance(73)
    msi[1, 2, 0] = value
    with pytest.raises(UsageError, match=r"^msi holds non-finite entries \(NaN or Inf\)$"):
        init_factors((12, 12, 8), RankSpec(2, 2), seed=0, strategy=strategy, msi=msi)


def test_init_svd_warm_rank_guards():
    _, _, ops, hsi, msi = coupled_instance(72)
    with pytest.raises(UsageError):
        init_factors((12, 12, 2), RankSpec(3, 2), seed=0, strategy="svd_warm", msi=msi)
    with pytest.raises(UsageError):
        init_factors((12, 12, 8), RankSpec(2, 13), seed=0, strategy="svd_warm", msi=msi)


def test_init_provided_strategy_rejected_here():
    with pytest.raises(UsageError):
        init_factors((6, 6, 4), RankSpec(2, 2), seed=0, strategy="provided")


def test_init_refuses_an_unknown_strategy_and_two_dims():
    with pytest.raises(UsageError, match="unknown init strategy 'bogus'"):
        init_factors((6, 6, 4), RankSpec(2, 2), seed=0, strategy="bogus")
    with pytest.raises(UsageError, match=re.escape("dims must be three integers >= 1, got (4, 4)")):
        init_factors((4, 4), RankSpec(2, 2), seed=0, strategy="random_uniform")
