"""Unfold/fold layout, mode products, and structured matrix products."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from btdfuse import (
    UsageError,
    fold,
    frob_norm,
    khatri_rao,
    kronecker,
    mode_product,
    pw_khatri_rao,
    unfold,
    unvec,
    vec,
)


def seq_tensor(i, j, k):
    """Tensor with entry value i + I*(j) + I*J*(k) + 1, column-major count."""
    return np.arange(1.0, i * j * k + 1.0).reshape((i, j, k), order="F")


# ---------------------------------------------------------------------------
# unfold / fold


def test_unfold_mode3_columns_are_slices():
    t = seq_tensor(2, 2, 2)
    # mode-3 unfolding is IJ x K with column k holding vec(T[:, :, k])
    expected = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]])
    np.testing.assert_array_equal(unfold(t, 3), expected)


def test_unfold_mode1_frozen_example():
    t = seq_tensor(2, 2, 2)
    expected = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(unfold(t, 1), expected)


def test_unfold_mode2_row_order():
    t = seq_tensor(3, 2, 2)
    x2 = unfold(t, 2)
    assert x2.shape == (2 * 3, 2)
    for k in range(2):
        for i in range(3):
            np.testing.assert_array_equal(x2[k * 3 + i], t[i, :, k])


def test_unfold_mode1_row_order():
    t = seq_tensor(3, 4, 2)
    x1 = unfold(t, 1)
    assert x1.shape == (2 * 4, 3)
    for k in range(2):
        for j in range(4):
            np.testing.assert_array_equal(x1[k * 4 + j], t[:, j, k])


def test_unfold_mode3_row_order():
    t = seq_tensor(3, 4, 2)
    x3 = unfold(t, 3)
    assert x3.shape == (12, 2)
    for j in range(4):
        for i in range(3):
            np.testing.assert_array_equal(x3[j * 3 + i], t[i, j, :])


def test_unfold_singleton():
    t = np.full((1, 1, 1), 5.0)
    np.testing.assert_array_equal(unfold(t, 1), [[5.0]])
    np.testing.assert_array_equal(unfold(t, 2), [[5.0]])
    np.testing.assert_array_equal(unfold(t, 3), [[5.0]])


def test_fold_inverts_unfold():
    # in C and F order and as a transposed view (neither C nor F: the second axis slowest)
    layouts = (np.ascontiguousarray, np.asfortranarray,
               lambda t: np.ascontiguousarray(t.transpose(1, 0, 2)).transpose(1, 0, 2))
    rng = np.random.default_rng(0)
    for _ in range(10):
        dims = tuple(rng.integers(1, 7, size=3))
        for layout in layouts:
            t = layout(rng.standard_normal(dims))
            for mode in (1, 2, 3):
                np.testing.assert_array_equal(fold(unfold(t, mode), mode, dims), t)


def test_unfold_mode3_of_a_column_major_tensor_is_a_view():
    # the solver copies its data pair column-major so that every mode-3
    # unfolding of it reads the pair in place
    t = np.asfortranarray(seq_tensor(3, 4, 5))
    assert np.shares_memory(unfold(t, 3), t)


def test_fold_frozen_example():
    m = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(fold(m, 1, (2, 2, 2)), seq_tensor(2, 2, 2))


def test_unfold_bad_mode():
    t = np.zeros((2, 2, 2))
    with pytest.raises(UsageError):
        unfold(t, 0)
    with pytest.raises(UsageError):
        unfold(t, 4)


def test_unfold_rejects_non_3d():
    with pytest.raises(UsageError):
        unfold(np.zeros((2, 2)), 1)


def test_fold_shape_mismatch():
    with pytest.raises(UsageError):
        fold(np.zeros((4, 2)), 1, (3, 2, 2))
    for mode, expected in ((1, (4, 3)), (2, (6, 2)), (3, (6, 2))):
        with pytest.raises(UsageError, match=re.escape(
                f"mode-{mode} unfolding of a 3x2x2 tensor has shape {expected}, got (5, 5)")):
            fold(np.zeros((5, 5)), mode, (3, 2, 2))


# ---------------------------------------------------------------------------
# mode_product


def test_mode_product_identity():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4, 5))
    for mode, n in ((1, 3), (2, 4), (3, 5)):
        np.testing.assert_allclose(mode_product(t, np.eye(n), mode), t, rtol=0, atol=0)


def test_mode_product_mode3_frozen_example():
    t = seq_tensor(2, 2, 2)
    out = mode_product(t, np.array([[1.0, 1.0]]), 3)
    assert out.shape == (2, 2, 1)
    np.testing.assert_array_equal(out[:, :, 0], [[6.0, 10.0], [8.0, 12.0]])


def oracle_mode_product(t, m, mode):
    i, j, k = t.shape
    if mode == 1:
        out = np.zeros((m.shape[0], j, k))
        for p in range(m.shape[0]):
            for q in range(i):
                out[p] += m[p, q] * t[q]
    elif mode == 2:
        out = np.zeros((i, m.shape[0], k))
        for p in range(m.shape[0]):
            for q in range(j):
                out[:, p] += m[p, q] * t[:, q]
    else:
        out = np.zeros((i, j, m.shape[0]))
        for p in range(m.shape[0]):
            for q in range(k):
                out[:, :, p] += m[p, q] * t[:, :, q]
    return out


def test_mode_product_against_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = rng.standard_normal(tuple(rng.integers(1, 6, size=3)))
        for mode in (1, 2, 3):
            m = rng.standard_normal((rng.integers(1, 6), t.shape[mode - 1]))
            np.testing.assert_allclose(
                mode_product(t, m, mode), oracle_mode_product(t, m, mode), atol=1e-14
            )


def test_mode_product_any_memory_layout():
    # GEMMs on column-major unfoldings: a row-major operand is read as its
    # column-major transpose and gives a row-major result; any other layout is
    # made column-major first and gives a column-major result
    from btdfuse import BtdFactors, RankSpec, btd_reconstruct

    rng = np.random.default_rng(5)
    base = rng.standard_normal((4, 5, 6))
    f = BtdFactors(rng.standard_normal((4, 4)), rng.standard_normal((5, 4)),
                   rng.standard_normal((6, 2)), RankSpec(2, 2))
    inputs = {
        "C-ordered": base,
        "F-ordered": np.asfortranarray(base),
        "btd_reconstruct": btd_reconstruct(f),
        "transposed view": np.ascontiguousarray(base.transpose(1, 0, 2)).transpose(1, 0, 2),
        "strided view": rng.standard_normal((8, 5, 12))[::2, :, 1::2],
        "1-wide axis": rng.standard_normal((4, 1, 6)),
    }
    for name, t in inputs.items():
        for mode in (1, 2, 3):
            m = rng.standard_normal((3, t.shape[mode - 1]))
            got = mode_product(t, m, mode)
            np.testing.assert_allclose(
                got, oracle_mode_product(t, m, mode), rtol=0,
                atol=1e-14, err_msg=f"{name}, mode {mode}",
            )
            row_major = t.flags.c_contiguous and not t.flags.f_contiguous
            assert got.flags.c_contiguous if row_major else got.flags.f_contiguous, name


def test_mode_product_unfolding_identity():
    # unfold(T x_n M, n) has M applied on the mode-n axis of the unfolding
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 4, 5))
    m1 = rng.standard_normal((6, 3))
    m2 = rng.standard_normal((2, 4))
    m3 = rng.standard_normal((7, 5))
    np.testing.assert_allclose(
        unfold(mode_product(t, m1, 1), 1), unfold(t, 1) @ m1.T, atol=1e-12
    )
    np.testing.assert_allclose(
        unfold(mode_product(t, m2, 2), 2), unfold(t, 2) @ m2.T, atol=1e-12
    )
    np.testing.assert_allclose(
        unfold(mode_product(t, m3, 3), 3), unfold(t, 3) @ m3.T, atol=1e-12
    )


def test_mode_product_commutes_across_modes():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 5))
    m1 = rng.standard_normal((2, 3))
    m2 = rng.standard_normal((6, 4))
    a = mode_product(mode_product(t, m1, 1), m2, 2)
    b = mode_product(mode_product(t, m2, 2), m1, 1)
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_mode_product_dim_mismatch():
    t = np.zeros((3, 4, 5))
    with pytest.raises(UsageError):
        mode_product(t, np.zeros((2, 4)), 1)


# ---------------------------------------------------------------------------
# kronecker / khatri_rao / pw_khatri_rao


def oracle_kron(a, b):
    p, q = a.shape
    r, s = b.shape
    out = np.zeros((p * r, q * s))
    for i in range(p):
        for j in range(q):
            for k in range(r):
                for l in range(s):
                    out[i * r + k, j * s + l] = a[i, j] * b[k, l]
    return out


def test_kronecker_frozen_examples():
    np.testing.assert_array_equal(kronecker(np.eye(2), np.eye(2)), np.eye(4))
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 2.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 4.0],
            [3.0, 0.0, 4.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(kronecker(a, b), expected)


def test_kronecker_column_vectors():
    out = kronecker(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(out, [[3.0], [4.0], [6.0], [8.0]])


def test_kronecker_against_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal(tuple(rng.integers(1, 5, size=2)))
        b = rng.standard_normal(tuple(rng.integers(1, 5, size=2)))
        np.testing.assert_allclose(kronecker(a, b), oracle_kron(a, b), atol=1e-14)


def oracle_khatri_rao(a, b):
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1]))
    for r in range(a.shape[1]):
        out[:, r] = oracle_kron(a[:, r : r + 1], b[:, r : r + 1])[:, 0]
    return out


def test_khatri_rao_frozen_example():
    a = np.eye(2)
    b = np.array([[1.0, 1.0], [2.0, 2.0]])
    expected = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    np.testing.assert_array_equal(khatri_rao(a, b), expected)


def test_khatri_rao_zero_column():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 0.0], [6.0, 0.0]])
    out = khatri_rao(a, b)
    np.testing.assert_array_equal(out[:, 1], np.zeros(4))


def test_khatri_rao_against_loop_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        cols = int(rng.integers(1, 5))
        a = rng.standard_normal((rng.integers(1, 5), cols))
        b = rng.standard_normal((rng.integers(1, 5), cols))
        np.testing.assert_allclose(khatri_rao(a, b), oracle_khatri_rao(a, b), atol=1e-14)


def test_khatri_rao_column_mismatch():
    with pytest.raises(UsageError):
        khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))


def oracle_pw_khatri_rao(c, a, part):
    blocks = []
    pos = 0
    for r, width in enumerate(part):
        blocks.append(oracle_kron(c[:, r : r + 1], a[:, pos : pos + width]))
        pos += width
    return np.hstack(blocks)


def test_pw_khatri_rao_unit_widths_is_khatri_rao():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((4, 3))
    a = rng.standard_normal((5, 3))
    np.testing.assert_allclose(pw_khatri_rao(c, a, (1, 1, 1)), khatri_rao(c, a), atol=1e-15)


def test_pw_khatri_rao_single_block_is_kron():
    rng = np.random.default_rng(8)
    c = rng.standard_normal((3, 1))
    a = rng.standard_normal((4, 3))
    np.testing.assert_allclose(pw_khatri_rao(c, a, (3,)), kronecker(c, a), atol=1e-15)


def test_pw_khatri_rao_mixed_widths_frozen():
    # widths (1, 2): first block pairs c col 0 with a col 0, second c col 1 with a cols 1:3
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    a = np.array([[1.0, 10.0, 100.0], [2.0, 20.0, 200.0]])
    out = pw_khatri_rao(c, a, (1, 2))
    expected = np.hstack(
        [
            oracle_kron(c[:, :1], a[:, :1]),
            oracle_kron(c[:, 1:], a[:, 1:]),
        ]
    )
    np.testing.assert_array_equal(out, expected)


def test_pw_khatri_rao_against_loop_oracle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        nblocks = int(rng.integers(1, 4))
        part = tuple(int(x) for x in rng.integers(1, 4, size=nblocks))
        c = rng.standard_normal((rng.integers(1, 5), nblocks))
        a = rng.standard_normal((rng.integers(1, 5), sum(part)))
        np.testing.assert_allclose(
            pw_khatri_rao(c, a, part), oracle_pw_khatri_rao(c, a, part), atol=1e-14
        )


def test_pw_khatri_rao_partition_mismatch():
    with pytest.raises(UsageError):
        pw_khatri_rao(np.zeros((2, 3)), np.zeros((2, 3)), (1, 1))
    with pytest.raises(UsageError):
        pw_khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)), (1, 1))


# ---------------------------------------------------------------------------
# frob_norm / vec / unvec


def test_frob_norm_values():
    assert frob_norm(np.zeros((2, 3, 4))) == 0.0
    assert frob_norm(np.full((1, 1, 1), 3.0)) == 3.0
    assert frob_norm(seq_tensor(2, 2, 2)) == pytest.approx(np.sqrt(204.0), rel=1e-15)


def test_frob_norm_is_finite_where_its_square_is_not_a_normal_float():
    # the plain norm's square overflowed above about 1e154 and lost digits
    # below about 1e-154; a power-of-two scaling is exact, so each norm is 2^e
    # times the norm of the unscaled tensor, and an in-range norm is the plain one
    t = np.random.default_rng(11).uniform(size=(4, 5, 6))
    assert frob_norm(t) == float(np.linalg.norm(t.ravel()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in (530, 1000, -530, -1000):
            assert frob_norm(np.ldexp(t, e)) == math.ldexp(frob_norm(t), e), e
        assert frob_norm(np.full(3, 1e300)) == pytest.approx(math.sqrt(3) * 1e300, rel=1e-15)
        # a norm past the float maximum is the one that is not finite
        assert frob_norm(np.full(4, 1e308)) == math.inf


def test_frob_norm_reads_a_column_major_tensor_without_a_copy():
    # ravel() in C order used to copy the whole tensor first (37 MB at 145x145x220)
    t = np.asfortranarray(np.random.default_rng(12).uniform(size=(64, 64, 100)))
    tracemalloc.start()
    try:
        norm = frob_norm(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * t.nbytes
    assert norm == pytest.approx(float(np.linalg.norm(t)), rel=1e-15)


def test_frob_norm_matches_unfoldings():
    rng = np.random.default_rng(10)
    t = rng.standard_normal((3, 4, 5))
    for mode in (1, 2, 3):
        assert frob_norm(t) == pytest.approx(np.linalg.norm(unfold(t, mode)), rel=1e-14)


def test_vec_is_column_major():
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    np.testing.assert_array_equal(vec(m), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(unvec(vec(m), 2, 2), m)


def test_vec_kron_identity():
    # vec(P M Q^T) = (Q kron P) vec(M)
    rng = np.random.default_rng(11)
    p = rng.standard_normal((4, 3))
    q = rng.standard_normal((5, 2))
    m = rng.standard_normal((3, 2))
    np.testing.assert_allclose(
        vec(p @ m @ q.T), kronecker(q, p) @ vec(m), atol=1e-13
    )


def test_unvec_size_mismatch():
    with pytest.raises(UsageError):
        unvec(np.zeros(5), 2, 3)
