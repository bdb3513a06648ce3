"""Block-term factor containers, reconstruction, and identifiability checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btdfuse import (
    BtdFactors,
    RankSpec,
    UsageError,
    abundances,
    btd_reconstruct,
    btd_unfold_direct,
    check_btd_identifiability,
    check_coupled_identifiability,
    degrade_factors,
    make_degradation_ops,
    unfold,
)


def random_factors(rng, dims=(5, 6, 4), rank=RankSpec(2, 2), nonneg=False):
    i, j, k = dims
    draw = rng.uniform if nonneg else rng.standard_normal
    if nonneg:
        a = rng.uniform(size=(i, rank.total))
        b = rng.uniform(size=(j, rank.total))
        c = rng.uniform(size=(k, rank.R))
    else:
        a = rng.standard_normal((i, rank.total))
        b = rng.standard_normal((j, rank.total))
        c = rng.standard_normal((k, rank.R))
    return BtdFactors(a, b, c, rank)


# ---------------------------------------------------------------------------
# RankSpec / BtdFactors


def test_rankspec_broadcast_scalar_L():
    rank = RankSpec(3, 2)
    assert rank.L == (2, 2, 2)
    assert rank.total == 6
    assert rank.uniform_L == 2


def test_rankspec_explicit_tuple():
    rank = RankSpec(2, (1, 3))
    assert rank.L == (1, 3)
    assert rank.total == 4
    assert rank.uniform_L is None
    assert rank.block_slice(0) == slice(0, 1)
    assert rank.block_slice(1) == slice(1, 4)


def test_rankspec_invalid():
    with pytest.raises(UsageError):
        RankSpec(0, 1)
    with pytest.raises(UsageError):
        RankSpec(2, 0)
    with pytest.raises(UsageError):
        RankSpec(2, (1, 2, 3))
    with pytest.raises(UsageError):
        RankSpec(2, (1, -1))
    # int() used to truncate these to L=(1, 1, 1), R=2 and L=(1, 2)
    with pytest.raises(UsageError, match="integral"):
        RankSpec(3, 1.5)
    with pytest.raises(UsageError, match="integral"):
        RankSpec(2.9)
    with pytest.raises(UsageError, match="integral"):
        RankSpec(2, (1, 2.5))
    assert RankSpec(np.int64(2), 2.0) == RankSpec(2, 2)


@pytest.mark.parametrize("R", [10**17, 10**19], ids=["no-memory", "past-ssize_t"])
def test_rankspec_refuses_an_R_it_cannot_broadcast(R):
    # a scalar L broadcast to 10**17 blocks escaped as a bare MemoryError.  Its
    # tuple (8e17 bytes) is larger than any 64-bit address space, so the
    # allocation fails at once whatever the system's overcommit policy
    with pytest.raises(UsageError, match=f"R is too large to give each block a rank, got {R}$"):
        RankSpec(R, 1)


def test_btdfactors_validation():
    rank = RankSpec(2, 2)
    a = np.ones((4, 4))
    b = np.ones((5, 4))
    c = np.ones((3, 2))
    BtdFactors(a, b, c, rank)  # well formed
    with pytest.raises(UsageError):
        BtdFactors(a[:, :3], b, c, rank)
    with pytest.raises(UsageError):
        BtdFactors(a, b[:, :3], c, rank)
    with pytest.raises(UsageError):
        BtdFactors(a, b, c[:, :1], rank)
    # a factor that is not a matrix is refused by name before any column count
    for bad in (np.ones(4), np.ones((4, 4, 1))):
        with pytest.raises(UsageError, match=f"factor B must be 2-D, got ndim={bad.ndim}"):
            BtdFactors(a, bad, c, rank)


def test_btdfactors_copy_is_independent():
    f = random_factors(np.random.default_rng(0))
    g = f.copy()
    g.A[0, 0] += 1.0
    assert f.A[0, 0] != g.A[0, 0]


def test_btdfactors_is_nonnegative():
    f = random_factors(np.random.default_rng(1), nonneg=True)
    assert f.is_nonnegative()
    f.C[0, 0] = -1e-9
    assert not f.is_nonnegative()


# ---------------------------------------------------------------------------
# btd_reconstruct


def test_reconstruct_single_indicator_block():
    rank = RankSpec(1, 1)
    f = BtdFactors(
        np.array([[1.0], [0.0]]),
        np.array([[1.0], [0.0]]),
        np.array([[1.0], [1.0]]),
        rank,
    )
    x = btd_reconstruct(f)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, :] = 1.0
    np.testing.assert_array_equal(x, expected)


def test_reconstruct_zero_weight_block_drops_out():
    rng = np.random.default_rng(2)
    rank2 = RankSpec(2, 2)
    f2 = random_factors(rng, dims=(4, 5, 3), rank=rank2)
    f2.C[:, 1] = 0.0
    rank1 = RankSpec(1, 2)
    f1 = BtdFactors(f2.A[:, :2].copy(), f2.B[:, :2].copy(), f2.C[:, :1].copy(), rank1)
    np.testing.assert_allclose(btd_reconstruct(f2), btd_reconstruct(f1), atol=1e-14)


def oracle_reconstruct(f):
    i = f.A.shape[0]
    j = f.B.shape[0]
    k = f.C.shape[0]
    out = np.zeros((i, j, k))
    for r in range(f.rank.R):
        sl = f.rank.block_slice(r)
        s = f.A[:, sl] @ f.B[:, sl].T
        for kk in range(k):
            out[:, :, kk] += f.C[kk, r] * s
    return out


def test_reconstruct_against_loop_oracle():
    rng = np.random.default_rng(3)
    # drawn lazily, so each case's dims and factors follow its rank in the stream
    drawn = (RankSpec(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(8))
    # then one block, and a wide block between unit blocks
    for rank in itertools.chain(drawn, [RankSpec(1, 2), RankSpec(4, (1, 5, 1, 2))]):
        dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
        f = random_factors(rng, dims=dims, rank=rank)
        rel = np.linalg.norm(btd_reconstruct(f) - oracle_reconstruct(f)) / max(
            np.linalg.norm(oracle_reconstruct(f)), 1e-30
        )
        assert rel <= 1e-13


def test_reconstruct_cpd_reduction():
    # L = 1 reconstruction is the plain sum of rank-one outer products
    rng = np.random.default_rng(4)
    rank = RankSpec(3, 1)
    f = random_factors(rng, dims=(4, 5, 6), rank=rank)
    expected = np.zeros((4, 5, 6))
    for r in range(3):
        expected += np.einsum("i,j,k->ijk", f.A[:, r], f.B[:, r], f.C[:, r])
    rel = np.linalg.norm(btd_reconstruct(f) - expected) / np.linalg.norm(expected)
    assert rel <= 1e-13


# ---------------------------------------------------------------------------
# btd_unfold_direct


def test_unfold_direct_matches_reconstruct_unfold():
    rng = np.random.default_rng(5)
    for _ in range(6):
        rank = RankSpec(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
        f = random_factors(rng, dims=dims, rank=rank)
        x = btd_reconstruct(f)
        for mode in (1, 2, 3):
            direct = btd_unfold_direct(f, mode)
            ref = unfold(x, mode)
            rel = np.linalg.norm(direct - ref) / max(np.linalg.norm(ref), 1e-30)
            assert rel <= 1e-12


def test_unfold_direct_zero_spectral_factor():
    f = random_factors(np.random.default_rng(6))
    f.C[:] = 0.0
    for mode in (1, 2, 3):
        np.testing.assert_array_equal(
            btd_unfold_direct(f, mode), np.zeros_like(btd_unfold_direct(f, mode))
        )


def test_unfold_direct_rank_one():
    a = np.array([[1.0], [2.0]])
    b = np.array([[3.0], [4.0], [5.0]])
    c = np.array([[6.0], [7.0]])
    f = BtdFactors(a, b, c, RankSpec(1, 1))
    x3 = btd_unfold_direct(f, 3)
    # column k is c[k] * vec(a b^T)
    np.testing.assert_allclose(x3[:, 0], 6.0 * np.outer(a[:, 0], b[:, 0]).ravel(order="F"))
    np.testing.assert_allclose(x3[:, 1], 7.0 * np.outer(a[:, 0], b[:, 0]).ravel(order="F"))


def test_unfold_direct_bad_mode():
    f = random_factors(np.random.default_rng(7))
    with pytest.raises(UsageError):
        btd_unfold_direct(f, 4)


# ---------------------------------------------------------------------------
# degrade_factors


def test_degrade_factors_identity_ops():
    f = random_factors(np.random.default_rng(8), dims=(6, 6, 4))
    ops = make_degradation_ops(6, 6, 4, K_M=4, kernel_size=1, d=1)
    np.testing.assert_array_equal(ops.P3, np.eye(4))
    hsi_f, msi_f = degrade_factors(f, ops)
    np.testing.assert_allclose(btd_reconstruct(hsi_f), btd_reconstruct(f), atol=1e-12)
    np.testing.assert_allclose(btd_reconstruct(msi_f), btd_reconstruct(f), atol=1e-12)


def test_degrade_factors_matches_tensor_route():
    from btdfuse import apply_degradation

    rng = np.random.default_rng(9)
    f = random_factors(rng, dims=(12, 10, 8), rank=RankSpec(2, 2), nonneg=True)
    sri = btd_reconstruct(f)
    ops = make_degradation_ops(12, 10, 8, K_M=3, kernel_size=3, sigma=1.0, d=2)
    hsi, msi = apply_degradation(sri, ops)
    hsi_f, msi_f = degrade_factors(f, ops)
    assert hsi_f.A.shape[0] == ops.P1.shape[0]
    assert msi_f.C.shape[0] == ops.P3.shape[0]
    np.testing.assert_allclose(btd_reconstruct(hsi_f), hsi, atol=1e-12)
    np.testing.assert_allclose(btd_reconstruct(msi_f), msi, atol=1e-12)


def test_degrade_factors_dim_mismatch():
    f = random_factors(np.random.default_rng(10), dims=(5, 6, 4))
    ops = make_degradation_ops(7, 6, 4, K_M=2, kernel_size=3, d=2)
    with pytest.raises(UsageError):
        degrade_factors(f, ops)


# ---------------------------------------------------------------------------
# identifiability checks


def test_btd_identifiability_frozen_examples():
    assert check_btd_identifiability(100, 100, 4, RankSpec(4, 5)).ok
    assert not check_btd_identifiability(145, 145, 4, RankSpec(10, 20)).ok
    # 1+1+1 = 3 < 4
    assert not check_btd_identifiability(2, 2, 2, RankSpec(1, 1)).ok


def test_btd_identifiability_reports_failed_clause():
    res = check_btd_identifiability(145, 145, 4, RankSpec(10, 20))
    assert not res
    assert res.failed_clauses
    assert any("2R+2" in cl or "2R + 2" in cl for cl in res.failed_clauses)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 80), st.integers(1, 80), st.integers(1, 40), st.integers(1, 12),
       st.integers(1, 8))
def test_btd_identifiability_second_clause_implies_the_first(I, J, K, R, L):
    # min(I/L,R)+min(J/L,R) >= R+2 with both terms <= R puts each term >= 2,
    # so (I//L)(J//L) >= 2R and I*J >= L^2*2R: the first clause never fails alone
    x, y = min(I // L, R), min(J // L, R)
    if x + y >= R + 2:
        assert (I // L) * (J // L) >= x * y >= 2 * R
    failed = check_btd_identifiability(I, J, K, RankSpec(R, L)).failed_clauses
    assert not any(cl.startswith("I*J") for cl in failed) or len(failed) == 2


def test_btd_identifiability_lists_both_clauses():
    assert check_btd_identifiability(4, 4, 3, RankSpec(5, 2)).failed_clauses == [
        "I*J = 16 < L^2*R = 20", "min(I/L,R)+min(J/L,R)+min(K,R) = 7 < 2R+2 = 12"]


def test_btd_identifiability_nonuniform_L():
    with pytest.raises(UsageError):
        check_btd_identifiability(10, 10, 4, RankSpec(2, (1, 2)))


def test_coupled_identifiability_frozen_examples():
    assert check_coupled_identifiability(27, 27, 4, 9, 9, RankSpec(3, 2)).ok
    assert not check_coupled_identifiability(27, 27, 4, 1, 1, RankSpec(3, 2)).ok
    assert not check_coupled_identifiability(145, 145, 4, 29, 29, RankSpec(10, 20)).ok


def test_coupled_identifiability_small_hsi_clause():
    res = check_coupled_identifiability(27, 27, 4, 1, 1, RankSpec(3, 2))
    assert any("I_H" in cl or "R" in cl for cl in res.failed_clauses)


def test_coupled_identifiability_monotone_in_dims():
    # enlarging any dimension never breaks a passing check
    rank = RankSpec(3, 2)
    base = (27, 27, 4, 9, 9)
    assert check_coupled_identifiability(*base, rank).ok
    for bump in range(5):
        dims = list(base)
        dims[bump] += 10
        assert check_coupled_identifiability(*dims, rank).ok


def test_coupled_identifiability_nonuniform_L():
    with pytest.raises(UsageError):
        check_coupled_identifiability(27, 27, 4, 9, 9, RankSpec(2, (1, 2)))


# ---------------------------------------------------------------------------
# abundances


def test_abundances_maps_match_block_products():
    rng = np.random.default_rng(11)
    # one block, and a wide block between unit blocks
    for rank in (RankSpec(2, 2), RankSpec(1, 2), RankSpec(4, (1, 5, 1, 2))):
        f = random_factors(rng, dims=(5, 6, 4), rank=rank, nonneg=True)
        ab = abundances(f)
        assert ab.S.shape == (30, rank.R)
        assert ab.spatial_dims == (5, 6)
        for r in range(rank.R):
            sl = rank.block_slice(r)
            np.testing.assert_allclose(ab.S[:, r].reshape(ab.spatial_dims, order="F"),
                                       f.A[:, sl] @ f.B[:, sl].T, atol=1e-14)
            np.testing.assert_allclose(
                ab.S[:, r], (f.A[:, sl] @ f.B[:, sl].T).ravel(order="F"), atol=1e-14
            )


def test_abundances_rank_one_when_L_is_1():
    rng = np.random.default_rng(12)
    f = random_factors(rng, dims=(4, 5, 3), rank=RankSpec(2, 1))
    ab = abundances(f)
    for r in range(2):
        np.testing.assert_allclose(ab.S[:, r].reshape(ab.spatial_dims, order="F"),
                                   np.outer(f.A[:, r], f.B[:, r]), atol=1e-14)


def test_abundances_reassemble_mode3_unfolding():
    rng = np.random.default_rng(13)
    f = random_factors(rng, dims=(4, 5, 6), rank=RankSpec(3, 2))
    ab = abundances(f)
    np.testing.assert_allclose(ab.S @ f.C.T, btd_unfold_direct(f, 3), atol=1e-13)


def test_abundances_zero_spatial_factor():
    f = random_factors(np.random.default_rng(14))
    f.A[:] = 0.0
    np.testing.assert_array_equal(abundances(f).S, np.zeros((30, 2)))
