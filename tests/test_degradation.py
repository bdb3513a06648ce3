"""Blur/downsample/SRF operators, Wald-protocol simulation, and noise."""

import warnings

import numpy as np
import pytest

from btdfuse import (
    FormatError,
    NoiseSpec,
    UsageError,
    add_noise,
    apply_degradation,
    build_spatial_ops,
    downsample_matrix,
    frob_norm,
    gaussian_blur_matrix,
    load_srf_csv,
    make_degradation_ops,
    uniform_srf,
)


# ---------------------------------------------------------------------------
# gaussian_blur_matrix


def test_blur_kernel_size_one_is_identity():
    np.testing.assert_array_equal(gaussian_blur_matrix(5, 1, 2.0), np.eye(5))


def test_blur_rows_sum_to_one():
    for n, k, s in ((5, 3, 1.0), (10, 9, 2.5), (29, 5, 0.7)):
        t = gaussian_blur_matrix(n, k, s)
        np.testing.assert_allclose(t.sum(axis=1), np.ones(n), atol=1e-12)


def test_blur_flat_limit():
    # huge sigma makes the interior row uniform over the kernel support
    t = gaussian_blur_matrix(3, 3, 1e6)
    np.testing.assert_allclose(t[1], [1.0 / 3.0] * 3, atol=1e-6)


def test_blur_interior_row_gaussian_weights():
    t = gaussian_blur_matrix(5, 3, 1.0)
    w = np.array([np.exp(-0.5), 1.0, np.exp(-0.5)])
    w /= w.sum()
    np.testing.assert_allclose(t[2, 1:4], w, atol=1e-12)
    assert t[2, 0] == 0.0 and t[2, 4] == 0.0


def test_blur_boundary_rows_renormalized():
    # the first row loses the left tap and renormalizes over what remains
    t = gaussian_blur_matrix(5, 3, 1.0)
    w = np.array([1.0, np.exp(-0.5)])
    w /= w.sum()
    np.testing.assert_allclose(t[0, :2], w, atol=1e-12)


def test_blur_tiny_sigma_is_the_identity_without_warnings():
    # a 2 sigma^2 that underflows to 0 used to make the delta = 0 weight 0/0
    # and every row NaN; a subnormal one warned "overflow encountered in divide"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(gaussian_blur_matrix(5, 3, 1e-170), np.eye(5))
        np.testing.assert_array_equal(gaussian_blur_matrix(12, 3, 1.2e-162), np.eye(12))


def test_blur_invalid_args():
    with pytest.raises(UsageError):
        gaussian_blur_matrix(5, 4, 1.0)  # even kernel
    with pytest.raises(UsageError):
        gaussian_blur_matrix(5, 3, 0.0)  # non-positive sigma
    with pytest.raises(UsageError):
        gaussian_blur_matrix(3, 7, 1.0)  # kernel wider than 2n-1


# ---------------------------------------------------------------------------
# downsample_matrix


def test_downsample_ratio_one_is_identity():
    np.testing.assert_array_equal(downsample_matrix(4, 1), np.eye(4))


def test_downsample_145_by_5():
    s = downsample_matrix(145, 5)
    assert s.shape == (29, 145)
    picked = np.flatnonzero(s.sum(axis=0))
    np.testing.assert_array_equal(picked, np.arange(0, 145, 5))
    np.testing.assert_allclose(s.sum(axis=1), np.ones(29))


def test_downsample_offset():
    s = downsample_matrix(6, 3, offset=1)
    assert s.shape == (2, 6)
    np.testing.assert_array_equal(np.flatnonzero(s[0]), [1])
    np.testing.assert_array_equal(np.flatnonzero(s[1]), [4])


def test_downsample_invalid_args():
    with pytest.raises(UsageError):
        downsample_matrix(6, 0)
    with pytest.raises(UsageError):
        downsample_matrix(6, 3, offset=3)
    with pytest.raises(UsageError):
        downsample_matrix(6, 3, offset=-1)


# ---------------------------------------------------------------------------
# build_spatial_ops / uniform_srf / make_degradation_ops


def test_spatial_ops_trivial_geometry():
    p1, p2 = build_spatial_ops(4, 4, kernel_size=1, d=1)
    np.testing.assert_array_equal(p1, np.eye(4))
    np.testing.assert_array_equal(p2, np.eye(4))


def test_spatial_ops_reference_geometry():
    p1, p2 = build_spatial_ops(145, 145, kernel_size=9, d=5)
    assert p1.shape == (29, 145)
    assert p2.shape == (29, 145)
    np.testing.assert_allclose(p1.sum(axis=1), np.ones(29), atol=1e-12)


def test_spatial_ops_default_sigma_is_half_ratio():
    explicit = build_spatial_ops(20, 20, kernel_size=5, sigma=2.0, d=4)[0]
    default = build_spatial_ops(20, 20, kernel_size=5, d=4)[0]
    np.testing.assert_array_equal(explicit, default)


def test_uniform_srf_frozen_example():
    np.testing.assert_array_equal(
        uniform_srf(4, 2), [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]
    )


def test_uniform_srf_identity_when_equal():
    np.testing.assert_array_equal(uniform_srf(3, 3), np.eye(3))


def test_uniform_srf_220_into_4():
    p3 = uniform_srf(220, 4)
    assert p3.shape == (4, 220)
    for m in range(4):
        np.testing.assert_array_equal(np.flatnonzero(p3[m]), np.arange(55 * m, 55 * (m + 1)))
    np.testing.assert_allclose(p3.sum(axis=1), np.ones(4))


def test_uniform_srf_uneven_split():
    # 5 bands into 2 groups: first group takes the extra band
    p3 = uniform_srf(5, 2)
    np.testing.assert_allclose(p3[0], [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0])
    np.testing.assert_allclose(p3[1], [0.0, 0.0, 0.0, 0.5, 0.5])


def test_uniform_srf_invalid():
    with pytest.raises(UsageError):
        uniform_srf(3, 4)
    with pytest.raises(UsageError):
        uniform_srf(3, 0)


def test_make_degradation_ops_records_params():
    ops = make_degradation_ops(20, 20, 10, K_M=2, kernel_size=3, d=4)
    assert ops.params["kernel_size"] == 3
    assert ops.params["ratio"] == 4
    assert ops.params["sigma"] == 2.0
    assert ops.params["srf_source"] == "uniform"
    assert ops.P1.shape == (5, 20)
    assert ops.P3.shape == (2, 10)


def test_make_degradation_ops_srf_override_shape_checked():
    srf = np.full((2, 10), 0.1)
    ops = make_degradation_ops(20, 20, 10, K_M=2, kernel_size=3, d=4, srf=srf)
    np.testing.assert_array_equal(ops.P3, srf)
    with pytest.raises(UsageError):
        make_degradation_ops(20, 20, 10, K_M=3, kernel_size=3, d=4, srf=srf)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_degradation_ops_refuses_a_non_finite_srf(bad):
    # a NaN in P3 used to be accepted and gave an MSI with NaN bands
    srf = uniform_srf(10, 2)
    srf[1, 7] = bad
    with pytest.raises(UsageError, match="non-finite"):
        make_degradation_ops(20, 20, 10, K_M=2, kernel_size=3, d=4, srf=srf)


# ---------------------------------------------------------------------------
# apply_degradation


def test_apply_degradation_identity_ops():
    rng = np.random.default_rng(0)
    sri = rng.uniform(size=(6, 5, 4))
    ops = make_degradation_ops(6, 5, 4, K_M=4, kernel_size=1, d=1)
    hsi, msi = apply_degradation(sri, ops)
    np.testing.assert_allclose(hsi, sri, atol=1e-14)
    np.testing.assert_allclose(msi, sri, atol=1e-14)


def test_apply_degradation_preserves_constants():
    # row-stochastic P1/P2 and row-stochastic P3 map all-ones to all-ones
    sri = np.ones((12, 10, 8))
    ops = make_degradation_ops(12, 10, 8, K_M=2, kernel_size=3, sigma=1.0, d=2)
    hsi, msi = apply_degradation(sri, ops)
    np.testing.assert_allclose(hsi, np.ones_like(hsi), atol=1e-12)
    np.testing.assert_allclose(msi, np.ones_like(msi), atol=1e-12)


def test_apply_degradation_is_linear():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((9, 9, 6))
    y = rng.standard_normal((9, 9, 6))
    ops = make_degradation_ops(9, 9, 6, K_M=3, kernel_size=3, sigma=1.0, d=3)
    hx, mx = apply_degradation(x, ops)
    hy, my = apply_degradation(y, ops)
    hxy, mxy = apply_degradation(2.0 * x - 3.0 * y, ops)
    np.testing.assert_allclose(hxy, 2.0 * hx - 3.0 * hy, atol=1e-12)
    np.testing.assert_allclose(mxy, 2.0 * mx - 3.0 * my, atol=1e-12)


def test_apply_degradation_reference_dims():
    sri = np.zeros((145, 145, 220))
    ops = make_degradation_ops(145, 145, 220, K_M=4, kernel_size=9, d=5)
    hsi, msi = apply_degradation(sri, ops)
    assert hsi.shape == (29, 29, 220)
    assert msi.shape == (145, 145, 4)


def test_apply_degradation_dim_mismatch():
    ops = make_degradation_ops(10, 10, 6, K_M=2, kernel_size=3, d=2)
    with pytest.raises(UsageError):
        apply_degradation(np.zeros((11, 10, 6)), ops)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_apply_degradation_refuses_a_non_finite_pair(value):
    # a NaN in a 12x12x8 image used to give NaN HSI and MSI entries with no
    # refusal, and an Inf a warning from numpy's matmul as well
    ops = make_degradation_ops(12, 12, 8, K_M=3, kernel_size=3, sigma=1.0, d=2)
    sri = np.random.default_rng(0).uniform(size=(12, 12, 8))
    sri[3, 4, 5] = value
    sri[3, 4, 6] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=r"non-finite entries \(NaN or Inf\)"):
            apply_degradation(sri, ops)


# ---------------------------------------------------------------------------
# add_noise / NoiseSpec


def test_noise_spec_rejects_nan_and_neg_inf():
    with pytest.raises(UsageError):
        NoiseSpec(float("nan"), 0)
    with pytest.raises(UsageError):
        NoiseSpec(float("-inf"), 0)
    NoiseSpec(float("inf"), 0)  # noiseless sentinel is fine
    with pytest.raises(UsageError):
        NoiseSpec(20.0, -1)


def test_add_noise_infinite_snr_returns_copy():
    rng = np.random.default_rng(2)
    t = rng.uniform(size=(4, 5, 6))
    out = add_noise(t, NoiseSpec(float("inf"), 3))
    np.testing.assert_array_equal(out, t)
    assert out is not t


def test_add_noise_deterministic():
    t = np.random.default_rng(3).uniform(size=(6, 6, 6))
    a = add_noise(t, NoiseSpec(20.0, 42))
    b = add_noise(t, NoiseSpec(20.0, 42))
    np.testing.assert_array_equal(a, b)
    c = add_noise(t, NoiseSpec(20.0, 43))
    assert np.any(c != a)


def test_add_noise_realized_snr():
    # 50*50*50 = 125000 entries: realized SNR concentrates near the target
    t = np.random.default_rng(4).uniform(0.5, 1.5, size=(50, 50, 50))
    for target in (10.0, 30.0):
        noisy = add_noise(t, NoiseSpec(target, 7))
        realized = 20.0 * np.log10(frob_norm(t) / np.linalg.norm(noisy - t))
        assert abs(realized - target) <= 0.05


@pytest.mark.parametrize("shape, spread_db", [((4, 4, 4), 1.5), ((40, 40, 30), 0.05)])
def test_add_noise_sets_a_finite_noise_level_on_huge_entries(shape, spread_db):
    # the norm's square used to overflow above about 1e154, so sigma was inf
    # and no noisy entry was finite.  The draw is the same at every scale, so
    # the realized SNR is the unscaled tensor's: 31.3 dB for the 64 entries,
    # whose draw is short of its mean power, and near 30 dB for 48000
    u = np.random.default_rng(4).uniform(size=shape)
    realized = []
    for t in (u, 1e160 * u):
        noisy = add_noise(t, NoiseSpec(30.0, 1))
        assert np.isfinite(noisy).all()
        realized.append(20.0 * np.log10(frob_norm(t) / frob_norm(noisy - t)))
    assert realized[1] == pytest.approx(realized[0], abs=1e-9)
    assert abs(realized[0] - 30.0) <= spread_db


def test_add_noise_sets_a_finite_noise_level_where_the_norm_overflows():
    # a norm past the float range used to give sigma = inf and 288 of 288
    # entries +-inf.  sigma now comes from the norm at 2^-e, so the result is
    # 2^10 times that of the tensor scaled by 2^-10, whose norm is a float;
    # noise that itself leaves the range is still refused
    t = np.full((6, 6, 8), 1e308)
    noisy = add_noise(t, NoiseSpec(30.0, 0))
    assert np.isfinite(noisy).all()
    np.testing.assert_array_equal(noisy, np.ldexp(add_noise(np.ldexp(t, -10), NoiseSpec(30.0, 0)), 10))
    with pytest.raises(UsageError, match="snr_db -10 "):
        add_noise(t, NoiseSpec(-10.0, 0))


def test_add_noise_keeps_layout():
    # both paths return the input's layout, with the values of the row-major sum
    base = np.random.default_rng(5).uniform(size=(4, 5, 6))
    for t in (np.ascontiguousarray(base), np.asfortranarray(base)):
        for snr_db in (20.0, float("inf")):
            out = add_noise(t, NoiseSpec(snr_db, 9))
            assert out.flags.c_contiguous == t.flags.c_contiguous
            assert out.flags.f_contiguous == t.flags.f_contiguous
            if snr_db == float("inf"):
                expected = np.array(t)
            else:
                sigma = frob_norm(t) / np.sqrt(t.size * 10.0 ** (snr_db / 10.0))
                expected = t + sigma * np.random.default_rng(9).standard_normal(t.shape)
            np.testing.assert_array_equal(out, expected)
            assert out is not t


@pytest.mark.parametrize("scale, snr_db", [(1.0, 3083.0), (1.0, 3100.0), (1.0, -3240.0),
                                           (1.0, -3300.0), (1e148, -3200.0)])
def test_add_noise_refuses_an_snr_past_the_float_range(scale, snr_db):
    # 10^(snr/10) used to overflow (OverflowError), or its product with the
    # entry count to underflow to 0 (ZeroDivisionError); at 1e148 the noise
    # level is a float, but some noisy entries are not
    t = scale * np.random.default_rng(4).uniform(size=(40, 40, 30))
    with pytest.raises(UsageError, match=f"snr_db {snr_db:g} "):
        add_noise(t, NoiseSpec(snr_db, 1))


def test_add_noise_zero_tensor_rejected():
    with pytest.raises(UsageError):
        add_noise(np.zeros((3, 3, 3)), NoiseSpec(20.0, 0))


@pytest.mark.parametrize("snr_db", [30.0, np.inf], ids=["30dB", "noiseless"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_add_noise_refuses_non_finite_entries(value, snr_db):
    # one NaN in a 12x12x8 tensor used to give 1152 of 1152 entries NaN (its
    # sigma was NaN), and an Inf every entry infinite or NaN, with no refusal
    t = np.random.default_rng(0).uniform(size=(12, 12, 8))
    t[1, 2, 3] = value
    with pytest.raises(UsageError, match=r"non-finite entries \(NaN or Inf\)"):
        add_noise(t, NoiseSpec(snr_db, 1))


# ---------------------------------------------------------------------------
# load_srf_csv


def test_load_srf_csv_round_trip(tmp_path):
    srf = uniform_srf(10, 3)
    path = tmp_path / "srf.csv"
    np.savetxt(path, srf, delimiter=",")
    loaded = load_srf_csv(path, K_H=10, K_M=3)
    np.testing.assert_allclose(loaded, srf, atol=1e-15)


def test_load_srf_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,not_a_number\n")
    with pytest.raises(FormatError):
        load_srf_csv(path)


def test_load_srf_csv_shape_mismatch(tmp_path):
    path = tmp_path / "srf.csv"
    np.savetxt(path, uniform_srf(10, 3), delimiter=",")
    with pytest.raises(FormatError):
        load_srf_csv(path, K_H=12, K_M=3)
    with pytest.raises(FormatError):
        load_srf_csv(path, K_H=10, K_M=4)


@pytest.mark.parametrize("sizes", [{}, {"K_H": 8, "K_M": 2}], ids=["no-sizes", "sizes"])
@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_load_srf_csv_refuses_a_file_with_no_data(tmp_path, sizes, text):
    # an empty file used to load as a (0, 1) array, or be refused as having
    # 1 column, after numpy's "input contained no data" warning
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="holds no data") as exc:
            load_srf_csv(path, **sizes)
    assert str(path) in str(exc.value)


def test_load_srf_csv_refuses_non_finite_entries(tmp_path):
    # "nan" and "inf" parse as floats, so such a file used to load
    srf = uniform_srf(10, 3)
    srf[0, 2], srf[2, 9] = np.nan, -np.inf
    path = tmp_path / "srf.csv"
    np.savetxt(path, srf, delimiter=",")
    with pytest.raises(FormatError, match="2 non-finite") as exc:
        load_srf_csv(path, K_H=10, K_M=3)
    assert str(path) in str(exc.value)
