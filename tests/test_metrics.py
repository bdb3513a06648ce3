"""Fusion quality metrics and the block-matching error."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btdfuse
import btdfuse.metrics
from btdfuse import (
    BtdFactors,
    MetricsReport,
    RankSpec,
    UndefinedMetricError,
    UsageError,
    btd_reconstruct,
    cc,
    compute_report,
    ergas,
    match_blocks,
    r_snr,
    sam,
)


# ---------------------------------------------------------------------------
# r_snr


def test_r_snr_known_ratio():
    # ||ref||^2 = 100 and a single unit-size error entry gives exactly 20 dB
    ref = np.ones((10, 10, 1))
    est = ref.copy()
    est[0, 0, 0] = 0.0
    assert r_snr(ref, est) == pytest.approx(20.0, abs=1e-12)


def test_r_snr_perfect_is_capped():
    ref = np.random.default_rng(0).uniform(size=(4, 4, 3))
    assert r_snr(ref, ref) == 300.0


def test_r_snr_zero_estimate():
    ref = np.ones((3, 3, 3))
    assert r_snr(ref, np.zeros_like(ref)) == pytest.approx(0.0, abs=1e-12)


def test_r_snr_zero_reference_rejected():
    with pytest.raises(UsageError):
        r_snr(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))


def test_r_snr_shape_mismatch():
    with pytest.raises(UsageError):
        r_snr(np.ones((2, 2, 2)), np.ones((2, 2, 3)))


def test_r_snr_monotone_in_noise():
    rng = np.random.default_rng(1)
    ref = rng.uniform(0.5, 1.5, size=(8, 8, 5))
    noise = rng.standard_normal(ref.shape)
    vals = [r_snr(ref, ref + eps * noise) for eps in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# sam


def test_sam_identical_is_zero():
    ref = np.random.default_rng(2).uniform(0.1, 1.0, size=(5, 5, 4))
    assert sam(ref, ref) == pytest.approx(0.0, abs=1e-7)


def test_sam_orthogonal_fiber():
    ref = np.zeros((1, 1, 2))
    est = np.zeros((1, 1, 2))
    ref[0, 0] = [1.0, 0.0]
    est[0, 0] = [0.0, 1.0]
    assert sam(ref, est) == pytest.approx(np.pi / 2, abs=1e-12)


def test_sam_scale_invariant_per_pixel():
    rng = np.random.default_rng(3)
    ref = rng.uniform(0.1, 1.0, size=(6, 6, 5))
    gains = rng.uniform(0.5, 3.0, size=(6, 6, 1))
    assert sam(ref, ref * gains) == pytest.approx(0.0, abs=1e-7)


def test_sam_skips_zero_fibers():
    ref = np.ones((2, 1, 3))
    est = np.ones((2, 1, 3))
    est[1, 0] = 0.0  # this fiber drops out of the average
    ref2 = ref.copy()
    ref2[0, 0] = [1.0, 0.0, 0.0]
    est2 = est.copy()
    est2[0, 0] = [0.0, 1.0, 0.0]
    assert sam(ref2, est2) == pytest.approx(np.pi / 2, abs=1e-12)


def test_sam_all_zero_fibers_undefined():
    with pytest.raises(UndefinedMetricError):
        sam(np.zeros((2, 2, 3)), np.ones((2, 2, 3)))


# ---------------------------------------------------------------------------
# cc


def test_cc_identical_is_one():
    ref = np.random.default_rng(4).uniform(size=(6, 7, 3))
    assert cc(ref, ref) == pytest.approx(1.0, abs=1e-12)


def test_cc_negated_is_minus_one():
    ref = np.random.default_rng(5).standard_normal((6, 7, 3))
    assert cc(ref, -ref) == pytest.approx(-1.0, abs=1e-12)


def test_cc_affine_invariant_per_band():
    rng = np.random.default_rng(6)
    ref = rng.uniform(size=(5, 5, 4))
    est = np.empty_like(ref)
    for k in range(4):
        est[:, :, k] = 2.5 * ref[:, :, k] + float(rng.uniform(-1, 1))
    assert cc(ref, est) == pytest.approx(1.0, abs=1e-12)


def test_cc_constant_estimate_band_contributes_zero():
    rng = np.random.default_rng(7)
    ref = rng.uniform(size=(5, 5, 2))
    est = ref.copy()
    est[:, :, 1] = 0.3  # flat band: correlation defined as 0
    assert cc(ref, est) == pytest.approx(0.5, abs=1e-12)


def test_cc_constant_reference_band_undefined():
    ref = np.ones((4, 4, 2))
    est = np.random.default_rng(8).uniform(size=(4, 4, 2))
    with pytest.raises(UndefinedMetricError):
        cc(ref, est)


# ---------------------------------------------------------------------------
# ergas


def test_ergas_identical_is_zero():
    ref = np.random.default_rng(9).uniform(0.5, 1.5, size=(6, 6, 4))
    assert ergas(ref, ref, 4) == pytest.approx(0.0, abs=1e-12)


def test_ergas_constant_shift_single_band():
    # RMSE equals the band mean, so the normalized term is 1 and ERGAS = 100/d
    ref = np.full((5, 5, 1), 2.0)
    est = np.full((5, 5, 1), 4.0)
    assert ergas(ref, est, 1) == pytest.approx(100.0, abs=1e-12)
    assert ergas(ref, est, 4) == pytest.approx(25.0, abs=1e-12)


def test_ergas_zero_band_mean_undefined():
    ref = np.zeros((3, 3, 1))
    with pytest.raises(UndefinedMetricError):
        ergas(ref, np.ones_like(ref), 2)


def test_ergas_past_the_float_range_is_inf():
    # the error at est's scale over ref's band means is about 2^1063
    ref = np.random.default_rng(9).uniform(0.5, 1.5, size=(4, 4, 3))
    assert ergas(1e-20 * ref, 1e300 * ref, 2) == math.inf


def test_ergas_requires_positive_ratio():
    ref = np.ones((3, 3, 2))
    # an infinite ratio used to give ERGAS 0, the best score, for any pair
    for d in (0, math.inf, math.nan):
        with pytest.raises(UsageError):
            ergas(ref, ref, d)


# ---------------------------------------------------------------------------
# compute_report


def test_compute_report_fields():
    rng = np.random.default_rng(10)
    ref = rng.uniform(0.5, 1.5, size=(8, 8, 5))
    est = ref + 0.01 * rng.standard_normal(ref.shape)
    rep = compute_report(ref, est, d=4)
    assert isinstance(rep, MetricsReport)
    d = rep.as_dict()
    assert set(d) == {"r_snr_db", "cc", "sam_rad", "ergas", "down_ratio"}
    assert d["down_ratio"] == 4
    assert d["r_snr_db"] == pytest.approx(r_snr(ref, est))
    assert d["cc"] == pytest.approx(cc(ref, est))
    assert d["sam_rad"] == pytest.approx(sam(ref, est))
    assert d["ergas"] == pytest.approx(ergas(ref, est, 4))


# ---------------------------------------------------------------------------
# the one-pass kernel against the dense per-metric formulas


def dense_r_snr(ref, est):
    num = np.linalg.norm(ref.ravel()) ** 2
    den = np.linalg.norm((ref - est).ravel()) ** 2
    return 300.0 if den == 0.0 else min(10.0 * math.log10(num / den), 300.0)


def dense_sam(ref, est):
    n_ref = np.sqrt(np.einsum("ijk,ijk->ij", ref, ref))
    n_est = np.sqrt(np.einsum("ijk,ijk->ij", est, est))
    keep = (n_ref > 0) & (n_est > 0)
    u = ref[keep] / n_ref[keep][:, None]
    v = est[keep] / n_est[keep][:, None]
    half_chord = 0.5 * np.linalg.norm(u - v, axis=-1)
    return float(np.mean(2.0 * np.arcsin(np.minimum(half_chord, 1.0))))


def dense_cc(ref, est):
    vals = []
    for k in range(ref.shape[2]):
        xc = ref[:, :, k].ravel() - ref[:, :, k].mean()
        yc = est[:, :, k].ravel() - est[:, :, k].mean()
        nx, ny = np.linalg.norm(xc), np.linalg.norm(yc)
        vals.append(0.0 if ny == 0.0 else float(xc @ yc) / (nx * ny))
    return float(np.mean(vals))


def dense_ergas(ref, est, d):
    mu = ref.mean(axis=(0, 1))
    mse = np.mean((ref - est) ** 2, axis=(0, 1))
    return float(100.0 / d * math.sqrt(np.mean(mse / mu**2)))


def in_layout(t, layout):
    if layout == "C":
        return np.ascontiguousarray(t)
    if layout == "F":
        return np.asfortranarray(t)
    # transposed view: fibers contiguous, columns slowest
    return np.ascontiguousarray(t.transpose(1, 0, 2)).transpose(1, 0, 2)


@st.composite
def metric_pairs(draw):
    i = draw(st.integers(1, 7))
    j = draw(st.integers(2, 13))
    k = draw(st.integers(1, 6))
    chunk_bytes = draw(st.integers(8, 8 * i * j * k))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ref = rng.uniform(0.1, 1.0, size=(i, j, k))
    # zero fibers, but not at pixel 0: with J >= 2 every reference band varies
    zero = rng.uniform(size=(i, j)) < 0.2
    zero[0, 0] = False
    ref[zero] = 0.0
    noise = draw(st.sampled_from([0.0, 0.05, 0.5]))
    est = ref + noise * rng.standard_normal(ref.shape)
    if noise > 0.0:
        zero = rng.uniform(size=(i, j)) < 0.2
        zero[0, 0] = False  # SAM needs one pixel with both fibers nonzero
        est[zero] = 0.0
        for kk in np.flatnonzero(rng.uniform(size=k) < 0.3):
            est[:, :, kk] = rng.uniform(-1.0, 1.0)  # constant estimate band
    layout = draw(st.sampled_from(["C", "F", "view"]))
    return in_layout(ref, layout), in_layout(est, layout), chunk_bytes


@settings(max_examples=200, deadline=None)
@given(metric_pairs())
def test_blocked_metrics_match_dense_formulas(case):
    ref, est, chunk_bytes = case
    # a chunk holds chunk_bytes // (8 I J) bands (at least 1), so that count
    # need not divide K
    with mock.patch.object(btdfuse.metrics, "_CHUNK_BYTES", chunk_bytes):
        rep = compute_report(ref, est, 3)
    if np.array_equal(ref, est):
        assert rep.r_snr_db == 300.0
        assert rep.sam_rad == 0.0
    assert rep.r_snr_db == pytest.approx(dense_r_snr(ref, est), rel=1e-12)
    assert rep.sam_rad == pytest.approx(dense_sam(ref, est), rel=1e-12, abs=1e-15)
    assert rep.cc == pytest.approx(dense_cc(ref, est), rel=1e-12, abs=1e-12)
    assert rep.ergas == pytest.approx(dense_ergas(ref, est, 3), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(metric_pairs())
def test_cc_of_an_image_with_itself_is_exactly_one(case):
    # dividing sxy by sqrt(sxx) sqrt(syy) gave 1 - 2^-53, 1 - 2^-52 or 1 + 2^-52, a
    # correlation above 1, on about one random image in seventeen
    ref, _, chunk_bytes = case
    with mock.patch.object(btdfuse.metrics, "_CHUNK_BYTES", chunk_bytes):
        assert cc(ref, ref) == 1.0
        assert cc(ref, -ref) == -1.0


@settings(max_examples=100, deadline=None)
@given(metric_pairs(), st.integers(-600, 600))
def test_compute_report_is_scale_equivariant(case, k):
    # a power-of-two scaling is exact, so the report must not move by a bit,
    # also where the squared pixel norms of the scaled pair overflow or
    # underflow
    ref, est, chunk_bytes = case
    with mock.patch.object(btdfuse.metrics, "_CHUNK_BYTES", chunk_bytes):
        base = compute_report(ref, est, 3)
        scaled = compute_report(np.ldexp(ref, k), np.ldexp(est, k), 3)
    assert scaled == base


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("k", [520, 600, -540, -600])
def test_compute_report_out_of_range_pair(k, layout):
    # the squared pixel norms used to overflow to nan metrics and a SAM of 0
    # (k > 0) or underflow to "reference tensor is identically zero" (k < 0)
    rng = np.random.default_rng(0)
    ref = in_layout(rng.uniform(size=(6, 5, 7)) + 0.5, layout)
    est = in_layout(ref + 0.01 * rng.uniform(size=ref.shape), layout)
    assert compute_report(np.ldexp(ref, k), np.ldexp(est, k), 2) == compute_report(ref, est, 2)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("k", [-1000, -600, 540, 1000])
def test_compute_report_scale_gap_between_ref_and_est(k, layout):
    # est = 2^k ref used to lose the smaller tensor: "every spectral fiber is
    # zero" for k < 0 and "reference tensor is identically zero" for k > 0
    rng = np.random.default_rng(0)
    ref = in_layout(rng.uniform(size=(6, 5, 7)) + 0.5, layout)
    rep = compute_report(ref, in_layout(np.ldexp(ref, k), layout), 2)
    gap = abs(1.0 - 2.0**k)
    mu = ref.mean(axis=(0, 1))
    ergas = 100.0 / 2 * gap * math.sqrt(np.mean(np.mean(ref**2, axis=(0, 1)) / mu**2))
    assert rep.sam_rad <= 1e-12
    assert rep.cc == pytest.approx(1.0, abs=1e-12)
    assert rep.r_snr_db == pytest.approx(-20.0 * math.log10(gap), rel=1e-12, abs=1e-12)
    assert rep.ergas == pytest.approx(ergas, rel=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["ref", "est"])
@pytest.mark.parametrize("metric", [r_snr, sam, cc, lambda ref, est: ergas(ref, est, 2),
                                    lambda ref, est: compute_report(ref, est, 2)],
                         ids=["r_snr", "sam", "cc", "ergas", "compute_report"])
def test_metrics_refuse_a_non_finite_pair(metric, where, value):
    # a NaN pixel used to fail `> 0` and be skipped, so sam scored the pair
    # 0.0, the best value, while r_snr, cc and ergas returned NaN; an Inf gave
    # a RuntimeWarning and meaningless scores
    rng = np.random.default_rng(0)
    pair = {"ref": rng.uniform(size=(5, 6, 4)) + 0.5}
    pair["est"] = pair["ref"] + 0.01 * rng.uniform(size=(5, 6, 4))
    pair[where][1, 2, 3] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=f"^{where} has non-finite entries \\(NaN or Inf\\)$"):
            metric(pair["ref"], pair["est"])


def test_compute_report_allocates_less_than_one_input():
    rng = np.random.default_rng(18)
    ref = rng.uniform(0.5, 1.5, size=(64, 64, 100))
    est = ref + 0.01 * rng.standard_normal(ref.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compute_report(ref, est, 4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < ref.nbytes


# ---------------------------------------------------------------------------
# match_blocks


def random_factors(seed, rank=RankSpec(2, 2), dims=(5, 6, 4)):
    rng = np.random.default_rng(seed)
    return BtdFactors(
        rng.uniform(size=(dims[0], rank.total)),
        rng.uniform(size=(dims[1], rank.total)),
        rng.uniform(size=(dims[2], rank.R)),
        rank,
    )


def test_match_blocks_identity():
    f = random_factors(11)
    res = match_blocks(f, f)
    assert res.permutation == (0, 1)
    assert res.scales == pytest.approx((1.0, 1.0))
    assert res.matched_error <= 1e-14


def test_match_blocks_swap_and_scale():
    truth = random_factors(12)
    rank = truth.rank
    est = truth.copy()
    # swap the two blocks and scale the (new) second block's map by 2,
    # compensating in C so the reconstruction is untouched
    s0, s1 = rank.block_slice(0), rank.block_slice(1)
    est.A = np.hstack([truth.A[:, s1], 2.0 * truth.A[:, s0]])
    est.B = np.hstack([truth.B[:, s1], truth.B[:, s0]])
    est.C = np.column_stack([truth.C[:, 1], truth.C[:, 0] / 2.0])
    np.testing.assert_allclose(btd_reconstruct(est), btd_reconstruct(truth), atol=1e-12)
    res = match_blocks(truth, est)
    assert res.permutation == (1, 0)
    assert res.scales == pytest.approx((1.0, 2.0), rel=1e-12)
    assert res.matched_error <= 1e-12


def test_match_blocks_unrelated_factors_separate():
    truth = random_factors(13)
    est = random_factors(14)
    assert match_blocks(truth, est).matched_error > 0.1


def test_match_blocks_rank_mismatch():
    with pytest.raises(UsageError):
        match_blocks(random_factors(15), random_factors(16, rank=RankSpec(3, 2)))


@pytest.mark.parametrize("truth_dims, est_dims", [((12, 12, 4), (12, 10, 4)),
                                                   ((12, 10, 4), (10, 12, 4))],
                         ids=["other-J", "I-J-swapped"])
def test_match_blocks_refuses_other_spatial_dims(truth_dims, est_dims):
    # the first used to escape from a matmul as a bare ValueError, and the
    # second, with equal I*J, to be matched without complaint
    with pytest.raises(UsageError, match=re.escape(
            f"spatial dims differ: {truth_dims[:2]} vs {est_dims[:2]}")):
        match_blocks(random_factors(17, dims=truth_dims), random_factors(18, dims=est_dims))


# ---------------------------------------------------------------------------
# import cost


def test_import_loads_no_scipy():
    # scipy.optimize is only needed by match_blocks and imported there, and
    # numpy.random (10-14 ms) only by the commands that draw, on first use;
    # the library import, which an in-process caller makes, loads none of the
    # command line's modules either
    src = os.path.dirname(os.path.dirname(os.path.abspath(btdfuse.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for module, banned in (("btdfuse.cli", ("scipy",)),
                           ("btdfuse", ("scipy", "argparse", "json", "csv"))):
        code = (f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] "
                f"in {banned!r} or m.startswith('numpy.random')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]", module
