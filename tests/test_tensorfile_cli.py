"""On-disk tensor format and the command-line workflows."""

import csv
import gc
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from btdfuse import (
    FormatError,
    NoiseSpec,
    RankSpec,
    UsageError,
    add_noise,
    apply_degradation,
    btd_reconstruct,
    init_factors,
    make_degradation_ops,
    r_snr,
    read_tensor,
    write_tensor,
)
import btdfuse.cli
from btdfuse.cli import entry


# ---------------------------------------------------------------------------
# TensorFile


def test_tensorfile_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, 5, 6))
    t[0, 0, 0] = -0.0
    t[1, 2, 3] = 5e-324  # subnormal survives the trip
    path = tmp_path / "t.btf"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.shape == t.shape
    assert back.tobytes() == t.tobytes()


def test_write_reconstruction_copies_nothing(tmp_path):
    # btd_reconstruct returns the file's column-major layout, so the write
    # streams the estimate as it is instead of copying it first
    t = btd_reconstruct(init_factors((40, 30, 50), RankSpec(3, 2), 0, "random_uniform"))
    assert t.flags.f_contiguous
    path = tmp_path / "est.btf"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_tensor(path, t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < t.nbytes / 8
    assert read_tensor(path).tobytes(order="F") == t.tobytes(order="F")


def test_tensorfile_header_layout(tmp_path):
    t = np.arange(8.0).reshape((2, 2, 2), order="F")
    path = tmp_path / "t.btf"
    write_tensor(path, t)
    blob = path.read_bytes()
    magic, version, i, j, k = struct.unpack("<4sBQQQ", blob[:29])
    assert magic == b"HSRT"
    assert version == 1
    assert (i, j, k) == (2, 2, 2)
    payload = np.frombuffer(blob[29:], dtype="<f8")
    np.testing.assert_array_equal(payload, np.arange(8.0))


def test_tensorfile_write_rejects_non_3d(tmp_path):
    with pytest.raises(UsageError, match="third-order tensor, got ndim=2"):
        write_tensor(tmp_path / "bad.btf", np.zeros((2, 2)))
    assert list(tmp_path.iterdir()) == []


def test_tensorfile_read_bad_magic(tmp_path):
    path = tmp_path / "bad.btf"
    path.write_bytes(b"NOPE" + bytes(25) + bytes(8))
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensorfile_read_bad_version(tmp_path):
    path = tmp_path / "bad.btf"
    path.write_bytes(struct.pack("<4sBQQQ", b"HSRT", 2, 1, 1, 1) + bytes(8))
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensorfile_read_truncated_header(tmp_path):
    path = tmp_path / "bad.btf"
    path.write_bytes(b"HSRT\x01")
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensorfile_read_payload_size_mismatch(tmp_path):
    good = tmp_path / "good.btf"
    write_tensor(good, np.ones((2, 2, 2)))
    blob = good.read_bytes()
    (tmp_path / "short.btf").write_bytes(blob[:-8])
    (tmp_path / "long.btf").write_bytes(blob + bytes(8))
    with pytest.raises(FormatError):
        read_tensor(tmp_path / "short.btf")
    with pytest.raises(FormatError):
        read_tensor(tmp_path / "long.btf")


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_tensorfile_bytes_independent_of_layout(tmp_path, layout):
    # the file is the header plus the column-major payload, whatever the
    # memory layout of the array written
    base = np.random.default_rng(2).standard_normal((5, 6, 14))
    t = {"C": np.ascontiguousarray(base[:, :, :7]),
         "F": np.asfortranarray(base[:, :, :7]),
         "strided": base[:, :, ::2]}[layout]
    assert t.shape == (5, 6, 7)
    path = tmp_path / "t.btf"
    write_tensor(path, t)
    want = struct.pack("<4sBQQQ", b"HSRT", 1, 5, 6, 7) + t.ravel(order="F").astype("<f8").tobytes()
    assert path.read_bytes() == want
    back = read_tensor(path)
    np.testing.assert_array_equal(back, t)
    assert back.flags.f_contiguous and back.flags.writeable


def test_tensorfile_write_rejects_zero_dim(tmp_path):
    # read_tensor refuses a zero dim, so write_tensor must not write one
    with pytest.raises(UsageError, match=">= 1"):
        write_tensor(tmp_path / "empty.btf", np.zeros((0, 2, 2)))
    assert list(tmp_path.iterdir()) == []


def test_tensorfile_read_zero_dim(tmp_path):
    path = tmp_path / "bad.btf"
    path.write_bytes(struct.pack("<4sBQQQ", b"HSRT", 1, 0, 2, 2))
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensorfile_overwrite_is_clean(tmp_path):
    path = tmp_path / "t.btf"
    write_tensor(path, np.ones((2, 2, 2)))
    write_tensor(path, np.full((3, 1, 1), 7.0))
    np.testing.assert_array_equal(read_tensor(path), np.full((3, 1, 1), 7.0))
    # the atomic temp file must not linger
    assert [p.name for p in tmp_path.iterdir()] == ["t.btf"]


def test_tensorfile_read_refuses_non_finite_payload(tmp_path):
    # write_tensor writes what it is given; read_tensor is where the rule holds
    t = np.ones((3, 4, 2))
    t[1, 2, 0], t[2, 3, 1] = np.nan, np.nan
    path = tmp_path / "nan.btf"
    write_tensor(path, t)
    with pytest.raises(FormatError, match="2 non-finite") as exc:
        read_tensor(path)
    assert str(path) in str(exc.value)


def test_tensorfile_failed_write_removes_its_temp_file(tmp_path):
    # the rename onto a directory fails after the payload is written
    (tmp_path / "dir.btf").mkdir()
    with pytest.raises(OSError):
        write_tensor(tmp_path / "dir.btf", np.ones((2, 2, 2)))
    assert [p.name for p in tmp_path.iterdir()] == ["dir.btf"]


def test_tensorfile_write_missing_directory(tmp_path):
    with pytest.raises(OSError):
        write_tensor(tmp_path / "no" / "such" / "dir.btf", np.ones((1, 1, 1)))


# ---------------------------------------------------------------------------
# CLI helpers


def run_cli(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    # each command prints exactly one (pretty-printed) JSON manifest
    return json.loads(out)


def make_pair(tmp_path, capsys, dims=(27, 27, 16), blocks=3, block_rank=2, ratio=3,
              kernel=3, sigma=1.5, bands=4, snr="inf", seed=0):
    sri = tmp_path / "sri.btf"
    hsi = tmp_path / "hsi.btf"
    msi = tmp_path / "msi.btf"
    code, _, _ = run_cli(
        capsys, "make-sri", "--out", str(sri),
        "--dims", str(dims[0]), str(dims[1]), str(dims[2]),
        "-R", str(blocks), "-L", str(block_rank), "--seed", str(seed),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "simulate", "--sri", str(sri), "--out-hsi", str(hsi),
        "--out-msi", str(msi), "--kernel", str(kernel), "--sigma", str(sigma),
        "--ratio", str(ratio), "--bands", str(bands), "--snr-db", str(snr),
        "--seed", str(seed),
    )
    assert code == 0
    return sri, hsi, msi, last_json(out)


# ---------------------------------------------------------------------------
# make-sri / simulate


def test_make_sri_writes_readable_tensor(tmp_path, capsys):
    out = tmp_path / "sri.btf"
    code, stdout, _ = run_cli(
        capsys, "make-sri", "--out", str(out), "--dims", "8", "7", "6", "-R", "2", "-L", "2"
    )
    assert code == 0
    manifest = last_json(stdout)
    assert manifest["dims"] == [8, 7, 6]
    t = read_tensor(out)
    assert t.shape == (8, 7, 6)
    assert t.min() >= 0.0


def test_simulate_reference_geometry(tmp_path, capsys):
    # 145x145x220 with the default 9-tap kernel, ratio 5, 4 bands
    sri = tmp_path / "sri.btf"
    code, _, _ = run_cli(
        capsys, "make-sri", "--out", str(sri), "--dims", "145", "145", "220",
        "-R", "3", "-L", "2",
    )
    assert code == 0
    hsi = tmp_path / "hsi.btf"
    msi = tmp_path / "msi.btf"
    code, out, _ = run_cli(
        capsys, "simulate", "--sri", str(sri), "--out-hsi", str(hsi),
        "--out-msi", str(msi),
    )
    assert code == 0
    manifest = last_json(out)
    assert manifest["hsi"]["dims"] == [29, 29, 220]
    assert manifest["msi"]["dims"] == [145, 145, 4]
    assert abs(manifest["hsi"]["realized_snr_db"] - 30.0) < 0.5


def test_simulate_noiseless_equals_pure_degradation(tmp_path, capsys):
    sri, hsi, msi, manifest = make_pair(tmp_path, capsys, dims=(12, 12, 8), ratio=2,
                                        sigma=1.0, bands=2, snr="inf")
    assert manifest["hsi"]["realized_snr_db"] is None
    assert manifest["parameters"]["snr_db"] == "inf"
    ops = make_degradation_ops(12, 12, 8, K_M=2, kernel_size=3, sigma=1.0, d=2)
    want_hsi, want_msi = apply_degradation(read_tensor(sri), ops)
    np.testing.assert_array_equal(read_tensor(hsi), want_hsi)
    np.testing.assert_array_equal(read_tensor(msi), want_msi)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_rejects_non_finite_sri_exit_2(tmp_path, capsys, bad):
    # a NaN in --sri used to give NaN-filled HSI and MSI files and a
    # "realized_snr_db": NaN, with exit 0
    sri = tmp_path / "sri.btf"
    t = np.random.default_rng(5).uniform(0.5, 1.5, size=(12, 12, 8))
    t[2, 3, 4] = bad
    t[7, 1, 0] = -bad
    write_tensor(sri, t)
    hsi, msi = tmp_path / "hsi.btf", tmp_path / "msi.btf"
    code, out, err = run_cli(
        capsys, "simulate", "--sri", str(sri), "--out-hsi", str(hsi), "--out-msi", str(msi),
        "--kernel", "3", "--sigma", "1.0", "--ratio", "2", "--bands", "2",
    )
    assert code == 2
    assert out == ""
    assert str(sri) in err and "2 non-finite" in err
    assert not hsi.exists() and not msi.exists()


def _refuse_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_simulate_tiny_sigma_blurs_as_the_identity(tmp_path, capsys):
    # sigma = 1e-170 used to give an all-NaN HSI and "realized_snr_db": NaN
    sri = tmp_path / "sri.btf"
    assert run_cli(capsys, "make-sri", "--out", str(sri), "--dims", "20", "20", "8")[0] == 0
    hsi, msi = tmp_path / "hsi.btf", tmp_path / "msi.btf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "simulate", "--sri", str(sri), "--out-hsi", str(hsi),
            "--out-msi", str(msi), "--sigma", "1e-170", "--kernel", "3", "--ratio", "2",
            "--bands", "2", "--snr-db", "inf",
        )
    assert code == 0 and err == ""
    json.loads(out, parse_constant=_refuse_constant)
    # the identity blur keeps every second pixel of the reference as it is
    np.testing.assert_array_equal(read_tensor(hsi), read_tensor(sri)[::2, ::2])
    assert np.isfinite(read_tensor(msi)).all()


def test_simulate_same_seed_is_byte_identical(tmp_path, capsys):
    sri = tmp_path / "sri.btf"
    run_cli(capsys, "make-sri", "--out", str(sri), "--dims", "10", "10", "6")
    blobs = []
    for tag in ("a", "b"):
        hsi = tmp_path / f"hsi_{tag}.btf"
        msi = tmp_path / f"msi_{tag}.btf"
        code, _, _ = run_cli(
            capsys, "simulate", "--sri", str(sri), "--out-hsi", str(hsi),
            "--out-msi", str(msi), "--kernel", "3", "--ratio", "2",
            "--bands", "2", "--snr-db", "25", "--seed", "11",
        )
        assert code == 0
        blobs.append((hsi.read_bytes(), msi.read_bytes()))
    assert blobs[0] == blobs[1]


def test_simulate_reports_default_sigma(tmp_path, capsys):
    # without --sigma the blur width is ratio / 2, as the operators use it
    sri = tmp_path / "sri.btf"
    run_cli(capsys, "make-sri", "--out", str(sri), "--dims", "10", "10", "6")
    code, out, _ = run_cli(
        capsys, "simulate", "--sri", str(sri), "--out-hsi", str(tmp_path / "hsi.btf"),
        "--out-msi", str(tmp_path / "msi.btf"), "--kernel", "3", "--ratio", "3",
        "--bands", "2", "--offset", "1",
    )
    assert code == 0
    params = last_json(out)["parameters"]
    assert params["sigma"] == 1.5
    assert (params["kernel_size"], params["ratio"], params["offset"]) == (3, 3, 1)


def test_simulate_hsi_msi_noise_streams_differ(tmp_path, capsys):
    sri, hsi, msi, manifest = make_pair(tmp_path, capsys, dims=(12, 12, 4), ratio=2,
                                        sigma=1.0, bands=4, snr="20")
    # same shapes here, so equal noise draws would mean a shared stream
    ops = make_degradation_ops(12, 12, 4, K_M=4, kernel_size=3, sigma=1.0, d=2)
    clean_hsi, clean_msi = apply_degradation(read_tensor(sri), ops)
    noise_h = read_tensor(hsi) - clean_hsi
    noise_m = read_tensor(msi)[::2, ::2] - clean_msi[::2, ::2]
    assert noise_h.shape == noise_m.shape
    assert np.linalg.norm(noise_h - noise_m) > 1e-6


@pytest.mark.parametrize("snr", ["3100", "-3300"])
def test_simulate_refuses_an_snr_past_the_float_range(tmp_path, capsys, snr):
    # both used to end in a traceback from add_noise
    sri = tmp_path / "sri.btf"
    assert run_cli(capsys, "make-sri", "--out", str(sri), "--dims", "40", "40", "30",
                   "-R", "2", "-L", "2")[0] == 0
    hsi, msi = tmp_path / "hsi.btf", tmp_path / "msi.btf"
    code, out, err = run_cli(capsys, "simulate", "--sri", str(sri), "--out-hsi", str(hsi),
                             "--out-msi", str(msi), "--snr-db", snr)
    assert code == 1 and out == ""
    assert err.startswith("error: snr_db "), err
    assert not hsi.exists() and not msi.exists()


def test_simulate_reports_the_realized_snr_of_overflowing_noise(tmp_path, capsys):
    # at -3230 dB the noise is finite but its squared norm is not; the manifest
    # used to fail with "math domain error" from log10(0)
    _, _, _, manifest = make_pair(tmp_path, capsys, dims=(40, 40, 30), blocks=2, ratio=4,
                                  snr="-3230")
    for name in ("hsi", "msi"):
        assert abs(manifest[name]["realized_snr_db"] + 3230.0) < 0.5


@pytest.mark.parametrize("scale", [0, 600])
def test_simulate_realized_snr_is_r_snr(tmp_path, capsys, scale):
    # the realized SNR was simulate's own ratio of two norms, which can differ
    # from r_snr, the R-SNR that evaluate reports, in the last digit; at
    # 2^600 the pair's squared norms are past the float range
    sri = tmp_path / "sri.btf"
    assert run_cli(capsys, "make-sri", "--out", str(sri), "--dims", "20", "20", "8",
                   "--seed", "3")[0] == 0
    write_tensor(sri, np.ldexp(read_tensor(sri), scale))
    ops = make_degradation_ops(20, 20, 8, K_M=4, kernel_size=3, sigma=1.5, d=3)
    clean = dict(zip(("hsi", "msi"), apply_degradation(read_tensor(sri), ops)))
    paths = {key: tmp_path / f"{key}.btf" for key in clean}
    for snr in ("30", "inf"):
        code, out, _ = run_cli(capsys, "simulate", "--sri", str(sri),
                               "--out-hsi", str(paths["hsi"]), "--out-msi", str(paths["msi"]),
                               "--kernel", "3", "--sigma", "1.5", "--ratio", "3",
                               "--bands", "4", "--snr-db", snr)
        assert code == 0
        manifest = json.loads(out, parse_constant=_refuse_constant)
        for key, path in paths.items():
            want = None if snr == "inf" else r_snr(clean[key], read_tensor(path))
            assert manifest[key]["realized_snr_db"] == want


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_identity_report(tmp_path, capsys):
    sri, *_ = make_pair(tmp_path, capsys, dims=(9, 9, 5), ratio=3, bands=5)
    code, out, _ = run_cli(
        capsys, "evaluate", "--ref", str(sri), "--est", str(sri), "--ratio", "3"
    )
    assert code == 0
    report = last_json(out)
    assert report["r_snr_db"] == 300.0
    assert report["cc"] == 1.0
    assert report["sam_rad"] == 0.0
    assert report["ergas"] == 0.0


def test_evaluate_matches_library(tmp_path, capsys):
    from btdfuse import compute_report

    rng = np.random.default_rng(1)
    ref = rng.uniform(0.5, 1.5, size=(8, 8, 5))
    est = ref + 0.01 * rng.standard_normal(ref.shape)
    ref_p, est_p = tmp_path / "ref.btf", tmp_path / "est.btf"
    write_tensor(ref_p, ref)
    write_tensor(est_p, est)
    code, out, _ = run_cli(
        capsys, "evaluate", "--ref", str(ref_p), "--est", str(est_p), "--ratio", "2"
    )
    assert code == 0
    got = last_json(out)
    want = compute_report(ref, est, 2).as_dict()
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-15)


def test_evaluate_missing_file_exit_2(tmp_path, capsys):
    ref = tmp_path / "ref.btf"
    write_tensor(ref, np.ones((2, 2, 2)))
    missing = tmp_path / "nope.btf"
    code, _, err = run_cli(
        capsys, "evaluate", "--ref", str(ref), "--est", str(missing), "--ratio", "2"
    )
    assert code == 2
    assert "nope.btf" in err


@pytest.mark.parametrize("which", ["ref", "est"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_rejects_non_finite_input_exit_2(tmp_path, capsys, which, bad):
    rng = np.random.default_rng(3)
    paths = {"ref": tmp_path / "ref.btf", "est": tmp_path / "est.btf"}
    for name, path in paths.items():
        t = rng.uniform(0.5, 1.5, size=(4, 4, 3))
        if name == which:
            t[0, 1, 0] = bad
            t[2, 3, 2] = -bad
            t[3, 3, 1] = bad
        write_tensor(path, t)
    code, out, err = run_cli(
        capsys, "evaluate", "--ref", str(paths["ref"]), "--est", str(paths["est"]),
        "--ratio", "2",
    )
    assert code == 2
    assert out == ""
    assert str(paths[which]) in err and "3 non-finite" in err


def test_evaluate_infinite_ratio_exit_1(tmp_path, capsys):
    # ERGAS scales by 1/d: an infinite ratio used to print the best score, 0
    rng = np.random.default_rng(4)
    ref, est = tmp_path / "ref.btf", tmp_path / "est.btf"
    write_tensor(ref, rng.uniform(0.5, 1.5, size=(4, 4, 3)))
    write_tensor(est, rng.uniform(0.5, 1.5, size=(4, 4, 3)))
    code, out, err = run_cli(
        capsys, "evaluate", "--ref", str(ref), "--est", str(est), "--ratio", "inf"
    )
    assert code == 1
    assert out == "" and err.startswith("error: ")


def test_evaluate_dim_mismatch_exit_1(tmp_path, capsys):
    a, b = tmp_path / "a.btf", tmp_path / "b.btf"
    write_tensor(a, np.ones((2, 2, 2)))
    write_tensor(b, np.ones((2, 2, 3)))
    code, _, err = run_cli(capsys, "evaluate", "--ref", str(a), "--est", str(b), "--ratio", "2")
    assert code == 1
    assert "error" in err


def test_bad_flags_exit_1(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "fuse", "--hsi", "x", "--msi", "y", "--out", "z")
    assert code == 1  # missing required -R
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1


# ---------------------------------------------------------------------------
# fuse


def test_fuse_methods_produce_estimates(tmp_path, capsys):
    sri, hsi, msi, _ = make_pair(tmp_path, capsys, dims=(18, 18, 8), ratio=3,
                                 sigma=1.5, bands=4, snr="25")
    for method, iters in (("stereo", "30"), ("cnn_btd", "10")):
        est = tmp_path / f"est_{method}.btf"
        code, out, _ = run_cli(
            capsys, "fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", str(est),
            "--method", method, "-R", "2", "-L", "2", "--kernel", "3",
            "--sigma", "1.5", "--ratio", "3", "--outer-iters", iters,
        )
        assert code == 0
        summary = last_json(out)
        assert summary["method"] == method
        assert summary["dims"] == [18, 18, 8]
        assert summary["iters_run"] == int(iters)
        assert summary["objective_trace_len"] == 3 * int(iters)
        assert summary["final_objective"] >= 0.0
        assert read_tensor(est).shape == (18, 18, 8)


def test_fuse_default_outer_iters_depends_on_method(tmp_path, capsys):
    sri, hsi, msi, _ = make_pair(tmp_path, capsys, dims=(8, 8, 4), ratio=2,
                                 sigma=1.0, bands=2, blocks=1, block_rank=1)
    est = tmp_path / "est.btf"
    base = ["fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", str(est),
            "-R", "1", "-L", "1", "--kernel", "3", "--sigma", "1.0", "--ratio", "2"]
    code, out, _ = run_cli(capsys, *base, "--method", "stereo")
    assert last_json(out)["iters_run"] == 100
    code, out, _ = run_cli(capsys, *base, "--method", "cnn_btd")
    assert last_json(out)["iters_run"] == 20


def test_fuse_cpd_equals_btd_unit_blocks(tmp_path, capsys):
    sri, hsi, msi, _ = make_pair(tmp_path, capsys, dims=(15, 15, 6), ratio=3,
                                 sigma=1.5, bands=3, snr="30", seed=5)
    outs = {}
    for method in ("cnn_cpd", "cnn_btd"):
        est = tmp_path / f"est_{method}.btf"
        code, _, _ = run_cli(
            capsys, "fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", str(est),
            "--method", method, "-R", "3", "-L", "1", "--kernel", "3",
            "--sigma", "1.5", "--ratio", "3", "--outer-iters", "8", "--seed", "7",
        )
        assert code == 0
        outs[method] = read_tensor(est)
    np.testing.assert_allclose(outs["cnn_cpd"], outs["cnn_btd"], atol=1e-12)


def test_fuse_two_stage_warm_start_recovers(tmp_path, capsys):
    # noiseless uniqueness-satisfying geometry; the band-interpolated SVD
    # start is warm enough here for the MSI fit to converge within budget
    sri, hsi, msi, _ = make_pair(tmp_path, capsys, seed=2)
    est = tmp_path / "est.btf"
    code, _, _ = run_cli(
        capsys, "fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", str(est),
        "--method", "two_stage", "-R", "3", "-L", "2", "--kernel", "3",
        "--sigma", "1.5", "--ratio", "3", "--outer-iters", "600", "--init", "svd_warm",
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "evaluate", "--ref", str(sri), "--est", str(est), "--ratio", "3"
    )
    assert code == 0
    assert last_json(out)["r_snr_db"] >= 40.0


def test_fuse_warns_when_uniqueness_unsupported(tmp_path, capsys):
    sri, hsi, msi, _ = make_pair(tmp_path, capsys)
    est = tmp_path / "est.btf"
    code, _, err = run_cli(
        capsys, "fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", str(est),
        "--method", "cnn_btd", "-R", "3", "-L", "14", "--kernel", "3",
        "--sigma", "1.5", "--ratio", "3", "--outer-iters", "1", "--inner-iters", "1",
    )
    assert code == 0
    assert "WARNING" in err


def test_fuse_reports_the_rank_cnn_cpd_fits(tmp_path, capsys):
    # cnn_cpd fits L = 1 whatever -L says; the manifest and the identifiability
    # check used to read L = 20, which fails the condition on this pair
    sri, hsi, msi, _ = make_pair(tmp_path, capsys, dims=(15, 15, 6), ratio=3,
                                 sigma=1.5, bands=3, snr="30", seed=5)
    outs = {}
    for block_rank in ("20", "1"):
        est = tmp_path / f"est_{block_rank}.btf"
        code, out, err = run_cli(
            capsys, "fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", str(est),
            "--method", "cnn_cpd", "-R", "2", "-L", block_rank, "--kernel", "3",
            "--sigma", "1.5", "--ratio", "3", "--outer-iters", "2",
        )
        assert code == 0 and err == "", block_rank
        assert last_json(out)["block_rank"] == 1
        outs[block_rank] = read_tensor(est)
    np.testing.assert_array_equal(outs["20"], outs["1"])


def test_fuse_geometry_flag_mismatch_exit_1(tmp_path, capsys):
    sri, hsi, msi, _ = make_pair(tmp_path, capsys, dims=(12, 12, 8), ratio=2,
                                 sigma=1.0, bands=2)
    est = tmp_path / "est.btf"
    code, _, err = run_cli(
        capsys, "fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", str(est),
        "-R", "2", "--kernel", "3", "--sigma", "1.0", "--ratio", "3",
    )
    assert code == 1
    assert "ratio" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fuse_rejects_non_finite_input_exit_2(tmp_path, capsys, bad):
    sri, hsi, msi, _ = make_pair(tmp_path, capsys, dims=(12, 12, 8), ratio=2,
                                 sigma=1.0, bands=2)
    t = read_tensor(msi)
    t[0, 1, 0] = bad
    t[3, 2, 1] = -bad
    write_tensor(msi, t)
    est = tmp_path / "est.btf"
    code, out, err = run_cli(
        capsys, "fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", str(est),
        "-R", "2", "--kernel", "3", "--sigma", "1.0", "--ratio", "2",
    )
    assert code == 2
    assert out == ""
    assert str(msi) in err and "2 non-finite" in err
    assert not est.exists()


@pytest.mark.parametrize("command", ["simulate", "fuse", "bench"])
def test_non_finite_srf_csv_exit_2_and_writes_nothing(tmp_path, capsys, command):
    # a NaN in --srf-csv used to give simulate an MSI with half its entries
    # NaN (exit 0), fuse a Sylvester error naming no file and bench an all-NaN
    # table (both exit 3)
    sri, hsi, msi, _ = make_pair(tmp_path, capsys, dims=(12, 12, 8), ratio=2,
                                 sigma=1.0, bands=2)
    srf = np.repeat(np.eye(2) / 4, 4, axis=1)
    srf[1, 5] = np.nan
    srf_csv = tmp_path / "srf.csv"
    np.savetxt(srf_csv, srf, delimiter=",")
    out = tmp_path / "out"
    out.mkdir()
    deg = ["--kernel", "3", "--sigma", "1.0", "--ratio", "2", "--srf-csv", str(srf_csv)]
    argv = {
        "simulate": ["simulate", "--sri", str(sri), "--out-hsi", str(out / "h.btf"),
                     "--out-msi", str(out / "m.btf"), *deg],
        "fuse": ["fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", str(out / "est.btf"),
                 "-R", "2", *deg],
    }.get(command)
    if argv is None:
        config, _ = bench_config(out, sri_path=str(sri), kernel_size=3, sigma=1.0, ratio=2,
                                 srf_csv=str(srf_csv))
        argv = ["bench", "--config", str(config)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and str(srf_csv) in err and "1 non-finite" in err
    assert sorted(os.listdir(out)) == (["bench.json"] if command == "bench" else [])


def test_empty_srf_csv_exit_2_with_one_error_line(tmp_path, capsys):
    # numpy's "loadtxt: input contained no data" warning used to reach stderr,
    # and the refusal said the file "has 1 columns, expected 8"
    sri, _, _, _ = make_pair(tmp_path, capsys, dims=(12, 12, 8), ratio=2, sigma=1.0, bands=2)
    srf_csv = tmp_path / "empty.csv"
    srf_csv.write_text("")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "simulate", "--sri", str(sri), "--out-hsi", str(tmp_path / "h.btf"),
            "--out-msi", str(tmp_path / "m.btf"), "--kernel", "3", "--sigma", "1.0",
            "--ratio", "2", "--srf-csv", str(srf_csv))
    assert code == 2 and out == ""
    assert err == f"error: SRF CSV {srf_csv} holds no data\n"
    assert [w.message for w in caught] == []
    assert not (tmp_path / "h.btf").exists() and not (tmp_path / "m.btf").exists()


def test_fuse_bad_settings_exit_1_before_reading(tmp_path, capsys):
    # the settings are checked first, so the missing input files never matter
    for flags in (["--rho", "abc"], ["--rho", "-1"], ["--outer-iters", "0"], ["-L", "0"],
                  ["--tol", "nan"], ["--seed", "-1"]):
        code, out, err = run_cli(
            capsys, "fuse", "--hsi", str(tmp_path / "no.btf"), "--msi", str(tmp_path / "no.btf"),
            "--out", str(tmp_path / "est.btf"), "-R", "2", *flags,
        )
        assert code == 1, flags
        assert out == "" and err.startswith("error: "), flags


def test_negative_seed_exit_1(tmp_path, capsys):
    # a negative seed used to escape from numpy's default_rng as a traceback
    sri, _, _, _ = make_pair(tmp_path, capsys, dims=(12, 12, 8), blocks=2, block_rank=1)
    for argv in (
        ["make-sri", "--out", str(tmp_path / "s.btf"), "--dims", "6", "6", "4", "-R", "2"],
        ["simulate", "--sri", str(sri), "--out-hsi", str(tmp_path / "h.btf"),
         "--out-msi", str(tmp_path / "m.btf")],
    ):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 1, argv
        assert out == "" and err.startswith("error: ") and "Traceback" not in err, argv


def test_fuse_numerical_failure_exit_3(tmp_path, capsys):
    # 2x2 coarse grid cannot pin down five spectral columns in stage 2
    sri, hsi, msi, _ = make_pair(tmp_path, capsys, dims=(6, 6, 5), blocks=2,
                                 block_rank=1, ratio=3, sigma=1.5, bands=2)
    est = tmp_path / "est.btf"
    code, _, err = run_cli(
        capsys, "fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", str(est),
        "--method", "two_stage", "-R", "5", "-L", "1", "--kernel", "3",
        "--sigma", "1.5", "--ratio", "3", "--outer-iters", "5",
    )
    assert code == 3
    assert "error" in err


# ---------------------------------------------------------------------------
# bench


def bench_config(tmp_path, **overrides):
    cfg = {
        "trials": 1,
        "snr_db": 25.0,
        "seed_base": 0,
        "output": str(tmp_path / "table.csv"),
        "sri_dims": [15, 15, 8],
        "sri_rank": {"R": 2, "L": 2},
        "kernel_size": 3,
        "sigma": 1.5,
        "ratio": 3,
        "bands": 4,
        "methods": [
            {"method": "stereo", "R": 2, "L": 2, "outer_iters": 15},
            {"method": "cnn_btd", "R": 2, "L": 2, "outer_iters": 5},
        ],
    }
    cfg.update(overrides)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_bench_table_structure(tmp_path, capsys):
    path, cfg = bench_config(tmp_path)
    code, out, _ = run_cli(capsys, "bench", "--config", str(path))
    assert code == 0
    summary = last_json(out)
    assert summary["completed_runs"] == 2
    with open(tmp_path / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "trials_ok", "r_snr_db", "cc", "sam_rad", "ergas", "runtime_s"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[1] == "1"
        for cell in row[2:6]:
            float(cell)  # metric columns hold parseable numbers


def test_bench_metric_columns_deterministic(tmp_path, capsys):
    snapshots = []
    for run in ("x", "y"):
        out_csv = tmp_path / f"table_{run}.csv"
        path, _ = bench_config(tmp_path, output=str(out_csv))
        code, _, _ = run_cli(capsys, "bench", "--config", str(path))
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        snapshots.append([row[:6] for row in rows])  # all but runtime
    assert snapshots[0] == snapshots[1]


def test_bench_markdown_output(tmp_path, capsys):
    out_md = tmp_path / "table.md"
    path, _ = bench_config(tmp_path, output=str(out_md),
                           methods=[{"method": "stereo", "R": 2, "L": 2,
                                     "outer_iters": 10}])
    code, _, _ = run_cli(capsys, "bench", "--config", str(path))
    assert code == 0
    lines = out_md.read_text().strip().splitlines()
    assert lines[0].startswith("| method |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert len(lines) == 3


def test_bench_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 2
    assert "bench.json" in err


def test_bench_config_validation_exit_1(tmp_path, capsys):
    path, _ = bench_config(tmp_path, output=None)
    assert run_cli(capsys, "bench", "--config", str(path))[0] == 1
    path.write_text("[1, 2]")
    assert run_cli(capsys, "bench", "--config", str(path))[0] == 1
    path, _ = bench_config(tmp_path, methods=[{"method": "mystery", "R": 2}])
    assert run_cli(capsys, "bench", "--config", str(path))[0] == 1
    path, _ = bench_config(tmp_path, methods=[{"method": "stereo"}])
    assert run_cli(capsys, "bench", "--config", str(path))[0] == 1
    # each of these used to fail every trial (exit 3) or escape as a traceback;
    # now the config is rejected before any trial runs
    for overrides in (
        {"methods": [{"method": "stereo", "R": 2, "init": "svd"}]},
        {"methods": [{"method": "cnn_btd", "R": 2, "rho": -1}]},
        {"methods": [{"method": "stereo", "R": 2, "outer_iter": 3}]},
        {"methods": ["stereo"]},
        {"trials": "x"},
        {"methods": [{"method": "stereo", "R": "two"}]},
        # a misspelt top-level key used to run with the 9x9 default blur
        {"kernal_size": 3},
        # two entries in one table row used to merge their statistics
        {"methods": [{"method": "stereo", "R": 2}, {"method": "stereo", "R": 2, "tol": 1e-3}]},
        {"methods": [{"method": "stereo", "R": 2, "outer_iters": 0}]},
        {"methods": [{"method": "cnn_btd", "R": 2, "inner_iters": 0}]},
        {"methods": [{"method": "cnn_btd", "R": 2, "L": 0}]},
        {"sigma": "wide"},
        # an integer too large for a float used to escape as an OverflowError
        {"methods": [{"method": "stereo", "R": 2, "tol": 10**400}]},
        {"sigma": 10**400},
        # a negative seed used to escape from numpy's default_rng as a traceback
        {"seed_base": -1},
        # json.load reads NaN, and a NaN tol used to pass the tol >= 0 check
        {"methods": [{"method": "stereo", "R": 2, "tol": float("nan")}]},
        # neither an image file nor the dims and rank to make one
        {"sri_dims": None},
        {"sri_rank": {"L": 2}},
        {"trials": 0},
        {"methods": []},
        # real settings take no bool or string: these used to run as 1.0 and 30.0
        {"sigma": True},
        {"snr_db": "30"},
        {"methods": [{"method": "stereo", "R": 2, "tol": True}]},
        # a block count too large for an index used to escape as an OverflowError
        {"sri_rank": {"R": 1e20}},
    ):
        path, _ = bench_config(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "bench", "--config", str(path))
        assert code == 1, overrides
        assert out == "" and err.startswith("error: "), overrides
        assert not (tmp_path / "table.csv").exists()
    # seed_base was checked as the library's seed, so its refusal named a key
    # the config does not have
    path, _ = bench_config(tmp_path, seed_base=-1)
    assert run_cli(capsys, "bench", "--config", str(path))[2] == (
        "error: seed_base must be >= 0, got -1\n")
    # rho went through str() and float(): True was refused as the string "True"
    for rho in (True, [1]):
        path, _ = bench_config(tmp_path, methods=[{"method": "cnn_btd", "R": 2, "rho": rho}])
        code, out, err = run_cli(capsys, "bench", "--config", str(path))
        assert code == 1 and out == "", rho
        assert err.startswith("error: ") and f"rho must be a real number, got {rho!r}" in err
        assert not (tmp_path / "table.csv").exists()
    # "auto" and a number written as a string still run, as the README documents
    for rho in ("auto", "1.5"):
        path, _ = bench_config(tmp_path, methods=[{"method": "cnn_btd", "R": 2, "rho": rho}])
        assert run_cli(capsys, "bench", "--config", str(path))[0] == 0, rho


def test_bench_labels_the_rank_cnn_cpd_fits(tmp_path, capsys):
    path, cfg = bench_config(tmp_path, methods=[{"method": "cnn_cpd", "R": 2, "L": 3,
                                                  "outer_iters": 2}])
    code, out, _ = run_cli(capsys, "bench", "--config", str(path))
    assert code == 0
    assert last_json(out)["methods"] == ["cnn_cpd(R=2,L=1)"]
    with open(cfg["output"], newline="") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["method", "cnn_cpd(R=2,L=1)"]


def test_bench_trials_do_not_start_at_the_synthetic_image(tmp_path):
    # the image was drawn with seed_base, and trial 0 fused from seed_base, so
    # a method of the image's rank started from the true A and B
    for seed_base, trials in ((0, 3), (7, 2)):
        _, cfg = bench_config(tmp_path, seed_base=seed_base, trials=trials)
        sri = btdfuse.cli._bench_config(cfg).sri
        for t in range(trials):
            start = init_factors(sri.shape, RankSpec(2, 2), seed_base + t, "random_uniform")
            assert np.linalg.norm(btd_reconstruct(start) - sri) > 0.1 * np.linalg.norm(sri)
        # the image is drawn from seed_base alone
        assert np.array_equal(btdfuse.cli._bench_config(dict(cfg, trials=1)).sri, sri)


def test_make_sri_rank_too_large_exit_1(tmp_path, capsys):
    # a block count too large for an index used to escape as an OverflowError
    code, out, err = run_cli(capsys, "make-sri", "--out", str(tmp_path / "s.btf"),
                             "--dims", "6", "5", "4", "-R", str(10**20))
    assert code == 1
    assert out == "" and err.startswith("error: R is too large")
    assert not (tmp_path / "s.btf").exists()


# a scalar L used to be broadcast to an R-long tuple before any size check,
# so R = 10**12 asked for 8 TB and escaped as a MemoryError; R is now bounded
# by the largest rank of the image, min(IJ, IK, JK), before L is broadcast


def test_make_sri_rank_past_the_image_exit_1(tmp_path, capsys):
    out = tmp_path / "s.btf"
    for blocks in (10**12, 21):
        code, stdout, err = run_cli(capsys, "make-sri", "--out", str(out),
                                    "--dims", "6", "5", "4", "-R", str(blocks))
        assert code == 1 and stdout == ""
        assert err == (f"error: R is too large for a 6x5x4 image, whose rank is at most 20, "
                       f"got {blocks}\n")
        assert not out.exists()
    assert run_cli(capsys, "make-sri", "--out", str(out), "--dims", "6", "5", "4",
                   "-R", "20")[0] == 0


def test_fuse_rank_past_the_image_exit_1(tmp_path, capsys):
    _, hsi, msi, _ = make_pair(tmp_path, capsys, dims=(12, 12, 8), blocks=2, block_rank=1)
    est = tmp_path / "est.btf"
    code, out, err = run_cli(capsys, "fuse", "--hsi", str(hsi), "--msi", str(msi),
                             "--out", str(est), "-R", str(10**12), "--kernel", "3",
                             "--sigma", "1.5", "--ratio", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: bad cnn_btd settings: R is too large for a 12x12x8 "
                          "image, whose rank is at most 96, got 1000000000000"), err
    assert not est.exists()


def test_bench_rank_past_the_image_exit_1(tmp_path, capsys):
    path, _ = bench_config(tmp_path, methods=[{"method": "stereo", "R": 10**12}])
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: bad stereo settings: R is too large for a 15x15x8 "
                          "image, whose rank is at most 120, got 1000000000000"), err
    assert not (tmp_path / "table.csv").exists()


def test_simulate_writes_finite_files_for_huge_entries(tmp_path, capsys):
    # the norm's square used to overflow above about 1e154, so the noisy pair
    # was all inf.  Every step scales exactly by a power of two, so the pair
    # of the SRI scaled by 2^530 is the unscaled pair scaled by 2^530
    sri, hsi, msi, small = make_pair(tmp_path, capsys, dims=(12, 12, 8), snr="30")
    big_sri = tmp_path / "big_sri.btf"
    write_tensor(big_sri, np.ldexp(read_tensor(sri), 530))
    code, out, _ = run_cli(capsys, "simulate", "--sri", str(big_sri),
                           "--out-hsi", str(tmp_path / "big_hsi.btf"),
                           "--out-msi", str(tmp_path / "big_msi.btf"),
                           "--kernel", "3", "--sigma", "1.5", "--ratio", "3",
                           "--bands", "4", "--snr-db", "30", "--seed", "0")
    assert code == 0
    big = last_json(out)
    for key, path in (("hsi", hsi), ("msi", msi)):
        scaled = read_tensor(tmp_path / f"big_{key}.btf")
        assert np.isfinite(scaled).all()
        np.testing.assert_array_equal(scaled, np.ldexp(read_tensor(path), 530))
        assert big[key]["realized_snr_db"] == small[key]["realized_snr_db"]


def test_simulate_reports_a_finite_snr_where_the_norm_overflows(tmp_path, capsys):
    # with entries of 1e308 the clean norm is past the float range: the noise
    # level used to be inf, and once it was finite the manifest still printed
    # "realized_snr_db": Infinity, which is not JSON.  The ratio is now taken
    # at a common power of two, so it is that of the SRI scaled by 2^-10
    realized = []
    for name, scale in (("big", 0), ("small", -10)):
        sri = tmp_path / f"{name}_sri.btf"
        write_tensor(sri, np.ldexp(np.full((12, 12, 8), 1e308), scale))
        code, out, err = run_cli(capsys, "simulate", "--sri", str(sri),
                                 "--out-hsi", str(tmp_path / f"{name}_hsi.btf"),
                                 "--out-msi", str(tmp_path / f"{name}_msi.btf"),
                                 "--kernel", "3", "--ratio", "3", "--bands", "4",
                                 "--snr-db", "30", "--seed", "0")
        assert code == 0, err
        manifest = json.loads(out, parse_constant=_refuse_constant)
        realized.append([manifest[key]["realized_snr_db"] for key in ("hsi", "msi")])
        for key in ("hsi", "msi"):
            assert np.isfinite(read_tensor(tmp_path / f"{name}_{key}.btf")).all()
    assert realized[0] == realized[1]
    assert all(abs(snr - 30.0) < 3.0 for snr in realized[0])


def test_bench_refuses_non_integral_counts(tmp_path, capsys):
    # int() used to truncate these: R=2.9, L=1.5, outer_iters=2.5 ran R=2,
    # L=(1, 1) and 2 sweeps
    for entry in ({"R": 2.9}, {"R": 2, "L": 1.5}, {"R": 2, "outer_iters": 2.5},
                  {"R": 2, "inner_iters": 2.5},
                  {"R": 2.9, "L": 1.5, "outer_iters": 2.5}):
        path, _ = bench_config(tmp_path, methods=[{"method": "cnn_btd", **entry}])
        code, out, err = run_cli(capsys, "bench", "--config", str(path))
        assert code == 1, entry
        assert out == "" and err.startswith("error: ") and "integer" in err, entry
        assert not (tmp_path / "table.csv").exists()
    # a whole number written as a float is still that number
    path, _ = bench_config(tmp_path, methods=[{"method": "stereo", "R": 2.0, "L": 2.0,
                                               "outer_iters": 3.0}])
    assert run_cli(capsys, "bench", "--config", str(path))[0] == 0


@pytest.mark.parametrize("overrides", [
    {"trials": 1.5}, {"seed_base": 0.7}, {"sri_dims": [12.9, 12, 10]},
    {"sri_rank": {"R": 2.6}}, {"sri_rank": {"R": 2, "L": 2.2}},
    {"kernel_size": 3.5}, {"ratio": 2.5}, {"offset": 0.5}, {"bands": 2.5},
    {"trials": None}, {"seed_base": float("nan")}, {"sri_dims": [12, None, 10]},
    {"sri_rank": {"R": float("inf")}}, {"trials": True},
], ids=repr)
def test_bench_refuses_non_integral_config_values(tmp_path, capsys, overrides):
    # these used to run truncated: 1.5 trials as 1, seed_base 0.7 as 0, a
    # 12.9-pixel side as 12 and R 2.6, L 2.2 as R2 L2
    path, _ = bench_config(tmp_path, **overrides)
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 1
    assert out == "" and err.startswith("error: ") and "integer" in err
    assert not (tmp_path / "table.csv").exists()


def test_bench_reads_integral_floats_as_ints(tmp_path, capsys):
    tables = []
    for number in (int, float):
        path, _ = bench_config(
            tmp_path, trials=number(2), seed_base=number(3), sri_dims=[number(15), 15, 8],
            sri_rank={"R": number(2), "L": number(2)}, kernel_size=number(3),
            ratio=number(3), offset=number(1), bands=number(4),
            methods=[{"method": "stereo", "R": number(2), "L": number(2),
                      "outer_iters": number(5)}],
        )
        assert run_cli(capsys, "bench", "--config", str(path))[0] == 0
        with open(tmp_path / "table.csv", newline="") as fh:
            tables.append([row[:-1] for row in csv.reader(fh)])  # not the runtime
    assert tables[0] == tables[1]


def test_bench_reads_settings_as_the_commands_do(tmp_path, capsys):
    # every degradation and fusion setting away from its default: one bench
    # trial and simulate + fuse + evaluate with the same seed see the same
    # data, so they must score alike
    seed = 11
    sri = tmp_path / "sri.btf"
    assert run_cli(capsys, "make-sri", "--out", str(sri), "--dims", "18", "18", "8",
                   "-R", "2", "-L", "2")[0] == 0
    degradation = {"kernel_size": 3, "sigma": 1.2, "ratio": 3, "offset": 1}
    fusion = {"L": 2, "outer_iters": 3, "inner_iters": 2, "rho": 1.5, "tol": 0,
              "init": "svd_warm"}
    path, _ = bench_config(
        tmp_path, seed_base=seed, sri_path=str(sri), bands=3, snr_db=25, **degradation,
        methods=[{"method": "cnn_btd", "R": 2, **fusion}],
    )
    assert run_cli(capsys, "bench", "--config", str(path))[0] == 0
    with open(tmp_path / "table.csv", newline="") as fh:
        row = list(csv.reader(fh))[1]

    deg_flags = ["--kernel", "3", "--sigma", "1.2", "--ratio", "3", "--offset", "1"]
    hsi, msi, est = (tmp_path / f"{name}.btf" for name in ("hsi", "msi", "est"))
    assert run_cli(capsys, "simulate", "--sri", str(sri), "--out-hsi", str(hsi),
                   "--out-msi", str(msi), *deg_flags, "--bands", "3", "--snr-db", "25",
                   "--seed", str(seed))[0] == 0
    assert run_cli(capsys, "fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", str(est),
                   "--method", "cnn_btd", "-R", "2", "-L", "2", "--outer-iters", "3",
                   "--inner-iters", "2", "--rho", "1.5", "--tol", "0", "--init", "svd_warm",
                   "--seed", str(seed), *deg_flags)[0] == 0
    code, out, _ = run_cli(capsys, "evaluate", "--ref", str(sri), "--est", str(est),
                           "--ratio", "3")
    assert code == 0
    report = last_json(out)
    assert row[1] == "1"
    assert row[2:6] == [f"{report[k]:.6g}" for k in ("r_snr_db", "cc", "sam_rad", "ergas")]


def test_bench_non_finite_sri_exit_2(tmp_path, capsys):
    sri = np.random.default_rng(4).uniform(size=(15, 15, 8))
    sri[3, 4, 5] = np.nan
    write_tensor(tmp_path / "sri.btf", sri)
    path, _ = bench_config(tmp_path, sri_path=str(tmp_path / "sri.btf"))
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 2
    assert out == "" and "1 non-finite" in err
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("snr_db", [3100.0, -3300.0])
def test_bench_refuses_an_snr_past_the_float_range(tmp_path, capsys, snr_db):
    # add_noise's OverflowError or ZeroDivisionError used to escape as a traceback
    path, _ = bench_config(tmp_path, snr_db=snr_db)
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: snr_db "), err
    assert not (tmp_path / "table.csv").exists()


def test_bench_refuses_an_image_past_the_index_range(tmp_path, capsys):
    # this image of 2*10^24 entries used to end in numpy's MemoryError
    path, _ = bench_config(tmp_path, sri_dims=[10**12, 10**12, 2], sri_rank={"R": 1, "L": 1})
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: sri_dims 1000000000000x1000000000000x2 exceed the "), err
    assert not (tmp_path / "table.csv").exists()


def _no_fusion(*args, **kwargs):
    raise AssertionError("a fusion ran before the output path was checked")


@pytest.mark.parametrize("command", ["make-sri", "simulate-hsi", "simulate-msi", "fuse",
                                     "bench"])
def test_commands_refuse_an_output_in_a_missing_folder_first(tmp_path, capsys, monkeypatch,
                                                              command):
    # fuse used to run the whole fusion and then name a temporary file, bench
    # ran every trial first, and simulate wrote the HSI before the MSI failed
    sri, hsi, msi, _ = make_pair(tmp_path, capsys, dims=(12, 12, 8))
    monkeypatch.setattr(btdfuse.cli, "bcd_fuse", _no_fusion)
    dest = str(tmp_path / "missing" / "out.btf")
    ok = {key: str(tmp_path / f"new_{key}.btf") for key in ("hsi", "msi")}
    simulate = ["simulate", "--sri", str(sri), "--kernel", "3", "--sigma", "1.5",
                "--ratio", "3", "--bands", "4", "--snr-db", "30"]
    argv = {
        "make-sri": ["make-sri", "--out", dest, "--dims", "6", "5", "4"],
        "simulate-hsi": [*simulate, "--out-hsi", dest, "--out-msi", ok["msi"]],
        "simulate-msi": [*simulate, "--out-hsi", ok["hsi"], "--out-msi", dest],
        "fuse": ["fuse", "--hsi", str(hsi), "--msi", str(msi), "--out", dest, "-R", "2",
                 "--kernel", "3", "--sigma", "1.5", "--ratio", "3"],
        "bench": ["bench", "--config", str(bench_config(tmp_path, output=dest)[0])],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: cannot write {dest}: no directory {os.path.dirname(dest)}\n"
    assert not any(os.path.exists(p) for p in ok.values())


def test_bench_refuses_an_output_that_is_not_a_path(tmp_path, capsys):
    # a number used to reach the table writer only after every trial
    path, _ = bench_config(tmp_path, output=5)
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 1 and out == ""
    assert err == "error: bench config needs an 'output' table path\n"


@pytest.mark.parametrize("sri_path", [5, True, ["a"]], ids=["int", "bool", "list"])
def test_bench_refuses_an_sri_path_that_is_not_a_path(tmp_path, capsys, monkeypatch, sri_path):
    # such a value used to reach read_tensor and end in a TypeError traceback
    path, _ = bench_config(tmp_path, sri_path=sri_path)
    fused = []
    monkeypatch.setattr(btdfuse.cli, "bcd_fuse", lambda *a: fused.append(a))
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 1 and out == ""
    assert err == "error: bench config's 'sri_path' must be a path string\n"
    assert fused == [] and not os.path.exists(tmp_path / "table.csv")


def test_bench_all_failures_exit_3(tmp_path, capsys):
    # every trial hits the stage-2 rank deficiency, so nothing completes
    path, _ = bench_config(
        tmp_path,
        sri_dims=[6, 6, 5],
        sri_rank={"R": 2, "L": 1},
        bands=2,
        methods=[{"method": "two_stage", "R": 5, "L": 1, "outer_iters": 5}],
    )
    code, out, err = run_cli(capsys, "bench", "--config", str(path))
    assert code == 3
    assert "failed" in err
    with open(tmp_path / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1] == "0"


def test_bench_continues_past_partial_failure(tmp_path, capsys):
    path, _ = bench_config(
        tmp_path,
        sri_dims=[6, 6, 5],
        sri_rank={"R": 2, "L": 1},
        bands=2,
        methods=[
            {"method": "two_stage", "R": 5, "L": 1, "outer_iters": 5},
            {"method": "stereo", "R": 2, "L": 1, "outer_iters": 10},
        ],
    )
    code, out, _ = run_cli(capsys, "bench", "--config", str(path))
    assert code == 0
    summary = last_json(out)
    assert summary["completed_runs"] == 1
    assert summary["failed_runs"] == 1


# ---------------------------------------------------------------------------
# the process entry


# {sri}, {hsi}, {msi} and {tmp} are the pair make_pair writes and its folder;
# the HSI of that pair has 2x2 coarse pixels, too few for five blocks in
# two_stage's spectral recovery
PROCESS_CASES = [
    pytest.param(["make-sri", "--out", "{tmp}/s.btf", "--dims", "6", "5", "4", "-R", "2"],
                 0, id="ok-0"),
    pytest.param(["make-sri", "--out", "{tmp}/s.btf", "--dims", "6", "5", "4", "-R", "2",
                  "--seed", "-1"], 1, id="usage-1"),
    pytest.param(["evaluate", "--ref", "{sri}", "--est", "{tmp}/nope.btf", "--ratio", "3"],
                 2, id="io-2"),
    pytest.param(["fuse", "--hsi", "{hsi}", "--msi", "{msi}", "--out", "{tmp}/est.btf",
                  "--method", "two_stage", "-R", "5", "-L", "1", "--kernel", "3",
                  "--sigma", "1.5", "--ratio", "3"], 3, id="numerical-3"),
    # sizes no machine holds used to end in a traceback: numpy's MemoryError
    # (a 6x(2*10^15) factor, the first factor of a 10^12 x 10^12 x 2 image) or
    # its ValueError past its index range (sum(L) = 2*10^20, a 6x(2*10^18)
    # factor, an image of 4*10^21 entries)
    pytest.param(["fuse", "--hsi", "{hsi}", "--msi", "{msi}", "--out", "{tmp}/est.btf",
                  "-R", "2", "-L", "1000000000000000", "--kernel", "3", "--sigma", "1.5",
                  "--ratio", "3"], 1, id="memory-1"),
    pytest.param(["fuse", "--hsi", "{hsi}", "--msi", "{msi}", "--out", "{tmp}/est.btf",
                  "-R", "2", "-L", "100000000000000000000", "--kernel", "3", "--sigma", "1.5",
                  "--ratio", "3"], 1, id="sum-l-past-index-1"),
    pytest.param(["fuse", "--hsi", "{hsi}", "--msi", "{msi}", "--out", "{tmp}/est.btf",
                  "-R", "2", "-L", "1000000000000000000", "--kernel", "3", "--sigma", "1.5",
                  "--ratio", "3"], 1, id="factor-past-index-1"),
    pytest.param(["make-sri", "--out", "{tmp}/s.btf", "--dims", "1000000000000000000000", "2",
                  "2", "-R", "1", "-L", "1"], 1, id="dims-past-index-1"),
    pytest.param(["make-sri", "--out", "{tmp}/s.btf", "--dims", "1000000000000",
                  "1000000000000", "2", "-R", "1", "-L", "1"], 1, id="sides-past-index-1"),
    # a bench sri_path of 5 used to end in read_tensor's TypeError traceback
    pytest.param(["bench", "--config", "{bench_sri_5}"], 1, id="bench-sri-path-1"),
]


@pytest.mark.parametrize("argv, want", PROCESS_CASES)
def test_process_exit_codes(tmp_path, capsys, argv, want):
    # python -m btdfuse.cli runs main(), which freezes the collector before
    # entry() and leaves through sys.exit
    sri, hsi, msi, _ = make_pair(tmp_path, capsys, dims=(6, 6, 5), blocks=2,
                                 block_rank=1, ratio=3, sigma=1.5, bands=2)
    bench_sri_5, _ = bench_config(tmp_path, sri_path=5)
    paths = {"sri": sri, "hsi": hsi, "msi": msi, "tmp": tmp_path, "bench_sri_5": bench_sri_5}
    src = os.path.dirname(os.path.dirname(os.path.abspath(btdfuse.cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "btdfuse.cli",
                           *(a.format(**paths) for a in argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == want, proc.stderr
    if want == 0:
        assert isinstance(json.loads(proc.stdout), dict)
    else:
        assert proc.stdout == ""
        # fuse may warn on identifiability before it fails
        assert proc.stderr.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in proc.stderr


def test_only_main_freezes_the_collector(tmp_path, capsys, monkeypatch):
    # freezing is process-global, so neither the library nor entry() may do it
    assert gc.get_freeze_count() == 0
    code, _, _ = run_cli(capsys, "make-sri", "--out", str(tmp_path / "s.btf"),
                         "--dims", "6", "5", "4", "-R", "2")
    assert code == 0
    assert gc.get_freeze_count() == 0
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(btdfuse.cli, "entry", lambda argv=None: calls.append("entry") or 0)
    with pytest.raises(SystemExit) as exc:
        btdfuse.cli.main()
    assert exc.value.code == 0
    assert calls == ["freeze", "entry"]
