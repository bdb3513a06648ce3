"""Command-line workflows: simulate, fuse, evaluate, bench, make-sri.

Each command prints a JSON manifest on standard output and uses exit codes
0 (ok), 1 (usage), 2 (I/O or file format), 3 (numerical failure).
Degradation operators are reconstructed from flags on every run; image files
never carry them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from .degradation import (
    NoiseSpec,
    add_noise,
    apply_degradation,
    load_srf_csv,
    make_degradation_ops,
)
from .errors import FormatError, NumericalError, UsageError
from .metrics import compute_report
from .model import RankSpec, btd_reconstruct, check_coupled_identifiability
from .solver import METHODS, FusionConfig, bcd_fuse, init_factors
from .tensorfile import read_tensor, write_tensor

__all__ = ["main", "entry", "build_parser"]


def _rho_flag(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"rho must be a number or 'auto', got {text!r}")


def _add_degradation_flags(p: argparse.ArgumentParser):
    p.add_argument("--kernel", type=int, default=9, help="odd blur kernel size (default 9)")
    p.add_argument("--sigma", type=float, default=None,
                   help="blur standard deviation (default ratio/2)")
    p.add_argument("--ratio", type=int, default=5,
                   help="spatial downsampling ratio d (default 5)")
    p.add_argument("--offset", type=int, default=0,
                   help="0-based first retained pixel per axis (default 0)")
    p.add_argument("--srf-csv", default=None,
                   help="spectral response CSV (K_M rows x K_H columns); default uniform band averaging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btdfuse",
        description="Hyperspectral/multispectral image fusion by coupled nonnegative "
                    "block-term decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-sri", help="generate a synthetic nonnegative low-rank image")
    p.add_argument("--out", required=True, help="output tensor file")
    p.add_argument("--dims", type=int, nargs=3, required=True, metavar=("I", "J", "K"))
    p.add_argument("-R", "--blocks", type=int, default=3, help="number of blocks (default 3)")
    p.add_argument("-L", "--block-rank", type=int, default=2, help="rank per block (default 2)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_make_sri)

    p = sub.add_parser("simulate", help="degrade a reference image into an HSI/MSI pair")
    p.add_argument("--sri", required=True, help="reference tensor file")
    p.add_argument("--out-hsi", required=True)
    p.add_argument("--out-msi", required=True)
    _add_degradation_flags(p)
    p.add_argument("--bands", type=int, default=4,
                   help="MSI band count for the uniform response (default 4)")
    p.add_argument("--snr-db", type=float, default=30.0,
                   help="noise level in dB; 'inf' disables noise (default 30)")
    p.add_argument("--seed", type=int, default=0,
                   help="noise seed (HSI uses seed, MSI uses seed+1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuse", help="fuse an HSI/MSI pair into a super-resolution image")
    p.add_argument("--hsi", required=True)
    p.add_argument("--msi", required=True)
    p.add_argument("--out", required=True, help="output tensor file for the estimate")
    p.add_argument("--method", choices=METHODS, default="cnn_btd")
    p.add_argument("-R", "--blocks", type=int, required=True, help="number of blocks")
    p.add_argument("-L", "--block-rank", type=int, default=1, help="rank per block (default 1)")
    p.add_argument("--outer-iters", type=int, default=None,
                   help="sweeps (default 100 for stereo, 20 otherwise)")
    p.add_argument("--inner-iters", type=int, default=5)
    p.add_argument("--rho", type=_rho_flag, default="auto")
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=("random_uniform", "svd_warm"), default="random_uniform")
    _add_degradation_flags(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", help="compare an estimate against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--ratio", type=float, required=True,
                   help="spatial downsampling ratio d used by ERGAS")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="run a Monte Carlo comparison table from a JSON config")
    p.add_argument("--config", required=True, help="BenchConfig JSON file")
    p.set_defaults(func=cmd_bench)

    return parser


def _emit(manifest: dict):
    print(json.dumps(manifest, indent=2))


def _finite_or_str(x: float):
    return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")


def _realized_snr(clean, noisy) -> float | None:
    err = float(np.linalg.norm((clean - noisy).ravel()))
    if err == 0.0:
        return None
    sig = float(np.linalg.norm(clean.ravel()))
    return 10.0 * math.log10((sig / err) ** 2)


def cmd_make_sri(args) -> int:
    rank = RankSpec(args.blocks, args.block_rank)
    f = init_factors(tuple(args.dims), rank, args.seed, "random_uniform")
    sri = btd_reconstruct(f)
    write_tensor(args.out, sri)
    _emit({
        "command": "make-sri",
        "out": args.out,
        "dims": list(sri.shape),
        "blocks": args.blocks,
        "block_rank": args.block_rank,
        "seed": args.seed,
    })
    return 0


def _build_ops(i_m, j_m, k_h, k_m, args, srf):
    return make_degradation_ops(
        i_m, j_m, k_h,
        K_M=k_m,
        kernel_size=args.kernel,
        sigma=args.sigma,
        d=args.ratio,
        offset=args.offset,
        srf=srf,
        srf_source=args.srf_csv if args.srf_csv else "uniform",
    )


def cmd_simulate(args) -> int:
    sri = read_tensor(args.sri)
    i, j, k = sri.shape
    srf = None
    bands = args.bands
    if args.srf_csv:
        srf = load_srf_csv(args.srf_csv, K_H=k)
        bands = srf.shape[0]
    ops = _build_ops(i, j, k, bands, args, srf)
    hsi, msi = apply_degradation(sri, ops)
    hsi_noisy = add_noise(hsi, NoiseSpec(args.snr_db, args.seed))
    msi_noisy = add_noise(msi, NoiseSpec(args.snr_db, args.seed + 1))
    write_tensor(args.out_hsi, hsi_noisy)
    write_tensor(args.out_msi, msi_noisy)
    _emit({
        "command": "simulate",
        "hsi": {
            "path": args.out_hsi,
            "dims": list(hsi_noisy.shape),
            "realized_snr_db": _realized_snr(hsi, hsi_noisy),
        },
        "msi": {
            "path": args.out_msi,
            "dims": list(msi_noisy.shape),
            "realized_snr_db": _realized_snr(msi, msi_noisy),
        },
        "parameters": {
            "kernel_size": args.kernel,
            "sigma": args.sigma if args.sigma is not None else args.ratio / 2.0,
            "ratio": args.ratio,
            "offset": args.offset,
            "bands": bands,
            "snr_db": _finite_or_str(args.snr_db),
            "seed": args.seed,
        },
    })
    return 0


def _read_finite(path, purpose: str):
    """``read_tensor(path)``, rejecting NaN/Inf entries with FormatError."""
    t = read_tensor(path)
    bad = t.size - int(np.count_nonzero(np.isfinite(t)))
    if bad:
        raise FormatError(
            f"{path}: {bad} non-finite entries (NaN or Inf); {purpose} needs finite data"
        )
    return t


def cmd_fuse(args) -> int:
    hsi = _read_finite(args.hsi, "fusion")
    msi = _read_finite(args.msi, "fusion")
    i_m, j_m, k_m = msi.shape
    i_h, j_h, k_h = hsi.shape
    srf = None
    if args.srf_csv:
        srf = load_srf_csv(args.srf_csv, K_H=k_h, K_M=k_m)
    ops = _build_ops(i_m, j_m, k_h, k_m, args, srf)
    if ops.P1.shape[0] != i_h or ops.P2.shape[0] != j_h:
        raise UsageError(
            f"HSI spatial dims {i_h}x{j_h} do not match the degradation flags "
            f"(ratio={args.ratio}, offset={args.offset} over {i_m}x{j_m} gives "
            f"{ops.P1.shape[0]}x{ops.P2.shape[0]})"
        )
    rank = RankSpec(args.blocks, args.block_rank)
    check = check_coupled_identifiability(i_m, j_m, k_m, i_h, j_h, rank)
    if not check:
        print(
            "WARNING: recovery is not guaranteed unique for this geometry/rank; "
            "failed conditions: " + "; ".join(check.failed_clauses),
            file=sys.stderr,
        )
    outer = args.outer_iters
    if outer is None:
        outer = 100 if args.method == "stereo" else 20
    cfg = FusionConfig(
        method=args.method,
        rank=rank,
        outer_iters=outer,
        inner_iters=args.inner_iters,
        rho=args.rho,
        tol=args.tol,
        seed=args.seed,
        init=args.init,
    )
    result = bcd_fuse(hsi, msi, ops, cfg)
    write_tensor(args.out, result.sri_estimate)
    _emit({
        "command": "fuse",
        "method": result.method,
        "out": args.out,
        "dims": list(result.sri_estimate.shape),
        "blocks": args.blocks,
        "block_rank": args.block_rank,
        "iters_run": result.iters_run,
        "objective_trace_len": len(result.objective_trace),
        "final_objective": result.objective_trace[-1],
        "wall_time_s": result.wall_time,
    })
    return 0


def cmd_evaluate(args) -> int:
    ref = _read_finite(args.ref, "scoring")
    est = _read_finite(args.est, "scoring")
    report = compute_report(ref, est, args.ratio)
    _emit(report.as_dict())
    return 0


def _bench_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise UsageError("bench config must be a JSON object")
    cfg = {
        "trials": int(raw.get("trials", 1)),
        "snr_db": float(raw.get("snr_db", 30.0)),
        "seed_base": int(raw.get("seed_base", 0)),
        "output": raw.get("output"),
        "sri_path": raw.get("sri_path"),
        "sri_dims": raw.get("sri_dims"),
        "sri_rank": raw.get("sri_rank"),
        "kernel_size": int(raw.get("kernel_size", 9)),
        "sigma": raw.get("sigma"),
        "ratio": int(raw.get("ratio", 5)),
        "offset": int(raw.get("offset", 0)),
        "bands": int(raw.get("bands", 4)),
        "srf_csv": raw.get("srf_csv"),
        "methods": raw.get("methods"),
    }
    if cfg["trials"] < 1:
        raise UsageError(f"trials must be >= 1, got {cfg['trials']}")
    if not cfg["output"]:
        raise UsageError("bench config needs an 'output' table path")
    if not cfg["methods"]:
        raise UsageError("bench config needs a nonempty 'methods' list")
    if cfg["sri_path"] is None and not (cfg["sri_dims"] and cfg["sri_rank"]):
        raise UsageError("bench config needs 'sri_path' or 'sri_dims' + 'sri_rank'")
    for m in cfg["methods"]:
        if m.get("method") not in METHODS:
            raise UsageError(f"unknown method in bench config: {m.get('method')!r}")
        if "R" not in m:
            raise UsageError(f"method entry {m.get('method')} needs 'R'")
    return cfg


def _method_label(m: dict) -> str:
    return m.get("label", f"{m['method']}(R={m['R']},L={m.get('L', 1)})")


def _write_table(path: str, header: list, rows: list):
    if path.endswith(".md"):
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(" --- " for _ in header) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        text = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def cmd_bench(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed bench config {args.config}: {exc}") from exc
    cfg = _bench_config(raw)

    if cfg["sri_path"]:
        sri = read_tensor(cfg["sri_path"])
    else:
        dims = tuple(int(d) for d in cfg["sri_dims"])
        rank = RankSpec(int(cfg["sri_rank"]["R"]), int(cfg["sri_rank"].get("L", 1)))
        sri = btd_reconstruct(init_factors(dims, rank, cfg["seed_base"], "random_uniform"))
    i, j, k = sri.shape
    srf = None
    bands = cfg["bands"]
    if cfg["srf_csv"]:
        srf = load_srf_csv(cfg["srf_csv"], K_H=k)
        bands = srf.shape[0]
    ops = make_degradation_ops(
        i, j, k, K_M=bands, kernel_size=cfg["kernel_size"], sigma=cfg["sigma"],
        d=cfg["ratio"], offset=cfg["offset"], srf=srf,
        srf_source=cfg["srf_csv"] or "uniform",
    )
    hsi_clean, msi_clean = apply_degradation(sri, ops)

    trials = cfg["trials"]
    stats = {_method_label(m): {"r_snr": [], "cc": [], "sam": [], "ergas": [],
                                "time": [], "failures": 0} for m in cfg["methods"]}
    for trial in range(trials):
        seed = cfg["seed_base"] + trial
        hsi = add_noise(hsi_clean, NoiseSpec(cfg["snr_db"], seed))
        msi = add_noise(msi_clean, NoiseSpec(cfg["snr_db"], seed + trials))
        for m in cfg["methods"]:
            label = _method_label(m)
            method = m["method"]
            run_cfg = FusionConfig(
                method=method,
                rank=RankSpec(int(m["R"]), int(m.get("L", 1))),
                outer_iters=int(m.get("outer_iters", 100 if method == "stereo" else 20)),
                inner_iters=int(m.get("inner_iters", 5)),
                rho=m.get("rho", "auto"),
                tol=float(m.get("tol", 0.0)),
                seed=seed,
                init=m.get("init", "random_uniform"),
            )
            start = time.perf_counter()
            try:
                result = bcd_fuse(hsi, msi, ops, run_cfg)
                report = compute_report(sri, result.sri_estimate, cfg["ratio"])
            except (UsageError, NumericalError) as exc:
                stats[label]["failures"] += 1
                print(f"trial {trial} {label}: failed: {exc}", file=sys.stderr)
                continue
            stats[label]["time"].append(time.perf_counter() - start)
            stats[label]["r_snr"].append(report.r_snr_db)
            stats[label]["cc"].append(report.cc)
            stats[label]["sam"].append(report.sam_rad)
            stats[label]["ergas"].append(report.ergas)

    header = ["method", "trials_ok", "r_snr_db", "cc", "sam_rad", "ergas", "runtime_s"]
    rows = []
    total_ok = 0
    for m in cfg["methods"]:
        label = _method_label(m)
        st = stats[label]
        ok = len(st["r_snr"])
        total_ok += ok
        if ok:
            rows.append([
                label, str(ok),
                f"{np.mean(st['r_snr']):.6g}", f"{np.mean(st['cc']):.6g}",
                f"{np.mean(st['sam']):.6g}", f"{np.mean(st['ergas']):.6g}",
                f"{np.mean(st['time']):.3g}",
            ])
        else:
            rows.append([label, "0", "nan", "nan", "nan", "nan", "nan"])
    _write_table(cfg["output"], header, rows)
    _emit({
        "command": "bench",
        "output": cfg["output"],
        "trials": trials,
        "methods": [_method_label(m) for m in cfg["methods"]],
        "completed_runs": total_ok,
        "failed_runs": trials * len(cfg["methods"]) - total_ok,
    })
    return 3 if total_ok == 0 else 0


def entry(argv=None) -> int:
    """Parse and run one command, mapping failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; usage problems are exit 1 here
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # covers missing/unreadable files and FormatError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(entry())


if __name__ == "__main__":
    main()
