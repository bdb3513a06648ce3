"""Command-line workflows: simulate, fuse, evaluate, bench, make-sri.

Each command prints a JSON manifest on standard output and uses exit codes
0 (ok), 1 (usage), 2 (I/O or file format), 3 (numerical failure).
Degradation operators are reconstructed from flags on every run; image files
never carry them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import math
import sys
import time
from collections import namedtuple

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
from .solver import INIT_STRATEGIES, METHODS, FusionConfig, bcd_fuse, init_factors
from .tensor_ops import _check_dims, _check_int, _check_real, frob_norm
from .tensorfile import read_tensor, write_tensor

__all__ = ["main", "entry", "build_parser"]


_Setting = namedtuple("_Setting", "flags type default help choices", defaults=(None,))
_FUSION = FusionConfig()
# the settings of a run, keyed by their `bench` key, which is also their
# argparse dest.  The first seven, the degradation, are flags of `simulate`
# and top-level keys of a bench config; the rest are flags of `fuse` and keys
# of a bench method entry, with FusionConfig's defaults.  None as outer_iters
# means 100 sweeps for stereo and FusionConfig's count otherwise.
_SETTINGS = {
    "kernel_size": _Setting(("--kernel",), int, 9, "odd blur kernel size (default %(default)s)"),
    "sigma": _Setting(("--sigma",), float, None, "blur standard deviation (default ratio/2)"),
    "ratio": _Setting(("--ratio",), int, 5, "spatial downsampling ratio d (default %(default)s)"),
    "offset": _Setting(("--offset",), int, 0,
                       "0-based first retained pixel per axis (default %(default)s)"),
    "srf_csv": _Setting(("--srf-csv",), str, None, "spectral response CSV (K_M rows x K_H "
                        "columns); default uniform band averaging"),
    "bands": _Setting(("--bands",), int, 4,
                      "MSI band count for the uniform response (default %(default)s)"),
    "snr_db": _Setting(("--snr-db",), float, 30.0,
                       "noise level in dB; 'inf' disables noise (default %(default)g)"),
    "L": _Setting(("-L", "--block-rank"), int, _FUSION.rank.L[0],
                  "rank per block (default %(default)s)"),
    "outer_iters": _Setting(("--outer-iters",), int, None,
                            f"sweeps (default 100 for stereo, {_FUSION.outer_iters} otherwise)"),
    "inner_iters": _Setting(("--inner-iters",), int, _FUSION.inner_iters,
                            "ADMM steps per block update (default %(default)s)"),
    # a string, so that _fusion_config rejects a bad number with an error line
    "rho": _Setting(("--rho",), str, _FUSION.rho,
                    "ADMM penalty: a number or 'auto' (default %(default)s)"),
    "tol": _Setting(("--tol",), float, _FUSION.tol, "relative objective change between "
                    "sweeps that stops early; 0 never stops (default %(default)g)"),
    "init": _Setting(("--init",), str, _FUSION.init, "starting factors (default %(default)s)",
                     tuple(s for s in INIT_STRATEGIES if s != "provided")),
}
_DEGRADATION_KEYS = tuple(_SETTINGS)[:7]
_FUSION_KEYS = tuple(_SETTINGS)[7:]
# the other top-level keys of a `bench` config
_BENCH_KEYS = ("trials", "seed_base", "output", "sri_path", "sri_dims", "sri_rank", "methods")


def _add_settings(p: argparse.ArgumentParser, keys):
    for key in keys:
        s = _SETTINGS[key]
        # the metavar argparse would derive from the long flag, not from the dest
        metavar = None if s.choices else s.flags[-1].lstrip("-").replace("-", "_").upper()
        p.add_argument(*s.flags, dest=key, type=s.type, default=s.default,
                       choices=s.choices, metavar=metavar, help=s.help)


def _settings(keys, values: dict) -> dict:
    """``values[k]`` for each of ``keys`` by its row's type; missing or None takes the default."""
    return {k: _SETTINGS[k].default if values.get(k) is None
            else _check_int(values[k], k) if _SETTINGS[k].type is int
            else _check_real(values[k], k) if _SETTINGS[k].type is float
            else _SETTINGS[k].type(values[k]) for k in keys}


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
    _add_settings(p, _DEGRADATION_KEYS)
    p.add_argument("--seed", type=int, default=0,
                   help="noise seed (HSI uses seed, MSI uses seed+1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuse", help="fuse an HSI/MSI pair into a super-resolution image")
    p.add_argument("--hsi", required=True)
    p.add_argument("--msi", required=True)
    p.add_argument("--out", required=True, help="output tensor file for the estimate")
    p.add_argument("--method", choices=METHODS, default="cnn_btd")
    p.add_argument("-R", "--blocks", type=int, required=True, help="number of blocks")
    _add_settings(p, _FUSION_KEYS)
    p.add_argument("--seed", type=int, default=0)
    _add_settings(p, _DEGRADATION_KEYS[:5])  # not bands or snr_db: the MSI gives K_M
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


def _noisy_entry(path, clean, noisy) -> dict:
    """Manifest entry of a written noisy tensor; its realized SNR is None without noise.

    Both norms are taken of the tensors scaled by the power of two of the
    clean tensor's largest entry, which is exact, so a clean norm past the
    float range still gives a finite ratio.
    """
    e = -math.frexp(float(np.abs(clean).max()))[1]
    err = frob_norm(np.ldexp(clean, e) - np.ldexp(noisy, e))
    snr = None if err == 0.0 else 20.0 * math.log10(frob_norm(np.ldexp(clean, e)) / err)
    return {"path": path, "dims": list(noisy.shape), "realized_snr_db": snr}


def _rank(R, L, shape) -> RankSpec:
    """``RankSpec(R, L)`` for an image of ``shape``; R is checked before L is broadcast to R blocks.

    No I x J x K tensor has a rank above min(IJ, IK, JK), so a larger R is
    refused as too large for the image.
    """
    i, j, k = shape
    most = min(i * j, i * k, j * k)
    if (R := _check_int(R, "R", 1)) > most:
        raise UsageError(f"R is too large for a {i}x{j}x{k} image, whose rank is at most "
                         f"{most}, got {R}")
    return RankSpec(R, L)


def _synthetic_sri(dims, R, L, seed, name):
    """The image of ``init_factors(dims, RankSpec(R, L), seed, "random_uniform")``.

    ``dims`` is checked as the setting ``name`` and R against the image.
    """
    dims = _check_dims(dims, name)
    return btd_reconstruct(init_factors(dims, _rank(R, L, dims), seed, "random_uniform"))


def cmd_make_sri(args) -> int:
    sri = _synthetic_sri(args.dims, args.blocks, args.block_rank, args.seed, "dims")
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


def _degradation_ops(shape, s, k_m=None):
    """Operators that degrade an SRI of ``shape`` as the degradation settings ``s`` say.

    The MSI band count is ``k_m`` when given, else the row count of
    ``s.srf_csv``, else ``s.bands``.
    """
    i, j, k = shape
    srf = load_srf_csv(s.srf_csv, K_H=k, K_M=k_m) if s.srf_csv else None
    return make_degradation_ops(
        i, j, k, K_M=k_m or (s.bands if srf is None else srf.shape[0]),
        kernel_size=s.kernel_size, sigma=s.sigma, d=s.ratio, offset=s.offset,
        srf=srf, srf_source=s.srf_csv if s.srf_csv else "uniform",
    )


def cmd_simulate(args) -> int:
    sri = read_tensor(args.sri)
    ops = _degradation_ops(sri.shape, args)
    hsi, msi = apply_degradation(sri, ops)
    hsi_noisy = add_noise(hsi, NoiseSpec(args.snr_db, args.seed))
    msi_noisy = add_noise(msi, NoiseSpec(args.snr_db, args.seed + 1))
    write_tensor(args.out_hsi, hsi_noisy)
    write_tensor(args.out_msi, msi_noisy)
    _emit({
        "command": "simulate",
        "hsi": _noisy_entry(args.out_hsi, hsi, hsi_noisy),
        "msi": _noisy_entry(args.out_msi, msi, msi_noisy),
        "parameters": {
            **{key: ops.params[key] for key in ("kernel_size", "sigma", "ratio", "offset")},
            "bands": ops.P3.shape[0],
            "snr_db": args.snr_db if args.snr_db < math.inf else "inf",  # NoiseSpec refuses -inf
            "seed": args.seed,
        },
    })
    return 0


def _fusion_config(entry: dict, seed: int, shape) -> FusionConfig:
    """The FusionConfig of a method entry for an image of ``shape``; a bad entry raises UsageError.

    ``entry`` holds "method", "R" and optionally "label" and the fusion
    settings; a setting that is missing or None takes its default.
    """
    method = entry.get("method")
    if entry.get("R") is None:
        raise UsageError(f"method entry {method} needs 'R'")
    unknown = set(entry) - {"method", "R", "label", *_FUSION_KEYS}
    if unknown:
        raise UsageError(f"method entry {method} has unknown keys {sorted(unknown)}")
    try:
        s = _settings(_FUSION_KEYS, entry)
        if s["outer_iters"] is None:
            s["outer_iters"] = 100 if method == "stereo" else _FUSION.outer_iters
        if s["rho"] != "auto":
            # a number, which may be written as a string, as the --rho flag gives it
            rho = entry["rho"]
            s["rho"] = float(rho) if isinstance(rho, str) else rho
        return FusionConfig(method=method, rank=_rank(entry["R"], s.pop("L"), shape), seed=seed,
                            **s)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad {method} settings: {exc}") from exc


def cmd_fuse(args) -> int:
    entry = {key: getattr(args, key) for key in ("method", *_FUSION_KEYS)} | {"R": args.blocks}
    # every setting is checked before the images are read, and R against their size after
    _fusion_config(dict(entry, R=min(args.blocks, 1)), args.seed, (1, 1, 1))
    hsi = read_tensor(args.hsi)
    msi = read_tensor(args.msi)
    i_m, j_m, k_m = msi.shape
    i_h, j_h, k_h = hsi.shape
    cfg = _fusion_config(entry, args.seed, (i_m, j_m, k_h))
    ops = _degradation_ops((i_m, j_m, k_h), args, k_m)
    if ops.P1.shape[0] != i_h or ops.P2.shape[0] != j_h:
        raise UsageError(
            f"HSI spatial dims {i_h}x{j_h} do not match the degradation flags "
            f"(ratio={args.ratio}, offset={args.offset} over {i_m}x{j_m} gives "
            f"{ops.P1.shape[0]}x{ops.P2.shape[0]})"
        )
    check = check_coupled_identifiability(i_m, j_m, k_m, i_h, j_h, cfg.rank)
    if not check:
        print(
            "WARNING: recovery is not guaranteed unique for this geometry/rank; "
            "failed conditions: " + "; ".join(check.failed_clauses),
            file=sys.stderr,
        )
    result = bcd_fuse(hsi, msi, ops, cfg)
    write_tensor(args.out, result.sri_estimate)
    _emit({
        "command": "fuse",
        "method": result.method,
        "out": args.out,
        "dims": list(result.sri_estimate.shape),
        "blocks": args.blocks,
        "block_rank": cfg.rank.L[0],
        "iters_run": result.iters_run,
        "objective_trace_len": len(result.objective_trace),
        "final_objective": result.objective_trace[-1],
        "wall_time_s": result.wall_time,
    })
    return 0


def cmd_evaluate(args) -> int:
    ref = read_tensor(args.ref)
    est = read_tensor(args.est)
    report = compute_report(ref, est, args.ratio)
    _emit(report.as_dict())
    return 0


def _bench_config(raw) -> argparse.Namespace:
    """Checked bench settings and the reference image ``sri``.

    ``runs`` maps each method entry's label to its FusionConfig.
    """
    if not isinstance(raw, dict):
        raise UsageError("bench config must be a JSON object")
    unknown = set(raw) - {*_BENCH_KEYS, *_DEGRADATION_KEYS}
    if unknown:
        raise UsageError(f"bench config has unknown keys {sorted(unknown)}")
    sri_rank = raw.get("sri_rank")
    if not raw.get("sri_path") and not (
        raw.get("sri_dims") and isinstance(sri_rank, dict) and "R" in sri_rank
    ):
        raise UsageError("bench config needs 'sri_path' or 'sri_dims' + 'sri_rank'")
    cfg = argparse.Namespace(**{key: raw.get(key) for key in _BENCH_KEYS},
                             **_settings(_DEGRADATION_KEYS, raw))
    cfg.trials = _check_int(raw.get("trials", 1), "trials", 1)
    cfg.seed_base = _check_int(raw.get("seed_base", 0), "seed_base", 0)
    if not cfg.output:
        raise UsageError("bench config needs an 'output' table path")
    methods = raw.get("methods")
    if not methods or not isinstance(methods, list):
        raise UsageError("bench config needs a nonempty 'methods' list")
    # a synthetic image drawn from seed_base was trial 0's start, so its seed
    # is 64 bits of a stream spawned from seed_base; a trial's seed
    # seed_base + t equals it only by a 1 in 2^64 chance
    cfg.sri = read_tensor(cfg.sri_path) if cfg.sri_path else _synthetic_sri(
        cfg.sri_dims, sri_rank["R"], sri_rank.get("L", 1), int(np.random.SeedSequence(
            cfg.seed_base, spawn_key=(1,)).generate_state(1, np.uint64)[0]), "sri_dims")
    cfg.runs = {}
    for m in methods:
        if not isinstance(m, dict):
            raise UsageError(f"method entry {m!r} must be a JSON object")
        run = _fusion_config(m, cfg.seed_base, cfg.sri.shape)
        label = str(m.get("label", f"{run.method}(R={run.rank.R},L={run.rank.L[0]})"))
        if label in cfg.runs:
            raise UsageError(f"two method entries are labelled {label!r}; give each a 'label'")
        cfg.runs[label] = run
    return cfg


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
    ops = _degradation_ops(cfg.sri.shape, cfg)
    hsi_clean, msi_clean = apply_degradation(cfg.sri, ops)

    trials = cfg.trials
    # per label, one (r_snr_db, cc, sam_rad, ergas, runtime_s) row per completed trial
    done = {label: [] for label in cfg.runs}
    for trial in range(trials):
        seed = cfg.seed_base + trial
        hsi = add_noise(hsi_clean, NoiseSpec(cfg.snr_db, seed))
        msi = add_noise(msi_clean, NoiseSpec(cfg.snr_db, seed + trials))
        for label, run_cfg in cfg.runs.items():
            start = time.perf_counter()
            try:
                result = bcd_fuse(hsi, msi, ops, dataclasses.replace(run_cfg, seed=seed))
                report = compute_report(cfg.sri, result.sri_estimate, cfg.ratio)
            except (UsageError, NumericalError) as exc:
                print(f"trial {trial} {label}: failed: {exc}", file=sys.stderr)
                continue
            done[label].append((report.r_snr_db, report.cc, report.sam_rad, report.ergas,
                                time.perf_counter() - start))

    header = ["method", "trials_ok", "r_snr_db", "cc", "sam_rad", "ergas", "runtime_s"]
    rows = []
    for label, runs in done.items():
        means = [np.mean(column) for column in zip(*runs)] or [math.nan] * 5
        rows.append([label, str(len(runs)), *(f"{m:.6g}" for m in means[:4]), f"{means[4]:.3g}"])
    total_ok = sum(len(runs) for runs in done.values())
    _write_table(cfg.output, header, rows)
    _emit({
        "command": "bench",
        "output": cfg.output,
        "trials": trials,
        "methods": list(cfg.runs),
        "completed_runs": total_ok,
        "failed_runs": trials * len(cfg.runs) - total_ok,
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
    except (UsageError, NumericalError, OSError) as exc:
        # OSError covers missing/unreadable files and FormatError
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 3 if isinstance(exc, NumericalError) else 2


def main():
    """The process entry: ``python -m btdfuse.cli`` and the ``btdfuse`` script.

    Every import is done by now, so freezing moves the import-time objects
    (numpy's included) out of the collector's reach; the full collections of
    interpreter shutdown then skip them, which saves tens of milliseconds per
    command.  ``entry`` does not freeze: freezing is process-global state, and
    callers that run commands in-process keep their collector as it was.
    """
    gc.freeze()
    sys.exit(entry())


if __name__ == "__main__":
    main()
