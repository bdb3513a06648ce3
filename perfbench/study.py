"""Quality on a second seed, and its sensitivity to rounding.

Run from the repository root::

    python3 perfbench/study.py --seeds 1 2 --perturb 1e-12

For every workload this fuses each of the run's data instances once per seed
(all output checks apply), then once more on the first seed with HSI and MSI
multiplied by ``1 + perturb * u``, ``u`` uniform on [-1, 1].  It prints the
quality numbers of the seeds side by side, and how far R-SNR, SAM and the
final objective move under the perturbation, so that a later change that
reorders floating-point work can tell rounding from regression.  The JSON
goes to ``.perfbench/study.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run as bench

QUALITY = ("rsnr_db", "nrmse", "sam_rad", "objective_final")


def quality(root, schema, workload, seed, perturb=0.0):
    params = bench.workload_params(schema, workload)
    r = bench.Run(root, workload, seed, params, trace=False, perturb=perturb)
    try:
        runner = bench.run_cli_untraced if params["kind"] == "cli" else bench.run_inproc_untraced
        series = runner(r, 0.0)
    finally:
        r.close()
    return {k: series.get(k, []) for k in QUALITY}, r.failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--perturb", type=float, default=1e-12)
    args = ap.parse_args(argv)
    root = os.getcwd()
    schema = bench.load_schema()
    names = [w["name"] for w in schema["workloads"]]
    report = {"seeds": args.seeds, "perturb": args.perturb, "workloads": {}}
    failures = []
    for wl in names:
        entry = {}
        for seed in args.seeds:
            entry[f"seed{seed}"], fails = quality(root, schema, wl, seed)
            failures += fails
        base = entry[f"seed{args.seeds[0]}"]
        pert, fails = quality(root, schema, wl, args.seeds[0], args.perturb)
        failures += fails
        entry["perturbed"] = pert
        entry["max_abs_change"] = {
            k: max(abs(a - b) for a, b in zip(base[k], pert[k])) for k in QUALITY
        }
        entry["max_rel_change"] = {
            k: max(abs(a - b) / abs(a) for a, b in zip(base[k], pert[k])) for k in QUALITY
        }
        report["workloads"][wl] = entry
        for seed in args.seeds:
            q = entry[f"seed{seed}"]
            print(f"{wl:14s} seed {seed:<4d} " + "  ".join(
                f"{k} {statistics.fmean(q[k]):.6g} [{min(q[k]):.4g}..{max(q[k]):.4g}]"
                for k in QUALITY))
        print(f"{wl:14s} perturb {args.perturb:g}: max relative change " + "  ".join(
            f"{k} {v:.3g}" for k, v in entry["max_rel_change"].items()))
    report["failures"] = failures
    report["provenance"] = bench.provenance(root, {"blas_threads": schema["common"]["blas_threads"]},
                                            args.seeds[0])
    os.makedirs(os.path.join(root, bench.OUT_DIR), exist_ok=True)
    with open(os.path.join(root, bench.OUT_DIR, "study.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"checks failed: {len(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
