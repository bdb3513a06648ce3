"""One fresh interpreter of the benchmark.

Two modes, both started by ``run.py`` with ``src`` on ``PYTHONPATH``:

``worker.py inproc SPEC_JSON``
    Builds one in-process workload from its derived seeds (import, operators,
    synthetic SRI, degradation, noise), then calls ``bcd_fuse`` and
    ``compute_report`` until the spec's deadline, checking every result.
    Prints one JSON line with the timings, the quality numbers, the check
    failures and, when traced, the spans.

``worker.py cli SPANS_PATH RUN_ID ARGS...``
    Runs one ``btdfuse`` command under tracing and writes its spans to
    SPANS_PATH; the exit code is the command's.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import warnings

import tracing


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _jitter_retries(caught) -> int:
    return sum(1 for w in caught
               if issubclass(w.category, RuntimeWarning) and "jitter" in str(w.message))


def run_inproc(spec: dict) -> dict:
    t_spawn = spec["t_spawn"]
    tracer = tracing.Tracer(spec["run_id"]) if spec["trace"] else None
    if tracer is not None:
        with tracer.span("cli.import"):
            import btdfuse as bf
        patches = tracing.install(tracer)
    else:
        import btdfuse as bf
    # imported after btdfuse so that the import span holds all of numpy's import
    import checks

    p, seeds = spec["params"], spec["seeds"]
    # the steps of the CLI round trip, done in-process; spans only when traced
    phase = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dims = tuple(p["dims"])
        rank = bf.RankSpec(p["R"], p["L"])
        with phase("cli.make_sri"):
            sri = bf.btd_reconstruct(bf.init_factors(dims, rank, seeds["sri"], "random_uniform"))
        with phase("cli.simulate"):
            ops = bf.make_degradation_ops(*dims, K_M=p["bands"], kernel_size=p["kernel"],
                                          sigma=p["sigma"], d=p["ratio"])
            hsi, msi = bf.apply_degradation(sri, ops)
            hsi = bf.add_noise(hsi, bf.NoiseSpec(p["snr_db"], seeds["hsi_noise"]))
            msi = bf.add_noise(msi, bf.NoiseSpec(p["snr_db"], seeds["msi_noise"]))
        if spec["perturb"]:
            hsi = checks.perturb(hsi, spec["perturb"], seeds["perturb"])
            msi = checks.perturb(msi, spec["perturb"], seeds["perturb"] + 1)
        t_ready = time.perf_counter()
        cfg = bf.FusionConfig(method=p["method"], rank=rank, outer_iters=p["sweeps"],
                              inner_iters=p["inner_iters"], rho=p["rho"], tol=p["tol"],
                              seed=seeds["init"])
        out = {"setup_s": t_ready - t_spawn, "samples": []}
        while True:
            t0 = time.perf_counter()
            try:
                with phase("cli.fuse"):
                    result = bf.bcd_fuse(hsi, msi, ops, cfg)
                t1 = time.perf_counter()
                with phase("cli.evaluate"):
                    report = bf.compute_report(sri, result.sri_estimate, p["ratio"])
            except Exception as exc:  # a failed operation is counted, not fatal
                out["samples"].append({"failures": [f"{type(exc).__name__}: {exc}"]})
                break
            t2 = time.perf_counter()
            if "roundtrip_s" not in out:
                out["roundtrip_s"] = t2 - t_spawn
                out["peak_rss_mb"] = _peak_rss_mb()
                out["wall"] = [t_spawn, t2]
            if tracer is not None:
                tracing.uninstall(patches)
            f = result.factors
            failures = checks.check_fusion(
                p, estimate=result.sri_estimate, trace_len=len(result.objective_trace),
                trace_tail=list(result.objective_trace),
                factors=(f.A, f.B, f.C, f.rank.L), sri=sri, hsi=hsi, msi=msi,
                ops=(ops.P1, ops.P2, ops.P3), report_rsnr=report.r_snr_db,
            )
            out["samples"].append({
                "fuse_s": t1 - t0,
                "rsnr_db": report.r_snr_db,
                "nrmse": checks.nrmse(report.r_snr_db),
                "sam_rad": report.sam_rad,
                "objective_final": result.objective_trace[-1],
                "failures": failures,
            })
            # a traced worker makes exactly one scored estimate
            if tracer is not None or len(out["samples"]) >= spec["max_fuses"]:
                break
            if time.perf_counter() + (time.perf_counter() - t0) > spec["deadline"]:
                break
    if tracer is not None:
        out["trace"] = dict(tracer.dump(), jitter_retries=_jitter_retries(caught))
    return out


def run_cli(spans_path: str, run_id: str, argv: list[str]) -> int:
    tracer = tracing.Tracer(run_id)
    with tracer.span("cli.import"):
        import btdfuse.cli
    tracing.install(tracer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer.span("cli." + argv[0].replace("-", "_")):
            rc = btdfuse.cli.entry(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(dict(tracer.dump(), jitter_retries=_jitter_retries(caught)), fh)
    return rc


def main(argv: list[str]) -> int:
    if argv[0] == "inproc":
        print(json.dumps(run_inproc(json.loads(argv[1]))))
        return 0
    if argv[0] == "cli":
        return run_cli(argv[1], argv[2], argv[3:])
    print(f"unknown worker mode {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
