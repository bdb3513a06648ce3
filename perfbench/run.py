"""The btdfuse benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cnn-btd --seed 1 --seconds 30 --trace 0

``--workload`` is one of the names in ``perfbench/schema.json`` or ``all``.
Every workload is generated from ``--seed`` alone and runs the program from
``src`` in fresh single-process interpreters (BLAS pinned to one thread), for
about ``--seconds`` seconds.  Every fusion output is checked (see
``checks.py``); a failed check is printed with its workload, operation and
reason and makes the exit code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs traced
interpreters (every public btdfuse function wrapped in a timing span, see
``tracing.py``) alternating with untraced ones, and reports the per-layer
metrics, each the mean over the traced round trips.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; details, provenance and spans go to
``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SCHEMA_PATH = os.path.join(HERE, "schema.json")
OUT_DIR = ".perfbench"
SEED_ROLES = ("sri", "hsi_noise", "msi_noise", "noise", "init", "perturb")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Each run fuses this many data instances, all derived from its seed: one per
# in-process interpreter, one per CLI round trip (cycled).  The quality
# metrics are means over the instances, which keeps their run-to-run spread
# well inside their bounds although single instances differ by several percent.
INSTANCES = 8
QUALITY_KEYS = ("nrmse", "sam_rad", "objective_final")
CHILD_TIMEOUT_S = 150.0
PAGE_CACHE_NOTE = ("tensor files are read back from the page cache: the benchmark "
                   "cannot drop it, so tensorfile times are memory-bandwidth times")


def load_schema() -> dict:
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def workload_params(schema: dict, name: str) -> dict:
    for wl in schema["workloads"]:
        if wl["name"] == name:
            return {**schema["common"], **wl["params"], "kind": wl["kind"]}
    raise KeyError(name)


def derive_seeds(seed: int, instance: int) -> dict:
    """The per-role seeds (SRI, noise, init, perturbation) of one data instance."""
    return {role: int.from_bytes(
                hashlib.sha256(f"{seed}:{instance}:{role}".encode()).digest()[:4], "little")
            for role in SEED_ROLES}


def child_env(root: str, blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads)
    return env


class Child:
    """A finished subprocess: exit code, output, wall time and peak RSS."""

    def __init__(self, argv, env, out_dir, tag):
        out_path = os.path.join(out_dir, f"{tag}.out")
        err_path = os.path.join(out_dir, f"{tag}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.t_spawn = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            # os.wait4 gives this child's own peak RSS; the watchdog bounds the wait
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            self.t_end = time.perf_counter()
            proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = self.t_end - self.t_spawn
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()

    def json_output(self):
        """The one JSON document the child printed: a manifest or a worker report."""
        return json.loads(self.stdout)


class Run:
    """State of one benchmark run: paths, environment, operations and failures."""

    def __init__(self, root, workload, seed, params, trace, perturb=0.0):
        self.root = root
        self.perturb = perturb  # relative size of a uniform perturbation of HSI and MSI
        self.workload = workload
        self.seed = seed
        self.params = params
        self.run_id = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.env = child_env(root, params["blas_threads"])
        self.tmp = os.path.join(root, OUT_DIR, f"tmp-{self.run_id}")
        os.makedirs(self.tmp, exist_ok=True)
        self.attempted = 0
        self.failures: list[str] = []
        self._n = 0

    def tag(self, what: str) -> str:
        self._n += 1
        return f"{self._n:03d}-{what}"

    def record(self, op: str, reasons) -> None:
        self.attempted += 1
        if reasons:
            msg = f"{self.workload} seed={self.seed} op={op}: " + "; ".join(reasons)
            print(f"CHECK FAILED {msg}", file=sys.stderr)
            self.failures.append(msg)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------- in-process


def inproc_worker(run: Run, instance: int, deadline: float, traced: bool, max_fuses: int):
    """One fresh interpreter fusing one instance; None when it produced no fusion."""
    tag = run.tag(f"i{instance}-" + ("traced" if traced else "worker"))
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "inproc"]
    spec = {"params": run.params, "seeds": derive_seeds(run.seed, instance),
            "deadline": deadline, "trace": traced, "max_fuses": max_fuses,
            "perturb": run.perturb, "run_id": run.run_id,
            # perf_counter is CLOCK_MONOTONIC, shared by every process, so the
            # worker can time itself from this spawn instant
            "t_spawn": time.perf_counter()}
    child = Child(argv + [json.dumps(spec)], run.env, run.tmp, tag)
    if child.returncode != 0:
        run.record(tag, [f"worker exited {child.returncode}: {child.stderr.strip()[-400:]}"])
        return None
    out = child.json_output()
    for k, sample in enumerate(out["samples"]):
        run.record(f"{tag}/fuse{k}", sample["failures"])
        sample["instance"] = instance
    if not any("fuse_s" in s for s in out["samples"]):
        return None
    return out


def run_inproc_untraced(run: Run, seconds: float) -> dict:
    start = time.perf_counter()
    workers = []
    for i in range(INSTANCES):
        deadline = start + seconds * (i + 1) / INSTANCES
        out = inproc_worker(run, i, deadline, traced=False, max_fuses=10**6)
        if out is not None:
            workers.append(out)
    samples = [s for w in workers for s in w["samples"] if "fuse_s" in s]
    return series(workers, samples)


def series(procs, samples) -> dict:
    """Timing samples as lists, quality as one value per instance."""
    if not samples:
        return {}
    out = {k: [p[k] for p in procs] for k in ("setup_s", "roundtrip_s", "peak_rss_mb")}
    out["fuse_s"] = [s["fuse_s"] for s in samples]
    first = {}
    for s in samples:
        first.setdefault(s["instance"], s)
    for k in QUALITY_KEYS + ("rsnr_db",):
        out[k] = [first[i][k] for i in sorted(first)]
    return out


def inproc_once(run: Run, instance: int, traced: bool):
    """One interpreter, one scored estimate: its fusion time, wall span and trace."""
    out = inproc_worker(run, instance, 0.0, traced, max_fuses=1)
    if out is None:
        return None
    return {"fuse_s": out["samples"][0]["fuse_s"], "wall": out["wall"], "dump": out.get("trace")}


def measure_traced(run: Run, seconds: float, once):
    """Alternate untraced and traced round trips until ``seconds`` are used.

    Returns the untraced fusion times and the traced round trips; at least
    one pair runs.
    """
    start = time.perf_counter()
    untraced, traced = [], []
    last = 0.0
    while not traced or time.perf_counter() - start + last < seconds:
        t0 = time.perf_counter()
        instance = len(traced) % INSTANCES
        plain = once(run, instance, False)
        out = once(run, instance, True)
        if plain is None or out is None:
            break
        untraced.append(plain["fuse_s"])
        traced.append(out)
        last = time.perf_counter() - t0
    return untraced, traced


# ---------------------------------------------------------------- CLI round trip


def cli_roundtrip(run: Run, instance: int, traced: bool):
    """make-sri, simulate, fuse, evaluate as four subprocesses; checked afterwards."""
    p, s = run.params, derive_seeds(run.seed, instance)
    f = {k: os.path.join(run.tmp, f"{k}.btf") for k in ("sri", "hsi", "msi", "est")}
    deg = ["--kernel", str(p["kernel"]), "--sigma", str(p["sigma"]), "--ratio", str(p["ratio"])]
    commands = [
        ("make_sri", ["make-sri", "--out", f["sri"], "--dims", *map(str, p["dims"]),
                      "-R", str(p["R"]), "-L", str(p["L"]), "--seed", str(s["sri"])]),
        ("simulate", ["simulate", "--sri", f["sri"], "--out-hsi", f["hsi"], "--out-msi", f["msi"],
                      *deg, "--bands", str(p["bands"]), "--snr-db", str(p["snr_db"]),
                      "--seed", str(s["noise"])]),
        ("fuse", ["fuse", "--hsi", f["hsi"], "--msi", f["msi"], "--out", f["est"],
                  "--method", p["method"], "-R", str(p["R"]), "-L", str(p["L"]), *deg,
                  "--outer-iters", str(p["sweeps"]), "--inner-iters", str(p["inner_iters"]),
                  "--rho", str(p["rho"]), "--tol", str(p["tol"]), "--seed", str(s["init"])]),
        ("evaluate", ["evaluate", "--ref", f["sri"], "--est", f["est"], "--ratio", str(p["ratio"])]),
    ]
    op = run.tag(f"i{instance}-" + ("traced-roundtrip" if traced else "roundtrip"))
    children, manifests, dumps = {}, {}, []
    for name, args in commands:
        if traced:
            spans_path = os.path.join(run.tmp, f"{op}-{name}.spans.json")
            argv = [sys.executable, os.path.join(HERE, "worker.py"), "cli", spans_path,
                    run.run_id, *args]
        else:
            argv = [sys.executable, "-m", "btdfuse.cli", *args]
        child = Child(argv, run.env, run.tmp, f"{op}-{name}")
        children[name] = child
        if child.returncode != 0:
            run.record(op, [f"{name} exited {child.returncode}: {child.stderr.strip()[-400:]}"])
            return None
        try:
            manifests[name] = child.json_output()
        except json.JSONDecodeError as exc:
            run.record(op, [f"{name} printed no parseable manifest: {exc}"])
            return None
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        if name == "simulate" and run.perturb:
            _perturb_files(f, run.perturb, s["perturb"])
    run.record(op, _check_cli(run, f, manifests))
    out = {
        "setup_s": children["make_sri"].wall_s + children["simulate"].wall_s,
        "fuse_s": children["fuse"].wall_s,
        "roundtrip_s": children["evaluate"].t_end - children["make_sri"].t_spawn,
        "instance": instance,
        "rsnr_db": manifests["evaluate"]["r_snr_db"],
        "nrmse": checks.nrmse(manifests["evaluate"]["r_snr_db"]),
        "sam_rad": manifests["evaluate"]["sam_rad"],
        "objective_final": manifests["fuse"]["final_objective"],
        "peak_rss_mb": max(c.peak_rss_mb for c in children.values()),
        "wall": [children["make_sri"].t_spawn, children["evaluate"].t_end],
    }
    if traced:
        out["dump"] = merge_dumps(dumps)
    return out


def _perturb_files(files, rel, seed):
    for k, key in enumerate(("hsi", "msi")):
        checks.write_hsrt(files[key], checks.perturb(checks.read_hsrt(files[key]), rel, seed + k))


def _check_cli(run: Run, files, manifests) -> list[str]:
    src = os.path.join(run.root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import btdfuse

    p = run.params
    try:
        est = checks.read_hsrt(files["est"])
        sri = checks.read_hsrt(files["sri"])
        hsi = checks.read_hsrt(files["hsi"])
        msi = checks.read_hsrt(files["msi"])
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    ops = btdfuse.make_degradation_ops(*p["dims"], K_M=p["bands"], kernel_size=p["kernel"],
                                       sigma=p["sigma"], d=p["ratio"])
    fuse = manifests["fuse"]
    return checks.check_fusion(
        p, estimate=est, trace_len=fuse["objective_trace_len"],
        trace_tail=[fuse["final_objective"]], factors=None, sri=sri, hsi=hsi, msi=msi,
        ops=(ops.P1, ops.P2, ops.P3), report_rsnr=manifests["evaluate"]["r_snr_db"],
    )


def merge_dumps(dumps) -> dict:
    """One trace from several processes' dumps, span ids made unique."""
    merged = {"run_id": dumps[0]["run_id"], "spans": [], "calls": {}, "errors": {},
              "bytes": {}, "jitter_retries": 0}
    for k, d in enumerate(dumps):
        for s in d["spans"]:
            merged["spans"].append(dict(
                s, id=f"{k}:{s['id']}",
                parent=None if s["parent"] is None else f"{k}:{s['parent']}"))
        for key in ("calls", "errors", "bytes"):
            for name, v in d[key].items():
                merged[key][name] = merged[key].get(name, 0) + v
        merged["jitter_retries"] += d.get("jitter_retries", 0)
    return merged


def run_cli_untraced(run: Run, seconds: float) -> dict:
    start = time.perf_counter()
    trips = []
    last = 0.0
    k = 0
    while k < INSTANCES or time.perf_counter() + last - start < seconds:
        t0 = time.perf_counter()
        out = cli_roundtrip(run, k % INSTANCES, traced=False)
        k += 1
        if out is not None:
            trips.append(out)
        last = time.perf_counter() - t0
    return series(trips, trips)


# ---------------------------------------------------------------- metrics


def percentile_with_tail(values, min_beyond=10):
    """Highest whole percentile with at least ``min_beyond`` samples above it."""
    n = len(values)
    if n <= min_beyond:
        return None
    pct = int(100 * (n - min_beyond) / n)
    return {"percentile": pct, "value": statistics.quantiles(values, n=100)[pct - 1], "n": n}


def layer_metrics(names, dump, wall) -> dict:
    """Per-layer values of one traced round trip; checks the time accounting."""
    spans = dump["spans"]
    selfs = tracing.layer_totals(spans)
    out = {}
    reported = 0.0
    for name in names:
        if name.startswith("trace."):
            continue
        if name == "solver.jitter_retries":
            out[name] = dump["jitter_retries"]
        elif name.startswith("cli."):
            span = "cli." + name[len("cli."):-len("_s")]
            out[name] = sum(s["end"] - s["start"] for s in spans if s["name"] == span)
        else:
            base, kind = name.rsplit(".", 1)
            if kind == "self_s":
                out[name] = selfs.get(base, 0.0)
                reported += out[name]
            else:
                out[name] = dump[kind].get(base, 0)
    reported += selfs.get("cli.import", 0.0)
    unatt = tracing.unattributed(spans, wall[0], wall[1])
    wall_s = wall[1] - wall[0]
    out["trace.unattributed_s"] = unatt
    out["trace.other_self_s"] = sum(selfs.values()) - reported
    out["trace.wall_s"] = wall_s
    gap = sum(selfs.values()) + unatt - wall_s
    if abs(gap) > 1e-6 * max(wall_s, 1.0):
        raise RuntimeError(f"self times plus unattributed miss the wall time by {gap:.3e} s")
    return out


def end_to_end(schema, series) -> dict:
    """Timing metrics are medians over samples; quality metrics means over instances."""
    metrics = {}
    for m in schema["end_to_end"]:
        agg = statistics.fmean if m["name"] in QUALITY_KEYS else statistics.median
        metrics[m["name"]] = {"value": agg(series[m["name"]]), "unit": m["unit"]}
    return metrics


def per_layer(schema, untraced_fuse, traced) -> dict:
    names = [m["name"] for m in schema["per_layer"]]
    units = {m["name"]: m["unit"] for m in schema["per_layer"]}
    rows = [layer_metrics(names, t["dump"], t["wall"]) for t in traced]
    metrics = {}
    for name in names:
        if name == "trace.overhead_frac":
            value = (statistics.median([t["fuse_s"] for t in traced])
                     / statistics.median(untraced_fuse) - 1.0)
        else:
            value = statistics.fmean(r[name] for r in rows)
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics


# ---------------------------------------------------------------- provenance


def _read(path) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def provenance(root: str, params: dict, seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": params["blas_threads"]},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "instance_seeds": [derive_seeds(seed, i) for i in range(INSTANCES)],
        "params": params,
        "page_cache": PAGE_CACHE_NOTE,
    }


# ---------------------------------------------------------------- entry point


def run_workload(root, schema, workload, seed, seconds, trace) -> dict:
    params = workload_params(schema, workload)
    run = Run(root, workload, seed, params, trace)
    try:
        detail = {"workload": workload}
        if trace:
            once = cli_roundtrip if params["kind"] == "cli" else inproc_once
            untraced, traced = measure_traced(run, seconds, once)
            metrics = per_layer(schema, untraced, traced) if traced else {}
            detail["traces"] = [t["dump"] for t in traced]
            detail["walls"] = [t["wall"] for t in traced]
        else:
            runner = run_cli_untraced if params["kind"] == "cli" else run_inproc_untraced
            samples = runner(run, seconds)
            metrics = end_to_end(schema, samples) if samples else {}
            detail["series"] = samples
            if samples:
                detail["fuse_s_tail"] = percentile_with_tail(samples["fuse_s"])
    finally:
        run.close()
    failed = len(run.failures)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": failed if run.attempted else 1,
        "metrics": metrics,
    }
    detail.update(result, failures=run.failures, provenance=provenance(root, params, seed))
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return result, detail


def print_human(workload, result, detail):
    for name, m in result["metrics"].items():
        print(f"{workload:14s} {name:42s} {m['value']:.6g} {m['unit']}")
    samples = detail.get("series")
    if samples:
        tail = detail["fuse_s_tail"]
        if tail:
            print(f"{workload:14s} fuse_s p{tail['percentile']} {tail['value']:.6g} s "
                  f"(n={tail['n']})")
        else:
            print(f"{workload:14s} fuse_s n={len(samples['fuse_s'])}: too few samples for a "
                  "percentile with ten beyond it")
        rsnr = samples["rsnr_db"]
        print(f"{workload:14s} rsnr_db per instance " + " ".join(f"{v:.4f}" for v in rsnr))
    frac = result["failed"] / result["attempted"]
    print(f"{workload:14s} failed_frac {frac:.6g} ({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    schema = load_schema()
    names = [wl["name"] for wl in schema["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "btdfuse", "__init__.py")):
        print("error: run from the repository root; src/btdfuse is missing", file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for wl in workloads:
        result, detail = run_workload(root, schema, wl, args.seed, args.seconds, bool(args.trace))
        print_human(wl, result, detail)
        results[wl] = result
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}/{k}": v for wl, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
