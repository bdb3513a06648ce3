"""Dump or compare the outputs of every fusion method on one fixed instance.

The matrix is {cnn_btd, cnn_cpd, stereo, two_stage} x {random_uniform,
svd_warm} x tol {0, 1e-3, 1e-2}, 40 sweeps each, on a noisy 30x30x24 pair
(R=3 L=2 from ``init_factors(seed=123)``, kernel 5, sigma 1.5, d 3, 4 bands,
30 dB noise with seeds 7 and 8, fusion seed 5), with one BLAS thread.  For
each of the 24 cases it saves the objective trace, ``iters_run``, the
estimate and the factors A, B, C: 144 arrays.  Each method also runs once
with the uneven partition ``RankSpec(3, (1, 2, 3))`` from ``random_uniform``
with tol 0, saved under ``METHOD/L123/...``: 24 arrays more.  ``two_stage``
also runs twice more from ``random_uniform`` with tol 0, 12 arrays: with
``RankSpec(3, 11)`` under ``two_stage/L11/...``, whose sum(L) = 33 exceeds
the MSI's 30x30, so that stage 1 fits the MSI rotated in modes 1 and 2; and
with ``RankSpec(6, 2)`` under ``two_stage/R6L2/...``, whose sum(L) = 12 is
below 30 but whose core fit has 312 parameters, above the Levenberg-Marquardt
bound, so that stage 1 runs its sweeps alone on a compressed core.

``dump`` also runs the command line on a fixed script (``CLI_SCRIPT``):
``make-sri``; ``simulate`` with default and with explicit flags; ``fuse`` for
cnn_btd, stereo and two_stage and once with explicit ``--rho``, ``--tol`` and
``--inner-iters``; ``evaluate``; a two-method ``bench`` on ``make-sri``'s
image; a ``bench`` that draws its own image (``sri_dims``) and fuses it at
its rank over two trials, saved under ``cli/bench_synthetic/``.  Under names
starting ``cli/`` it saves each manifest's numeric fields as arrays and the
rest as one JSON string (without ``wall_time_s``), the float64 payload of
every tensor file in its dims, and each column of the bench table but its
runtime, as floats where every cell is a number.  So ``compare`` sizes a
numeric change on the command line as it does on the solver.  Last, it saves
``compute_report`` of the command line's ``sri``/``est_cnn_btd`` pair (ratio
3) with the pair in C, F and transposed-view layouts, under
``metrics/LAYOUT/FIELD``, so that ``compare`` also covers every layout the
metrics read.

Under ``workspace/RANK/BLOCK/RHO/...`` it saves what ``build_subproblem``
returns for blocks A, B and C at rho 0, "auto" and 2.5, from
``init_factors(..., seed 5, "random_uniform", msi=msi)`` at ``RankSpec(3, 2)``
(``L2``) and ``RankSpec(3, (1, 2, 3))`` (``L123``) on the same noisy pair:
H1..H4, H5_base, Z, rho and the form's flag and P, 162 arrays.  So
``compare`` sees a change to the assembly that the runs would hide.  Under
``objective/RANK/LAYOUT`` it saves ``objective()`` at the same two starts
with the pair in C and F layouts, 4 arrays, so that a change to the
objective itself shows directly, not only through ``final_objective`` and
the trace entries scored by the dense objective.

Under ``ops/`` it saves P1, P2 and P3 of ``make_degradation_ops(145, 145,
220, K_M=4, kernel_size=9, sigma=2.5, d=5)``, the benchmark's geometry, 3
arrays.  A change to the operators shows there directly, not only through
the runs at 30x30, where a last-bit change to the blur can leave every
solver array equal.

Usage::

    python tools/parity_matrix.py dump SRC_DIR OUT.npz
    python tools/parity_matrix.py compare BASE.npz NEW.npz [--rtol X]

``dump`` imports ``btdfuse`` from ``SRC_DIR`` (for example the ``src`` of a
checkout of the parent commit) and runs the command line with it on
``PYTHONPATH``.  ``compare`` lists every array that is not equal under
``np.array_equal`` with its largest relative difference, and every array
found on one side only as new or gone, counts the solver
arrays, the workspace and operator arrays, the command-line outputs and the
metric report fields apart, and exits 1 when any differs by more than ``X``
relative (default 0: every array must be equal).  An array missing on one
side, or differing in shape or in a non-numeric value, always fails.
"""

import csv
import json
import math
import os
import struct
import subprocess
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

METHODS = ("cnn_btd", "cnn_cpd", "stereo", "two_stage")
INITS = ("random_uniform", "svd_warm")
TOLS = (0.0, 1e-3, 1e-2)
FIELDS = ("trace", "iters_run", "estimate", "A", "B", "C")
WORKSPACE_FIELDS = ("H1", "H2", "H3", "H4", "H5_base", "Z", "rho")

DEG = ["--kernel", "5", "--sigma", "1.5", "--ratio", "3", "--offset", "1"]
BENCH = {
    "trials": 2, "seed_base": 4, "snr_db": 25, "output": "table.csv", "sri_path": "sri.btf",
    "kernel_size": 5, "sigma": 1.5, "ratio": 3, "offset": 1, "bands": 4,
    "methods": [{"method": "stereo", "R": 3, "outer_iters": 15},
                {"method": "cnn_btd", "R": 3, "L": 2, "outer_iters": 5, "init": "svd_warm"}],
}
# a bench that draws its own image, fused at the image's rank
BENCH_SYNTHETIC = {
    "trials": 2, "seed_base": 0, "snr_db": 40, "output": "table_synthetic.csv",
    "sri_dims": [30, 30, 24], "sri_rank": {"R": 3, "L": 2}, "kernel_size": 5, "ratio": 3,
    "bands": 4, "methods": [{"method": "cnn_btd", "R": 3, "L": 2, "outer_iters": 10}],
}
# each bench config's file name and where its table's columns are saved
BENCHES = ((BENCH, "bench.json", "cli/table.csv"),
           (BENCH_SYNTHETIC, "bench_synthetic.json", "cli/bench_synthetic/table"))
# the layouts compute_report is given the command line's image pair in
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    # neither C nor F: pixel columns slowest, each spectral fiber contiguous
    "view": lambda t: np.ascontiguousarray(t.transpose(1, 0, 2)).transpose(1, 0, 2),
}
# (name, argv) of each command, run in one scratch directory in this order
CLI_SCRIPT = (
    ("make_sri", ["make-sri", "--out", "sri.btf", "--dims", "30", "30", "24", "-R", "3",
                  "-L", "2"]),
    ("simulate_default", ["simulate", "--sri", "sri.btf", "--out-hsi", "hsi0.btf",
                          "--out-msi", "msi0.btf"]),
    ("simulate", ["simulate", "--sri", "sri.btf", "--out-hsi", "hsi.btf", "--out-msi",
                  "msi.btf", *DEG, "--bands", "4", "--snr-db", "30", "--seed", "7"]),
    ("fuse_default", ["fuse", "--hsi", "hsi0.btf", "--msi", "msi0.btf", "--out", "est0.btf",
                      "-R", "3"]),
    *((f"fuse_{m}", ["fuse", "--hsi", "hsi.btf", "--msi", "msi.btf", "--out", f"est_{m}.btf",
                     "--method", m, "-R", "3", "-L", "2", "--seed", "5", *DEG])
      for m in ("cnn_btd", "stereo", "two_stage")),
    ("fuse_explicit", ["fuse", "--hsi", "hsi.btf", "--msi", "msi.btf", "--out", "est_x.btf",
                       "-R", "3", "-L", "2", "--rho", "2.5", "--tol", "1e-3",
                       "--inner-iters", "3", "--outer-iters", "30", *DEG]),
    *((f"evaluate_{e}", ["evaluate", "--ref", "sri.btf", "--est", f"{e}.btf", "--ratio", "3"])
      for e in ("est_cnn_btd", "est_stereo", "est_two_stage", "est_x")),
    ("bench", ["bench", "--config", "bench.json"]),
    ("bench_synthetic", ["bench", "--config", "bench_synthetic.json"]),
)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _manifest_arrays(prefix: str, manifest: dict) -> dict:
    """Each numeric field (or list of numbers) of ``manifest`` as an array, the rest as JSON."""
    arrays, rest = {}, {}

    def walk(path, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{path}/{key}" if path else key, item)
        elif _is_number(value) or (
                isinstance(value, list) and value and all(map(_is_number, value))):
            arrays[f"{prefix}/{path}"] = np.asarray(value)
        else:
            rest[path] = value

    walk("", manifest)
    arrays[f"{prefix}/manifest"] = np.array(json.dumps(rest, sort_keys=True))
    return arrays


def _tensor_payload(path: str) -> np.ndarray:
    """The doubles of a tensor file, shaped by the dims in its header."""
    header = struct.Struct("<4sBQQQ")
    with open(path, "rb") as fh:
        _, _, *dims = header.unpack(fh.read(header.size))
        return np.frombuffer(fh.read(), dtype="<f8").reshape(dims, order="F")


def _table_columns(prefix: str, table: list) -> dict:
    """Each column of a table's rows as floats when every cell is a number, else as strings."""
    header, *rows = table
    arrays = {}
    for col, name in enumerate(header):
        cells = [row[col] for row in rows]
        try:
            arrays[f"{prefix}/{name}"] = np.array([float(c) for c in cells])
        except ValueError:
            arrays[f"{prefix}/{name}"] = np.array(cells)
    return arrays


def dump_cli(src: str) -> dict:
    """The command-line outputs of ``CLI_SCRIPT`` run with ``src`` on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config, fname, _ in BENCHES:
            with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        for name, argv in CLI_SCRIPT:
            run = subprocess.run([sys.executable, "-m", "btdfuse.cli", *argv], cwd=tmp, env=env,
                                 capture_output=True, text=True)
            if run.returncode != 0:
                raise SystemExit(f"{name} exited {run.returncode}: {run.stderr}")
            manifest = json.loads(run.stdout)
            manifest.pop("wall_time_s", None)
            arrays.update(_manifest_arrays(f"cli/{name}", manifest))
        for fname in sorted(os.listdir(tmp)):
            if fname.endswith(".btf"):
                arrays[f"cli/{fname}"] = _tensor_payload(os.path.join(tmp, fname))
        for config, _, prefix in BENCHES:
            with open(os.path.join(tmp, config["output"]), encoding="utf-8") as fh:
                table = [row[:-1] for row in csv.reader(fh)]
            arrays.update(_table_columns(prefix, table))
    return arrays


def dump_metrics(ref: np.ndarray, est: np.ndarray) -> dict:
    """``compute_report(ref, est, 3)``'s fields with the pair in each of ``LAYOUTS``."""
    from btdfuse import compute_report

    return {f"metrics/{name}/{field}": np.asarray(value)
            for name, layout in LAYOUTS.items()
            for field, value in compute_report(layout(ref), layout(est), 3).as_dict().items()}


def dump_workspaces(hsi: np.ndarray, msi: np.ndarray, ops) -> dict:
    """``build_subproblem``'s workspaces and ``objective()`` at the starts of the docstring."""
    import btdfuse as bf

    arrays = {}
    for label, rank in (("L2", bf.RankSpec(3, 2)), ("L123", bf.RankSpec(3, (1, 2, 3)))):
        f = bf.init_factors((30, 30, 24), rank, 5, "random_uniform", msi=msi)
        for layout in ("C", "F"):
            pair = (LAYOUTS[layout](t) for t in (hsi, msi))
            arrays[f"objective/{label}/{layout}"] = np.asarray(bf.objective(f, *pair, ops))
        for block in "ABC":
            for rho in (0.0, "auto", 2.5):
                w = bf.build_subproblem(block, f, hsi, msi, ops, rho)
                fields = {**{name: getattr(w, name) for name in WORKSPACE_FIELDS},
                          "transposed": w.form[0], "P": w.form[1]}
                for name, value in fields.items():
                    arrays[f"workspace/{label}/{block}/{rho}/{name}"] = np.asarray(value)
    return arrays


def dump_ops() -> dict:
    """P1, P2 and P3 at the benchmark's geometry, under ``ops/``."""
    import btdfuse as bf

    ops = bf.make_degradation_ops(145, 145, 220, K_M=4, kernel_size=9, sigma=2.5, d=5)
    return {f"ops/{name}": getattr(ops, name) for name in ("P1", "P2", "P3")}


def dump(src: str, out: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    import btdfuse as bf

    rank = bf.RankSpec(3, 2)
    sri = bf.btd_reconstruct(bf.init_factors((30, 30, 24), rank, 123, "random_uniform"))
    ops = bf.make_degradation_ops(30, 30, 24, K_M=4, kernel_size=5, sigma=1.5, d=3)
    hsi, msi = bf.apply_degradation(sri, ops)
    hsi = bf.add_noise(hsi, bf.NoiseSpec(30.0, 7))
    msi = bf.add_noise(msi, bf.NoiseSpec(30.0, 8))
    # (label, rank, init, tol) of each case, run for every method
    cases = [(f"{init}/{tol:g}", rank, init, tol) for init in INITS for tol in TOLS]
    cases.append(("L123/random_uniform/0", bf.RankSpec(3, (1, 2, 3)), "random_uniform", 0.0))
    # run by two_stage alone: sum(L) = 33 > 30 = I_M = J_M, and a compressed
    # core fit of 312 parameters, above the Levenberg-Marquardt bound
    only_two_stage = [("L11/random_uniform/0", bf.RankSpec(3, 11), "random_uniform", 0.0),
                      ("R6L2/random_uniform/0", bf.RankSpec(6, 2), "random_uniform", 0.0)]
    arrays = {}
    for method in METHODS:
        for label, case_rank, init, tol in cases + only_two_stage * (method == "two_stage"):
            cfg = bf.FusionConfig(method=method, rank=case_rank, outer_iters=40,
                                  tol=tol, seed=5, init=init)
            res = bf.bcd_fuse(hsi, msi, ops, cfg)
            values = (np.asarray(res.objective_trace), np.asarray(res.iters_run),
                      res.sri_estimate, res.factors.A, res.factors.B, res.factors.C)
            for name, value in zip(FIELDS, values):
                arrays[f"{method}/{label}/{name}"] = value
    arrays.update(dump_workspaces(hsi, msi, ops))
    arrays.update(dump_ops())
    arrays.update(dump_cli(src))
    arrays.update(dump_metrics(arrays["cli/sri.btf"], arrays["cli/est_cnn_btd.btf"]))
    np.savez(out, **arrays)
    print(f"{out}: {len(arrays)} arrays from {src}")


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape or a.dtype.kind not in "fi":
        return float("inf")
    scale = max(float(np.abs(a).max(initial=0.0)), 1e-300)
    return float(np.abs(a.astype(np.float64) - b).max(initial=0.0)) / scale


def compare(base: str, new: str, rtol: float = 0.0) -> int:
    a, b = np.load(base), np.load(new)
    names = sorted(set(a.files) | set(b.files))
    differ = []
    for name in names:
        if name not in a.files or name not in b.files:
            differ.append((name, float("inf")))
        elif not np.array_equal(a[name], b[name]):
            differ.append((name, _rel_diff(a[name], b[name])))
    for name, rel in differ:
        if name not in a.files or name not in b.files:
            print(f"{'new' if name in b.files else 'gone'}: {name}")
        else:
            print(f"differs: {name}  max |diff| / max |base| = {rel:.3e}")
    worst = max((rel for _, rel in differ), default=0.0)
    for kind, test in (("solver arrays",
                        lambda n: not n.startswith(("cli/", "metrics/", "workspace/", "ops/"))),
                       ("workspace arrays", lambda n: n.startswith("workspace/")),
                       ("operator arrays", lambda n: n.startswith("ops/")),
                       ("command-line outputs", lambda n: n.startswith("cli/")),
                       ("metric report fields", lambda n: n.startswith("metrics/"))):
        total = sum(map(test, names))
        equal = total - sum(test(n) for n, _ in differ)
        print(f"{equal} of {total} {kind} equal")
    print(f"largest relative difference {worst:.3e} (allowed {rtol:.3e})")
    return 1 if any(not rel <= rtol for _, rel in differ) else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "dump":
        dump(argv[1], argv[2])
        return 0
    if argv[:1] == ["compare"] and (len(argv) == 3 or len(argv) == 5 and argv[3] == "--rtol"):
        try:
            rtol = float(argv[4]) if len(argv) == 5 else 0.0
        except ValueError:
            rtol = math.nan
        if rtol >= 0:
            return compare(argv[1], argv[2], rtol)
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
