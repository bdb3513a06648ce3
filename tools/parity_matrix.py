"""Dump or compare the outputs of every fusion method on one fixed instance.

The matrix is {cnn_btd, cnn_cpd, stereo, two_stage} x {random_uniform,
svd_warm} x tol {0, 1e-3, 1e-2}, 40 sweeps each, on a noisy 30x30x24 pair
(R=3 L=2 from ``init_factors(seed=123)``, kernel 5, sigma 1.5, d 3, 4 bands,
30 dB noise with seeds 7 and 8, fusion seed 5), with one BLAS thread.  For
each of the 24 cases it saves the objective trace, ``iters_run``, the
estimate and the factors A, B, C: 144 arrays.

Usage::

    python tools/parity_matrix.py dump SRC_DIR OUT.npz
    python tools/parity_matrix.py compare BASE.npz NEW.npz

``dump`` imports ``btdfuse`` from ``SRC_DIR`` (for example the ``src`` of a
checkout of the parent commit).  ``compare`` lists every array that is not
equal under ``np.array_equal`` with its largest relative difference, and
exits 1 when any differs.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

METHODS = ("cnn_btd", "cnn_cpd", "stereo", "two_stage")
INITS = ("random_uniform", "svd_warm")
TOLS = (0.0, 1e-3, 1e-2)
FIELDS = ("trace", "iters_run", "estimate", "A", "B", "C")


def dump(src: str, out: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    import btdfuse as bf

    rank = bf.RankSpec(3, 2)
    sri = bf.btd_reconstruct(bf.init_factors((30, 30, 24), rank, 123, "random_uniform"))
    ops = bf.make_degradation_ops(30, 30, 24, K_M=4, kernel_size=5, sigma=1.5, d=3)
    hsi, msi = bf.apply_degradation(sri, ops)
    hsi = bf.add_noise(hsi, bf.NoiseSpec(30.0, 7))
    msi = bf.add_noise(msi, bf.NoiseSpec(30.0, 8))
    arrays = {}
    for method in METHODS:
        for init in INITS:
            for tol in TOLS:
                cfg = bf.FusionConfig(method=method, rank=rank, outer_iters=40,
                                      tol=tol, seed=5, init=init)
                res = bf.bcd_fuse(hsi, msi, ops, cfg)
                values = (np.asarray(res.objective_trace), np.asarray(res.iters_run),
                          res.sri_estimate, res.factors.A, res.factors.B, res.factors.C)
                for name, value in zip(FIELDS, values):
                    arrays[f"{method}/{init}/{tol:g}/{name}"] = value
    np.savez(out, **arrays)
    print(f"{out}: {len(arrays)} arrays from {src}")


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    scale = max(float(np.abs(a).max(initial=0.0)), 1e-300)
    return float(np.abs(a.astype(np.float64) - b).max(initial=0.0)) / scale


def compare(base: str, new: str) -> int:
    a, b = np.load(base), np.load(new)
    names = sorted(set(a.files) | set(b.files))
    differ = []
    for name in names:
        if name not in a.files or name not in b.files:
            differ.append((name, float("inf")))
        elif not np.array_equal(a[name], b[name]):
            differ.append((name, _rel_diff(a[name], b[name])))
    for name, rel in differ:
        print(f"differs: {name}  max |diff| / max |base| = {rel:.3e}")
    worst = max((rel for _, rel in differ), default=0.0)
    print(f"{len(names) - len(differ)} of {len(names)} arrays equal; "
          f"largest relative difference {worst:.3e}")
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "dump":
        dump(argv[1], argv[2])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
