"""One rule for every penalty, tolerance, blur width, SNR and ratio a caller passes.

Each entry point takes an int, a float or a numpy integer or floating scalar
and gives the same result for all of them.  None, a bool, a string, a complex
number, NaN and an int too large for a float raise UsageError naming the
parameter, instead of escaping as a bare TypeError or being read as a number
(True as 1.0).
"""

import math
import re

import numpy as np
import pytest
from test_whole_numbers import same

from btdfuse import (
    FusionConfig,
    NoiseSpec,
    RankSpec,
    UsageError,
    add_noise,
    apply_degradation,
    bcd_fuse,
    btd_reconstruct,
    compute_report,
    ergas,
    gaussian_blur_matrix,
    init_factors,
    make_degradation_ops,
)
from btdfuse.solver import admm_nn_block, build_subproblem

_RNG = np.random.default_rng(0)
_REF = _RNG.uniform(0.5, 1.0, size=(4, 5, 3))
_EST = _REF + 0.01 * _RNG.standard_normal(_REF.shape)
_OPS = make_degradation_ops(6, 6, 5, K_M=2, kernel_size=3, d=2)
_HSI, _MSI = apply_degradation(
    btd_reconstruct(init_factors((6, 6, 5), RankSpec(2, 1), 0, "random_uniform")), _OPS)
_F = init_factors((6, 6, 5), RankSpec(2, 1), 1, "random_uniform", msi=_MSI)

REFUSED = (None, True, "2", 1j, math.nan, 10**400)


def _fuse(**setting):
    r = bcd_fuse(_HSI, _MSI, _OPS, FusionConfig(rank=RankSpec(2, 1), outer_iters=3, **setting))
    return r.objective_trace, r.sri_estimate


def _admm(rho):
    w = build_subproblem("A", _F, _HSI, _MSI, _OPS, 1.0)
    w.rho = rho
    return admm_nn_block(w, 2)[0]


# (entry point, the parameter's name, a value it accepts, the call, the values it refuses)
CASES = [
    ("FusionConfig", "rho", 2, lambda v: _fuse(rho=v), REFUSED),
    ("FusionConfig", "tol", 1, lambda v: _fuse(tol=v), REFUSED),
    ("build_subproblem", "rho", 2,
     lambda v: build_subproblem("C", _F, _HSI, _MSI, _OPS, v), REFUSED),
    ("admm_nn_block", "rho", 2, _admm, REFUSED),
    ("NoiseSpec", "snr_db", 20, lambda v: (NoiseSpec(v), add_noise(_REF, NoiseSpec(v))), REFUSED),
    ("gaussian_blur_matrix", "sigma", 2, lambda v: gaussian_blur_matrix(5, 3, v), REFUSED),
    # None is make_degradation_ops' default sigma, d / 2
    ("make_degradation_ops", "sigma", 2,
     lambda v: make_degradation_ops(6, 6, 5, K_M=2, kernel_size=3, sigma=v, d=2), REFUSED[1:]),
    ("compute_report", "d", 2, lambda v: compute_report(_REF, _EST, v), REFUSED),
    ("ergas", "d", 2, lambda v: ergas(_REF, _EST, v), REFUSED),
]
IDS = [f"{where}-{name}" for where, name, *_ in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_non_real_value_is_refused_by_name(case):
    _, name, _, call, refused = case
    for bad in refused:
        with pytest.raises(UsageError, match=rf"^{re.escape(name)} must be a real number"):
            call(bad)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_int_and_numpy_scalars_act_as_float(case):
    _, _, good, call, _ = case
    expected = call(float(good))
    for value in (good, np.int64(good), np.float64(good), np.float32(good)):
        assert same(call(value), expected), repr(value)
