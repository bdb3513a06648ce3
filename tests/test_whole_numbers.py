"""One rule for every size, rank, ratio, count, seed and mode a caller passes.

Each entry point takes an int, a numpy integer or an integral float and gives
the same result for all three; any other value raises UsageError naming the
parameter instead of being truncated or escaping as numpy's TypeError.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from btdfuse import (
    FusionConfig,
    NoiseSpec,
    RankSpec,
    UsageError,
    add_noise,
    admm_nn_block,
    apply_degradation,
    btd_reconstruct,
    btd_unfold_direct,
    build_subproblem,
    check_btd_identifiability,
    check_coupled_identifiability,
    downsample_matrix,
    fold,
    gaussian_blur_matrix,
    init_factors,
    make_degradation_ops,
    mode_product,
    pw_khatri_rao,
    unfold,
    uniform_srf,
    unvec,
)
from btdfuse.cli import _bench_config

_RNG = np.random.default_rng(0)
_T = _RNG.uniform(size=(3, 4, 5))
_MSI = _RNG.uniform(size=(2, 3, 2))
_F = init_factors((3, 4, 5), RankSpec(2, (1, 2)), 0, "random_uniform")


def _ops(**kw):
    args = dict(I_M=6, J_M=6, K_H=5, K_M=2, kernel_size=3, d=2, offset=0)
    args.update(kw)
    return make_degradation_ops(**args)


def _admm(inner_iters):
    """``admm_nn_block`` on block A of a fresh 6x6x5 instance."""
    f, ops = init_factors((6, 6, 5), RankSpec(2, 1), 0, "random_uniform"), _ops()
    hsi, msi = apply_degradation(btd_reconstruct(f), ops)
    return admm_nn_block(build_subproblem("A", f, hsi, msi, ops, "auto"), inner_iters)


# (entry point, the parameter's name, a whole value it accepts, the call)
CASES = [
    ("gaussian_blur_matrix", "n", 2, lambda v: gaussian_blur_matrix(v, 3, 1.0)),
    ("gaussian_blur_matrix", "kernel_size", 3, lambda v: gaussian_blur_matrix(5, v, 1.0)),
    ("downsample_matrix", "n", 2, lambda v: downsample_matrix(v, 1)),
    ("downsample_matrix", "d", 2, lambda v: downsample_matrix(6, v)),
    ("downsample_matrix", "offset", 2, lambda v: downsample_matrix(6, 3, v)),
    ("uniform_srf", "K_H", 2, lambda v: uniform_srf(v, 1)),
    ("uniform_srf", "K_M", 2, lambda v: uniform_srf(5, v)),
    ("make_degradation_ops", "I_M", 2, lambda v: _ops(I_M=v)),
    ("make_degradation_ops", "J_M", 2, lambda v: _ops(J_M=v)),
    ("make_degradation_ops", "K_H", 2, lambda v: _ops(K_H=v)),
    ("make_degradation_ops", "K_M", 2, lambda v: _ops(K_M=v)),
    ("make_degradation_ops", "K_M", 2, lambda v: _ops(K_M=v, srf=uniform_srf(5, 2))),
    ("make_degradation_ops", "kernel_size", 3, lambda v: _ops(kernel_size=v)),
    ("make_degradation_ops", "d", 2, lambda v: _ops(d=v)),
    ("make_degradation_ops", "offset", 1, lambda v: _ops(offset=v)),
    ("NoiseSpec", "seed", 2, lambda v: (NoiseSpec(30.0, v), add_noise(_T, NoiseSpec(30.0, v)))),
    ("init_factors", "dims", 2,
     lambda v: init_factors((v, 3, 4), RankSpec(2, 1), 0, "random_uniform", msi=_MSI)),
    ("init_factors", "seed", 2, lambda v: init_factors((2, 3, 4), RankSpec(2, 1), v,
                                                       "random_uniform")),
    ("init_factors/svd_warm", "dims", 2,
     lambda v: init_factors((v, 3, 4), RankSpec(1, 1), 0, "svd_warm", msi=_MSI)),
    ("fold", "dims", 2, lambda v: fold(np.arange(24.0).reshape(12, 2), 1, (v, 3, 4))),
    ("pw_khatri_rao", "block_widths", 2,
     lambda v: pw_khatri_rao(np.ones((2, 2)), np.arange(6.0).reshape(2, 3), (v, 1))),
    ("unvec", "rows", 2, lambda v: unvec(np.arange(6.0), v, 3)),
    ("unvec", "cols", 2, lambda v: unvec(np.arange(6.0), 3, v)),
    ("check_btd_identifiability", "I", 2,
     lambda v: vars(check_btd_identifiability(v, 6, 6, RankSpec(2, 2)))),
    ("check_btd_identifiability", "K", 2,
     lambda v: vars(check_btd_identifiability(6, 6, v, RankSpec(2, 2)))),
    ("check_coupled_identifiability", "I_M", 2,
     lambda v: vars(check_coupled_identifiability(v, 6, 4, 2, 2, RankSpec(2, 2)))),
    ("check_coupled_identifiability", "J_H", 2,
     lambda v: vars(check_coupled_identifiability(6, 6, 4, 2, v, RankSpec(2, 2)))),
    ("RankSpec", "R", 2, lambda v: RankSpec(v, 1)),
    ("RankSpec", "L", 2, lambda v: RankSpec(2, v)),
    ("RankSpec", "L", 2, lambda v: RankSpec(2, (1, v))),
    # a mode is a whole number too: True used to pass as mode 1, 2.0 as an index
    ("unfold", "mode", 1, lambda v: unfold(_T, v)),
    ("fold", "mode", 2, lambda v: fold(np.arange(24.0).reshape(8, 3), v, (2, 3, 4))),
    ("mode_product", "mode", 1, lambda v: mode_product(_T, np.ones((2, 3)), v)),
    ("mode_product", "mode", 2,
     lambda v: mode_product(np.asfortranarray(_T), np.ones((2, 4)), v)),
    ("btd_unfold_direct", "mode", 2, lambda v: btd_unfold_direct(_F, v)),
    # True used to run one ADMM step, 2.0 and None to escape as a TypeError
    ("admm_nn_block", "inner_iters", 2, _admm),
    # a config is checked, and its counts stored as int, when it is made
    ("FusionConfig", "outer_iters", 2, lambda v: FusionConfig(outer_iters=v)),
    ("FusionConfig", "inner_iters", 2, lambda v: FusionConfig(inner_iters=v)),
    ("FusionConfig", "seed", 2, lambda v: FusionConfig(seed=v)),
]
IDS = [f"{where}-{name}-{i}" for i, (where, name, _, _) in enumerate(CASES)]


def same(a, b) -> bool:
    """Equal values of equal types, through arrays, dataclasses, tuples and dicts."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_non_integral_value_is_refused_by_name(case):
    _, name, _, call = case
    for bad in (2.5, math.nan, math.inf, -math.inf, None, "2", True):
        with pytest.raises(UsageError, match=rf"^{re.escape(name)} must be an integer"):
            call(bad)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_integral_float_and_numpy_integer_act_as_int(case):
    _, _, good, call = case
    expected = call(good)
    for value in (float(good), np.int64(good)):
        assert same(call(value), expected), value


def _bench_trials(v):
    return _bench_config({"trials": v, "output": "table.csv", "sri_dims": [4, 4, 3],
                          "sri_rank": {"R": 1}, "methods": [{"method": "stereo", "R": 1}]})


# (entry point, the parameter's name, the least value it accepts, the call)
LEAST = [
    ("bench", "trials", 1, _bench_trials),
    ("NoiseSpec", "seed", 0, lambda v: NoiseSpec(30.0, v)),
    ("gaussian_blur_matrix", "n", 1, lambda v: gaussian_blur_matrix(v, 1, 1.0)),
    ("uniform_srf", "K_H", 1, lambda v: uniform_srf(v, 1)),
    ("uniform_srf", "K_M", 1, lambda v: uniform_srf(5, v)),
    ("RankSpec", "R", 1, lambda v: RankSpec(v, 1)),
    ("RankSpec", "L", 1, lambda v: RankSpec(2, v)),
    ("RankSpec", "L", 1, lambda v: RankSpec(2, (1, v))),
    ("FusionConfig", "outer_iters", 1, lambda v: FusionConfig(outer_iters=v)),
    ("FusionConfig", "inner_iters", 1, lambda v: FusionConfig(inner_iters=v)),
    ("FusionConfig", "seed", 0, lambda v: FusionConfig(seed=v)),
    ("admm_nn_block", "inner_iters", 1, _admm),
    ("init_factors", "seed", 0,
     lambda v: init_factors((2, 3, 4), RankSpec(2, 1), v, "random_uniform")),
    ("pw_khatri_rao", "block_widths", 1,
     lambda v: pw_khatri_rao(np.ones((2, 2)), np.ones((2, 2)), (v, 2 - v))),
]


@pytest.mark.parametrize("case", LEAST,
                         ids=[f"{w}-{n}-{i}" for i, (w, n, _, _) in enumerate(LEAST)])
def test_whole_number_below_its_bound_is_refused_by_name(case):
    _, name, least, call = case
    call(least)
    for below in (least - 1, float(least - 1), np.int64(least - 1), least - 7):
        with pytest.raises(UsageError, match=rf"^{re.escape(name)} must be >= {least}, "
                                             rf"got {int(below)}$"):
            call(below)
