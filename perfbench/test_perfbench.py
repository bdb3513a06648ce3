"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_union_of_nested_and_back_to_back_children():
    spans = [
        span(0, None, 0.0, 10.0, "root"),
        span(1, 0, 1.0, 3.0, "a"),
        span(2, 1, 1.5, 2.5, "a.inner"),  # grandchild: not subtracted from root
        span(3, 0, 3.0, 5.0, "b"),  # back-to-back with a
        span(4, 0, 7.0, 8.0, "c"),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 1.0, 2.0, 1.0])
    assert tracing.layer_totals(spans)["root"] == pytest.approx(5.0)


def test_overlapping_children_are_counted_once():
    spans = [span(0, None, 0.0, 4.0), span(1, 0, 1.0, 3.0), span(2, 0, 2.0, 3.5)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_self_times_plus_unattributed_make_the_wall_time():
    spans = [span(0, None, 1.0, 4.0), span(1, 0, 2.0, 3.0), span(2, None, 5.0, 6.0)]
    unatt = tracing.unattributed(spans, 0.0, 8.0)
    assert unatt == pytest.approx(4.0)
    assert sum(tracing.self_times(spans)) + unatt == pytest.approx(8.0)


def test_tracer_records_parents_and_errors(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tr = tracing.Tracer("r")
    with tr.span("outer"):
        with tr.span("first"):
            pass
        with pytest.raises(ValueError):
            with tr.span("second"):
                raise ValueError
    outer, first, second = tr.spans
    assert outer["parent"] is None and first["parent"] == 0 and second["parent"] == 0
    assert tr.errors == {"second": 1}
    # outer lasts 0..5, its children 1..2 and 3..4
    assert tracing.self_times(tr.spans) == [3.0, 1.0, 1.0]


def _btdfuse_functions():
    import btdfuse

    mods = [m for n, m in sys.modules.items() if n == "btdfuse" or n.startswith("btdfuse.")]
    assert btdfuse in mods
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_install_wraps_every_namespace_and_uninstall_restores_all():
    import numpy.linalg
    import scipy.linalg

    import btdfuse
    import btdfuse.solver

    before = _btdfuse_functions()
    eighs = (numpy.linalg.eigh, scipy.linalg.eigh)
    tr = tracing.Tracer("t")
    patches = tracing.install(tr)
    try:
        wrapped = btdfuse.solver.sylvester_solve
        assert wrapped is not before[("btdfuse.solver", "sylvester_solve")]
        assert btdfuse.sylvester_solve is wrapped
        assert btdfuse.solver.btd_reconstruct is btdfuse.model.btd_reconstruct
        assert btdfuse.solver.btd_reconstruct is not before[("btdfuse.model", "btd_reconstruct")]
        assert numpy.linalg.eigh is not eighs[0] and scipy.linalg.eigh is not eighs[1]

        ops = btdfuse.make_degradation_ops(10, 10, 8, K_M=2, kernel_size=3, d=2)
        rank = btdfuse.RankSpec(2, 2)
        sri = btdfuse.btd_reconstruct(btdfuse.init_factors((10, 10, 8), rank, 0, "random_uniform"))
        hsi, msi = btdfuse.apply_degradation(sri, ops)
        cfg = btdfuse.FusionConfig(method="cnn_btd", rank=rank, outer_iters=1, seed=1)
        btdfuse.bcd_fuse(hsi, msi, ops, cfg)
    finally:
        tracing.uninstall(patches)
    # calls made through solver's own module globals were seen
    assert tr.calls["solver.sylvester_solve"] == 15
    assert tr.calls["linalg.eigh"] == 30
    assert tr.calls["model.btd_reconstruct"] >= 3
    assert _btdfuse_functions() == before
    assert (numpy.linalg.eigh, scipy.linalg.eigh) == eighs
    n = len(tr.spans)
    btdfuse.solver.sylvester_solve(np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    assert len(tr.spans) == n


def _schema_and_benchmark():
    schema = run.load_schema()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return schema, json.load(fh)


def test_metric_and_workload_names_are_well_formed():
    schema, bench = _schema_and_benchmark()
    names = [m["name"] for m in schema["end_to_end"] + schema["per_layer"]]
    names += [w["name"] for w in schema["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"])


def test_benchmark_json_repeats_the_schema():
    schema, bench = _schema_and_benchmark()
    assert [{"name": w["name"], "why": w["why"]} for w in schema["workloads"]
            if w["in_benchmark"]] == bench["workloads"]
    e2e = ("name", "unit", "better", "bound")
    assert [{k: m[k] for k in e2e} for m in schema["end_to_end"]] == bench["end_to_end"]
    layer = ("name", "unit", "better")
    assert [{k: m[k] for k in layer} for m in schema["per_layer"]] == bench["per_layer"]
    workloads = {w["name"] for w in schema["workloads"]}
    e2e_names = {m["name"] for m in schema["end_to_end"]} | {o["name"] for o in schema["omitted"]}
    for m in schema["per_layer"]:
        assert m["layer"] == m["name"].split(".")[0]
        assert m["moves"] in e2e_names | {"none"}
        assert set(m["mostly_on"]) | set(m["little_on"]) <= workloads


def _small_fusion():
    import btdfuse

    ops = btdfuse.make_degradation_ops(10, 10, 8, K_M=2, kernel_size=3, d=2)
    rank = btdfuse.RankSpec(2, 2)
    sri = btdfuse.btd_reconstruct(btdfuse.init_factors((10, 10, 8), rank, 0, "random_uniform"))
    hsi, msi = btdfuse.apply_degradation(sri, ops)
    hsi = btdfuse.add_noise(hsi, btdfuse.NoiseSpec(30.0, 1))
    msi = btdfuse.add_noise(msi, btdfuse.NoiseSpec(30.0, 2))
    cfg = btdfuse.FusionConfig(method="cnn_btd", rank=rank, outer_iters=3, seed=3)
    result = btdfuse.bcd_fuse(hsi, msi, ops, cfg)
    params = {"dims": [10, 10, 8], "sweeps": 3, "method": "cnn_btd", "rsnr_floor_db": -100.0}
    f = result.factors
    kwargs = dict(estimate=result.sri_estimate, trace_len=len(result.objective_trace),
                  factors=(f.A, f.B, f.C, f.rank.L), sri=sri, hsi=hsi, msi=msi,
                  ops=(ops.P1, ops.P2, ops.P3),
                  report_rsnr=btdfuse.r_snr(sri, result.sri_estimate))
    return params, list(result.objective_trace), kwargs


def test_dense_objective_check_accepts_the_true_trace_and_rejects_a_perturbed_one():
    params, trace, kwargs = _small_fusion()
    assert checks.check_fusion(params, trace_tail=trace, **kwargs) == []
    bad = trace[:-1] + [trace[-1] * (1 + 1e-6)]
    reasons = checks.check_fusion(params, trace_tail=bad, **kwargs)
    assert len(reasons) == 1 and "dense recomputation" in reasons[0]


def test_checks_reject_short_traces_negative_factors_and_low_rsnr():
    params, trace, kwargs = _small_fusion()
    a, b, c, widths = kwargs["factors"]
    neg = dict(kwargs, factors=(a, b, -c, widths), estimate=-kwargs["estimate"])
    assert any("negative" in r for r in checks.check_fusion(params, trace_tail=trace, **neg))
    short = dict(kwargs, trace_len=len(trace) - 1)
    assert any("entries" in r for r in checks.check_fusion(params, trace_tail=trace, **short))
    strict = dict(params, rsnr_floor_db=300.0)
    assert any("floor" in r for r in checks.check_fusion(strict, trace_tail=trace, **kwargs))


def test_hsrt_round_trip_matches_the_program_reader(tmp_path):
    import btdfuse

    t = np.arange(24, dtype=float).reshape(2, 3, 4)
    checks.write_hsrt(tmp_path / "t.btf", t)
    assert np.array_equal(btdfuse.read_tensor(tmp_path / "t.btf"), t)
    assert np.array_equal(checks.read_hsrt(tmp_path / "t.btf"), t)


def test_seeds_are_deterministic_and_distinct_per_role():
    s = run.derive_seeds(7, 0)
    assert s == run.derive_seeds(7, 0)
    assert len(set(s.values())) == len(s)
    assert s != run.derive_seeds(8, 0) and s != run.derive_seeds(7, 1)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.percentile_with_tail(list(range(10))) is None
    tail = run.percentile_with_tail([float(v) for v in range(100)])
    assert tail["percentile"] == 90 and tail["n"] == 100
    assert sum(v > tail["value"] for v in range(100)) >= 10
