"""The scripts under tools/: bench_pairs refuses arguments it cannot use before it runs
anything, states whether the pairs show a gain and stay within the bound, and
runs a second checkout of the parent as a noise floor that a gain must clear,
count_code counts the lines that hold code and no others and refuses a revision
it cannot read, and parity_matrix's compare fails on any array that differs past
its tolerance."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest


def _load(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("refused, flags", [
    ("--pairs", ("--pairs", "1", "--seconds", "5")),
    ("--seconds", ("--pairs", "2", "--seconds", "0")),
    ("--seconds", ("--pairs", "2", "--seconds", "nan")),
], ids=["one-pair", "zero-seconds", "nan-seconds"])
def test_bench_pairs_refuses_before_any_run(refused, flags, monkeypatch, capsys):
    # one pair used to run both benchmarks and then die in statistics.quantiles
    bench_pairs = _load("bench_pairs")
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a benchmark run started"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["parent", "change", "--workload", "w", "--seed-base", "0",
                          "--label", "x", *flags])
    assert exc.value.code == 2
    assert f"{refused} must be" in capsys.readouterr().err


COUNTED = '''"""Module docstring,
over two lines."""

import os  # a comment after code


class Box:
    """Class docstring."""

    # a comment on its own line
    def size(self):
        """Function docstring,

        over three lines."""
        text = """a string that is not a docstring
spans two lines"""
        return len(text) + os.sep.count(
            "/")
'''


def test_count_code_counts_code_and_leaves_out_docstrings_and_comments():
    count_code = _load("count_code")
    assert count_code.code_lines(COUNTED) == [
        "import os  # a comment after code",
        "class Box:",
        "def size(self):",
        'text = """a string that is not a docstring',
        'spans two lines"""',
        "return len(text) + os.sep.count(",
        '"/")',
    ]
    assert count_code.code_lines("") == []


def test_count_code_refuses_an_unknown_revision(monkeypatch, capsys):
    # git ls-tree's failure used to end in a CalledProcessError traceback
    count_code = _load("count_code")
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parents[1])
    assert count_code.main(["--against", "no-such-revision"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "'no-such-revision'" in err


@pytest.fixture
def parity(monkeypatch):
    # loading the script pins the BLAS thread counts in os.environ; the
    # fixture's own setenv puts the earlier values back afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    return _load("parity_matrix")


def _dump(path, **arrays):
    np.savez(path, **arrays)
    return str(path)


def test_parity_compare_gates_on_rtol(parity, tmp_path, capsys):
    x = np.array([1.0, 2.0, 3.0])
    base = _dump(tmp_path / "base.npz", trace=x, **{"cli/out": x})
    assert parity.main(["compare", base, _dump(tmp_path / "same.npz", trace=x.copy(),
                                               **{"cli/out": x})]) == 0
    assert "1 of 1 solver arrays equal" in capsys.readouterr().out
    # a workspace array is counted as one, not as a solver array
    ws = _dump(tmp_path / "ws.npz", trace=x, **{"workspace/H1": x})
    assert parity.main(["compare", ws, _dump(tmp_path / "ws_near.npz", trace=x,
                                             **{"workspace/H1": x * (1 + 1e-13)})]) == 1
    out = capsys.readouterr().out
    assert "1 of 1 solver arrays equal" in out and "0 of 1 workspace arrays equal" in out
    near = _dump(tmp_path / "near.npz", trace=x * (1 + 1e-13), **{"cli/out": x})
    assert parity.main(["compare", base, near]) == 1
    assert "0 of 1 solver arrays equal" in capsys.readouterr().out
    assert parity.main(["compare", base, near, "--rtol", "1e-12"]) == 0
    assert parity.main(["compare", base, _dump(tmp_path / "short.npz", trace=x)]) == 1
    out = capsys.readouterr().out
    assert "gone: cli/out\n" in out and "0 of 1 command-line outputs equal" in out
    assert parity.main(["compare", _dump(tmp_path / "short.npz", trace=x), base]) == 1
    assert "new: cli/out\n" in capsys.readouterr().out
    nan = _dump(tmp_path / "nan.npz", trace=np.array([1.0, np.nan, 3.0]), **{"cli/out": x})
    for rtol in ("0", "1e300", "inf"):
        assert parity.main(["compare", base, nan, "--rtol", rtol]) == 1
        assert parity.main(["compare", nan, base, "--rtol", rtol]) == 1


@pytest.mark.parametrize("rtol", ["-1", "nan", "abc"])
def test_parity_compare_refuses_a_bad_rtol(parity, tmp_path, capsys, rtol):
    base = _dump(tmp_path / "base.npz", trace=np.ones(2))
    assert parity.main(["compare", base, base, "--rtol", rtol]) == 1
    assert "Usage::" in capsys.readouterr().err


def _details(values, failed=0):
    # the part of perfbench/run.py's detail file that summarize reads
    return [{"metrics": {"fuse_s": {"value": v, "unit": "s"}},
             "provenance": {"params": {"n": 1}}, "series": {"rsnr_db": [20.0, 22.0]},
             "failed": failed, "attempted": 8} for v in values]


@pytest.mark.parametrize("change, wins, gain, within", [
    # faster in every pair, by more than the parent's IQR (0.02)
    ([0.90, 0.91, 0.89, 0.90, 0.92, 0.91, 0.90, 0.89, 0.91, 0.90], 10, True, True),
    # far faster in 8 pairs and equal in 2: a tie counts for neither side, so
    # 8 of 10 shows no gain although the medians differ by 10 IQRs
    ([1.00, 1.01, 0.80, 0.80, 0.80, 0.80, 0.80, 0.80, 0.80, 0.80], 8, False, True),
    # 30% slower in every pair, past the 0.24 bound
    ([1.30, 1.31, 1.29, 1.30, 1.33, 1.31, 1.30, 1.29, 1.32, 1.30], 0, False, False),
], ids=["clear-gain", "many-ties", "past-the-bound"])
def test_bench_pairs_summarize_states_the_verdicts(change, wins, gain, within):
    bench_pairs = _load("bench_pairs")
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 1.01, 1.00, 0.99, 1.01, 1.00]
    entry = bench_pairs.summarize({"parent": _details(parent), "change": _details(change)},
                                  list(range(10)), [i % 2 == 0 for i in range(10)],
                                  {"fuse_s": ("lower", 0.24)})
    v = entry["metrics"]["fuse_s"]["verdicts"]
    assert (v["gain_shown"], v["within_bound"]) == (gain, within)
    assert v["better"] == "lower" and v["bound"] == 0.24
    assert v["change_better_in"] == f"{wins}/10 pairs"
    assert entry["failed"] == {"parent": 0, "change": 0}


def test_bench_pairs_reads_better_and_bound_from_the_benchmark_file():
    bench_pairs = _load("bench_pairs")
    specs = bench_pairs.end_to_end_specs(str(pathlib.Path(__file__).resolve().parents[1]))
    assert specs["fuse_s"] == ("lower", 0.24) and specs["peak_rss_mb"] == ("lower", 0.1)


@pytest.mark.parametrize("floor_value, gain", [(0.99, True), (0.85, False)],
                         ids=["floor-below-the-gain", "floor-past-the-gain"])
def test_bench_pairs_floor_root_runs_the_same_seeds_and_gates_the_gain(
        floor_value, gain, tmp_path, monkeypatch, capsys):
    # a second checkout of the parent runs every seed too, and its distance
    # from the parent (the floor gap) must be smaller than the change's gain
    bench_pairs = _load("bench_pairs")
    roots = {side: tmp_path / side for side in ("parent", "change", "floor")}
    for root in roots.values():
        root.mkdir()
    (roots["change"] / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "fuse_s", "better": "lower", "bound": 0.24}]}')
    value = {"parent": 1.0, "change": 0.9, "floor": floor_value}
    calls = []

    def run_once(root, workload, seed, seconds):
        side = pathlib.Path(root).name
        calls.append((side, seed))
        detail = _details([value[side] + 0.001 * (seed % 3)])[0]
        detail["provenance"].update(
            {"commit": "c1" if side == "change" else "p0", "page_cache": "warm"},
            **{key: "m" for key in bench_pairs.MACHINE_KEYS})
        return detail

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(roots["parent"]), str(roots["change"]), "--workload", "w",
                             "--pairs", "4", "--seconds", "1", "--seed-base", "10",
                             "--label", "x", "--floor-root", str(roots["floor"])]) == 0
    assert calls[:6] == [("parent", 10), ("change", 10), ("floor", 10),
                         ("floor", 11), ("change", 11), ("parent", 11)]
    assert sorted(seed for side, seed in calls if side == "floor") == [10, 11, 12, 13]
    bench = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert bench["commits"] == {"parent": "p0", "change": "c1", "floor": "p0"}
    metric = bench["workloads"]["w"]["metrics"]["fuse_s"]
    assert metric["floor"]["median"] == pytest.approx(floor_value + 0.001)
    assert metric["verdicts"]["floor_gap"] == pytest.approx(1.0 - floor_value)
    assert metric["verdicts"]["gain_shown"] is gain
    assert "floor gap" in capsys.readouterr().out


def test_bench_pairs_refuses_a_floor_of_another_commit():
    bench_pairs = _load("bench_pairs")
    details = {side: _details([1.0, 1.0]) for side in ("parent", "change", "floor")}
    for side, commit in (("parent", "p0"), ("change", "c1"), ("floor", "c1")):
        for d in details[side]:
            d["provenance"].update({"commit": commit}, **{k: "m" for k in bench_pairs.MACHINE_KEYS})
    with pytest.raises(RuntimeError, match="floor runs commit c1, not the parent's p0"):
        bench_pairs.provenance(details)
