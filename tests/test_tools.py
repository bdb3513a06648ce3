"""The scripts under tools/: bench_pairs refuses arguments it cannot use before it runs
anything, count_code counts the lines that hold code and no others, and
parity_matrix's compare fails on any array that differs past its tolerance."""

import importlib.util
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
    near = _dump(tmp_path / "near.npz", trace=x * (1 + 1e-13), **{"cli/out": x})
    assert parity.main(["compare", base, near]) == 1
    assert "0 of 1 solver arrays equal" in capsys.readouterr().out
    assert parity.main(["compare", base, near, "--rtol", "1e-12"]) == 0
    assert parity.main(["compare", base, _dump(tmp_path / "short.npz", trace=x)]) == 1
    assert "0 of 1 command-line outputs equal" in capsys.readouterr().out
    nan = _dump(tmp_path / "nan.npz", trace=np.array([1.0, np.nan, 3.0]), **{"cli/out": x})
    for rtol in ("0", "1e300", "inf"):
        assert parity.main(["compare", base, nan, "--rtol", rtol]) == 1
        assert parity.main(["compare", nan, base, "--rtol", rtol]) == 1


@pytest.mark.parametrize("rtol", ["-1", "nan", "abc"])
def test_parity_compare_refuses_a_bad_rtol(parity, tmp_path, capsys, rtol):
    base = _dump(tmp_path / "base.npz", trace=np.ones(2))
    assert parity.main(["compare", base, base, "--rtol", rtol]) == 1
    assert "Usage::" in capsys.readouterr().err
