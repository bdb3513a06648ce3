"""The scripts under tools/: bench_pairs refuses arguments it cannot use before it runs
anything, and count_code counts the lines that hold code and no others."""

import importlib.util
import pathlib

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
