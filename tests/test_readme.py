"""The README's Python examples run and print what their comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def run_quick_start(namespace: dict) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(python_blocks()[0], namespace)
    return out.getvalue().splitlines()


def test_quick_start_prints_its_comments():
    block = python_blocks()[0]
    # the expected output is the comment after each top-level print
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    lines = run_quick_start({})
    label, final = expected
    assert lines[0] == label == "interior-endemic"
    assert ast.literal_eval(lines[-1]) == pytest.approx(
        ast.literal_eval(final.replace("...", "")), rel=0, abs=1e-6)


@pytest.mark.slow
def test_stochastic_example_runs():
    # it reuses the quick start's parameters p
    namespace: dict = {}
    run_quick_start(namespace)
    exec(python_blocks()[1], namespace)
    assert namespace["stats"].n_runs == 20
    assert namespace["traj"].horizon == 30.0
