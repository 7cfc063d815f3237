"""Every demo script runs to the end."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
