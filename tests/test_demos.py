"""Every demo script runs to completion against the current API.

The demos are narrative scripts, not tests of numbers; running them here
keeps a rename in the library from breaking one silently.  Together they
take about 10 s, most of it in ``05``.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _demo_dirs() -> set[Path]:
    return set(Path(tempfile.gettempdir()).glob("wiretapcodes_demo_*"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    before = _demo_dirs()
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out  # every demo narrates what it shows
    assert _demo_dirs() == before  # and leaves no files behind


def test_demos_are_found():
    assert DEMOS
