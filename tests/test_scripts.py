"""Smoke tests of the scripts in scripts/, which import the library and
cli.kclass_str / cli.weight_str."""

import pathlib

import pytest

from conftest import run_python

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args", [
    ("tilting_table.py", ("A2", "1")),
])
def test_script_runs_cleanly(script, args):
    proc = run_python(str(SCRIPTS / script), *args, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
