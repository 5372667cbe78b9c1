"""Every example script must run cleanly (they are living documentation)."""

import subprocess
import sys
from pathlib import Path

import pytest

from tests._subprocess import child_env

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_cleanly(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), "example produced no output"


def test_examples_exist():
    assert len(EXAMPLES) >= 4
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
