"""Each narrative script in demos/ runs to completion in a fresh
interpreter against the package the tests import."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardcore_entropy

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [d.name for d in DEMOS] == [
        "density_interval.py", "profiles_and_strips.py", "reproduce_tables.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    # the package under test, wherever it was imported from
    src = Path(hardcore_entropy.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("HC_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
