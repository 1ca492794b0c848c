"""The demo scripts run to the end against the package as it is.

Each of ``demos/01`` to ``demos/06`` runs in its own interpreter from an
empty working directory, with ``src`` on ``PYTHONPATH``, so an API change
that a demo still calls the old way fails here. ``07_cli_pipeline.sh``
writes into ``demos/out/`` and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-6]_*.py"))


def test_the_six_python_demos_are_found():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
