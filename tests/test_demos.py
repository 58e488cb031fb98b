"""Every demo script runs to completion against the package sources."""

import glob
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(tmp_path, demo):
    # a copy keeps the files a demo writes next to itself out of the
    # checkout; a warning fails the run, as one in the test process does
    script = shutil.copy(demo, tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, "-W", "error", script],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
