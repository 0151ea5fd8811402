"""The library walkthrough demo runs against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import srr

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_library_walkthrough_runs():
    src_root = str(Path(srr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "demos" / "library_walkthrough.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for kind in ("logistic", "forest", "gcn", "temporal"):
        assert f"\n{kind} " in proc.stdout
    assert "Done." in proc.stdout
