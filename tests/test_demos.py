"""The demos run against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import srr

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str, *args: str) -> subprocess.CompletedProcess:
    src_root = str(Path(srr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(REPO_ROOT / "demos" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_library_walkthrough_runs():
    proc = run_demo("library_walkthrough.py")
    assert proc.returncode == 0, proc.stderr
    for kind in ("logistic", "forest", "gcn", "temporal"):
        assert f"\n{kind} " in proc.stdout
    assert "Done." in proc.stdout


def test_cli_pipeline_runs(tmp_path):
    proc = run_demo("cli_pipeline.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for kind in ("logistic", "forest", "gcn", "temporal"):  # one summary-table row each
        assert re.search(rf"^{kind} +\d+ +\d+ +[01]\.\d{{3}} ", proc.stdout, re.M), kind
