#!/usr/bin/env python3
"""Check that another checkout of srr writes the same bytes as this one.

    python3 tools/same_bytes.py OTHER_CHECKOUT

Run it from anywhere; OTHER_CHECKOUT is the root of another copy of this
repository. For each panel below, the six stage commands and then `run-all`
run twice, once with this checkout's ``src`` and once with OTHER_CHECKOUT's,
each command set in a fresh temporary directory holding the same inputs. The
inputs come from ``make_inputs`` in this checkout's ``perfbench/run.py``:
the ``fixture-stages`` panels of seeds 7 and 11 and the ``shipped-44`` panel
of seed 7. The script compares the SHA-256 of every file each command set
leaves, and each command's stdout, stderr and exit code. It prints each
difference and exits 1 if there is one, else prints a summary and exits 0.
It takes about a minute on a 2-core machine and is not part of the tests.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from checks import STAGES  # noqa: E402  (perfbench/checks.py)
from run import WORKLOADS, make_inputs  # noqa: E402  (perfbench/run.py)

CASES = [("fixture-stages", 7), ("fixture-stages", 11), ("shipped-44", 7)]
COMMAND_SETS = {"stages": list(STAGES), "run-all": ["run-all"]}


def run_side(src: Path, inputs: Path, tmp: str) -> dict[str, object]:
    """Everything one checkout's commands leave on ``inputs``, by label: each
    command's exit code, stdout and stderr, and each file's SHA-256."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    seen: dict[str, object] = {}
    for name, commands in COMMAND_SETS.items():
        work = Path(tempfile.mkdtemp(dir=tmp))
        shutil.copytree(inputs, work, dirs_exist_ok=True)
        for command in commands:
            p = subprocess.run([sys.executable, "-m", "srr.cli", command, "--config",
                                "config.json"], cwd=work, env=env, capture_output=True,
                               text=True)
            seen[f"{name}: `srr {command}` exit code"] = p.returncode
            seen[f"{name}: `srr {command}` stdout"] = p.stdout
            seen[f"{name}: `srr {command}` stderr"] = p.stderr
        for path in sorted(work.rglob("*")):
            if path.is_file():
                seen[f"{name}: {path.relative_to(work)}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return seen


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "srr").is_dir():
        print("usage: python3 tools/same_bytes.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    differences = compared = 0
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        for workload, seed in CASES:
            inputs = Path(tmp) / f"{workload}-{seed}"
            inputs.mkdir()
            make_inputs(WORKLOADS[workload], seed, str(inputs))
            ours, theirs = (run_side(src, inputs, tmp) for src in (ROOT / "src", other / "src"))
            for label in sorted(ours.keys() | theirs.keys()):
                a, b = ours.get(label, "(absent)"), theirs.get(label, "(absent)")
                compared += 1
                if a != b:
                    differences += 1
                    print(f"{workload} seed {seed}: {label} differs\n"
                          f"  this checkout: {a!r}\n  {other}: {b!r}")
    print(f"{differences} differences in {compared} comparisons over {len(CASES)} panels")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
