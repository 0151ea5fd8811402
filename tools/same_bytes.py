#!/usr/bin/env python3
"""Check that another checkout of srr writes the same bytes as this one.

    python3 tools/same_bytes.py OTHER_CHECKOUT

Run it from anywhere; OTHER_CHECKOUT is the root of another copy of this
repository. For each case below, three command sets run twice, once with this
checkout's ``src`` and once with OTHER_CHECKOUT's, each command set in a fresh
temporary directory holding the same inputs: the six stage commands, `run-all`,
and a mixed set, whose `ingest` through `train` OTHER_CHECKOUT's ``src`` runs
on both sides, so that each side's `evaluate` and `report` read model files
that OTHER_CHECKOUT wrote. The
inputs come from ``make_inputs`` in this checkout's ``perfbench/run.py``:
the ``fixture-stages`` panels of seeds 7 and 11 and the ``shipped-44`` panel
of seed 7. Six more cases run the seed-7 ``fixture-stages`` inputs with one
config override each, for the option paths those three never reach: a macro
overlay (a one-series file the script writes over the panel's dates), the
focal loss, unstandardized features, weighted adjacency, a period window, and
three model kinds in an order other than the default, which every file,
printed line and manifest must keep.
The script compares the SHA-256 of every file each command set leaves, and
each command's stdout, stderr and exit code. It prints each difference, and
each command of this checkout that did not exit 0 (a failing case reaches no
option path), then a summary line and, for each label that differs, in how
many cases it does. It exits 1 if there is a difference or a failed command,
else 0. It takes about
three minutes on a 2-core machine and is not part of the tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from checks import STAGES  # noqa: E402  (perfbench/checks.py)
from run import WORKLOADS, make_inputs  # noqa: E402  (perfbench/run.py)

# (workload, seed, config sections merged into make_inputs' config)
CASES = [("fixture-stages", 7, {}), ("fixture-stages", 11, {}), ("shipped-44", 7, {})] + [
    ("fixture-stages", 7, sections) for sections in (
        {"data": {"macro_csv": "macro_in.csv"}},
        {"model": {"loss": "focal"}},
        {"features": {"standardize": False}},
        {"graph": {"weighted_adjacency": True}},
        {"period": {"start": "2015-03-02", "end": "2017-02-28"}},
        {"model": {"kinds": ["temporal", "forest", "logistic"]}})]
# name -> (commands, how many of the first ones OTHER_CHECKOUT's src runs on both sides)
COMMAND_SETS = {"stages": (STAGES, 0), "run-all": (["run-all"], 0),
                "mixed": (STAGES, STAGES.index("evaluate"))}


def write_inputs(workload: str, seed: int, sections: dict, inputs: Path) -> None:
    """``make_inputs``' files with ``sections`` merged into its config, and the
    macro file that a ``data.macro_csv`` override names."""
    panel, config = make_inputs(WORKLOADS[workload], seed, str(inputs))
    for name, values in sections.items():
        config[name] = {**config.get(name, {}), **values}
    (inputs / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    if "macro_csv" in config["data"]:  # the equal-weight mean log price of each date
        level = np.log(panel.prices).mean(axis=0)
        (inputs / config["data"]["macro_csv"]).write_text("".join(
            ["date,level\n"] + [f"{day},{float(v)!r}\n" for day, v in zip(panel.dates, level)]),
            encoding="utf-8")


def run_side(src: Path, other: Path, inputs: Path, tmp: str) -> dict[str, object]:
    """Everything one checkout's commands leave on ``inputs``, by label: each
    command's exit code, stdout and stderr, and each file's SHA-256. ``other``
    is the ``src`` that runs the first commands of the mixed set."""
    seen: dict[str, object] = {}
    for name, (commands, theirs) in COMMAND_SETS.items():
        work = Path(tempfile.mkdtemp(dir=tmp))
        shutil.copytree(inputs, work, dirs_exist_ok=True)
        for number, command in enumerate(commands):
            env = {**os.environ, "PYTHONPATH": str(other if number < theirs else src)}
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
    compared = failed = 0
    tally: Counter[str] = Counter()  # differing label -> cases it differs in
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        for number, (workload, seed, sections) in enumerate(CASES):
            inputs = Path(tmp) / f"case-{number}"
            inputs.mkdir()
            write_inputs(workload, seed, sections, inputs)
            case = f"{workload} seed {seed} {json.dumps(sections)}"
            ours, theirs = (run_side(src, other / "src", inputs, tmp)
                            for src in (ROOT / "src", other / "src"))
            for label, code in ours.items():
                if label.endswith("exit code") and code != 0:
                    failed += 1
                    print(f"{case}: {label} is {code}")
            for label in sorted(ours.keys() | theirs.keys()):
                a, b = ours.get(label, "(absent)"), theirs.get(label, "(absent)")
                compared += 1
                if a != b:
                    tally[label] += 1
                    print(f"{case}: {label} differs\n"
                          f"  this checkout: {a!r}\n  {other}: {b!r}")
    print(f"{sum(tally.values())} differences in {compared} comparisons over {len(CASES)} "
          f"cases; {failed} commands of this checkout did not exit 0")
    for label, cases in sorted(tally.items(), key=lambda item: (-item[1], item[0])):
        print(f"{cases:>3}  {label}")
    return 1 if tally or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
