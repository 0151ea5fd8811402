#!/usr/bin/env python3
"""Run the benchmark on this checkout and a parent checkout in alternating pairs.

    python3 tools/bench_pairs.py PARENT_CHECKOUT [--workload W] [--pairs N] [--seed S]

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds T`` from the
root of each checkout, T being the ``run_seconds`` of ``BENCHMARK.json``: the
parent first on even pairs and this checkout first on odd ones, so that the
host's slow drift in speed falls on both sides alike. It refuses with exit 2
if the two checkouts' ``perfbench/`` or ``BENCHMARK.json`` differ, since the
pairs would then not measure the same thing. It prints one JSON line per pair,
then one per end-to-end metric of ``BENCHMARK.json``: each side's quartiles
(median in the middle), the pairs this checkout won in the metric's better
direction (ties count for neither side), whether a gain could be claimed (at
least 9 wins in 10, and the medians further apart, in the better direction,
than the parent's interquartile range), and a ``verdict`` against the metric's
``bound``: ``worse`` when this checkout's median is worse than the parent's by
more than ``bound`` times the parent's median, ``unresolved`` when the parent's
spread (interquartile range over median) is wider than ``bound``, else
``within``. A last line gives each side's failed rounds. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark_files(root: Path) -> dict[str, bytes]:
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            files[str(path.relative_to(root))] = path.read_bytes()
    return files


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                        str(seed), "--seconds", str(seconds)], cwd=root, capture_output=True,
                       text=True)
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"error: {root}: perfbench/run.py exited {p.returncode} with no result\n"
                 f"{p.stderr[-2000:]}")


def quartiles(values: list[float]) -> list[float]:
    return (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
            else values * 3)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--workload", default="fixture-stages")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=401)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = args.parent.resolve()
    if benchmark_files(parent) != benchmark_files(ROOT):
        print(f"error: {parent} and {ROOT} differ in perfbench/ or BENCHMARK.json",
              file=sys.stderr)
        return 2
    sides = {"parent": parent, "change": ROOT}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            results[side].append(run(sides[side], args.workload, seed,
                                     benchmark["run_seconds"]))
        print(json.dumps({"pair": i, "seed": seed, "order": order,
                          **{side: results[side][-1] for side in sides}}), flush=True)

    for metric in benchmark["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(results["parent"], results["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        (p1, p2, p3), (c1, c2, c3) = (quartiles(list(xs)) for xs in zip(*pairs))
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        verdict = ("worse" if sign * (p2 - c2) > metric["bound"] * abs(p2)
                   else "unresolved" if p3 - p1 > metric["bound"] * abs(p2) else "within")
        print(json.dumps({"metric": name, "better": metric["better"],
                          "parent": [p1, p2, p3], "change": [c1, c2, c3],
                          "wins": wins, "pairs": len(pairs),
                          "claim": 10 * wins >= 9 * len(pairs) and sign * (c2 - p2) > p3 - p1,
                          "verdict": verdict}))
    print(json.dumps({"failed": {side: sum(r["failed"] for r in results[side])
                                 for side in sides}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
