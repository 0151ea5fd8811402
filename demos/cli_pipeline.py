#!/usr/bin/env python3
"""Drive the `srr` command-line pipeline on a synthetic price CSV.

Creates a scratch workspace, writes a 20-ticker price history with planted
crash regimes plus a JSON config, then runs every pipeline stage the way a
user would from a shell:

    srr ingest   -> aligned prices + provenance (rows read, dates dropped)
    srr features -> standardized features, labels, split
    srr graphs   -> rolling correlation snapshots (JSONL)
    srr train    -> four fitted models (.srrm containers)
    srr evaluate -> report.json + per-model score timelines
    srr report   -> summary.txt + self-contained SVG charts

(`srr run-all` chains the same six stages.) Finally it prints the summary
table and where to find everything.

    python3 demos/cli_pipeline.py [workdir]
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from srr.synthetic import write_synthetic_csv


def run(args):
    print(f"\n$ {' '.join(args)}")
    proc = subprocess.run([sys.executable, "-m", "srr.cli", *args])
    if proc.returncode != 0:
        sys.exit(f"stage failed with exit code {proc.returncode}")


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="srr_demo_"))
    root.mkdir(parents=True, exist_ok=True)
    out = root / "out"

    prices = root / "prices.csv"
    write_synthetic_csv(str(prices), n_tickers=20, n_days=600, seed=7)
    print(f"wrote {prices} (long format: date,ticker,adj_close)")

    config = {
        "data": {"prices_csv": str(prices)},
        "labels": {"threshold": 0.10, "horizon": 20},
        "graph": {"window": 7, "tau": 0.5},
        "model": {
            "kinds": ["logistic", "forest", "gcn", "temporal"],
            "stride": 1,
            "epochs": 6,
            "forest_trees": 10,
        },
        "split": {"ratio": 0.8},
        "seed": 7,
        "out": str(out),
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2) + "\n")
    print(f"wrote {cfg_path}")

    for stage in ("ingest", "features", "graphs", "train", "evaluate", "report"):
        run([stage, "--config", str(cfg_path)])

    print("\n" + (out / "summary.txt").read_text())

    report = json.loads((out / "report.json").read_text())
    print("held-out AUROC by model:")
    for kind, block in report["models"].items():
        print(f"  {kind:<9} {block['metrics']['auroc']:.3f}")

    print(f"\nartifacts in {out}:")
    for p in sorted(out.iterdir()):
        print(f"  {p.name}")


if __name__ == "__main__":
    main()
