"""The benchmark's tracer still sees every function it hooks.

``perfbench/traced_srr.py`` wraps the names the calling modules look up
(``srr.training.gcn_forward``, ``srr.cli.roc_points``...). A refactor that
renames one of them, or captures it in a table at import, leaves its wrapper
uncalled and silently zeroes a per-layer metric; this test makes that fail.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import srr
from srr.synthetic import write_synthetic_csv

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "traced_srr.py"
KINDS = ("logistic", "forest", "gcn", "temporal")


def test_every_hooked_label_records_a_call(tmp_path):
    write_synthetic_csv(str(tmp_path / "prices.csv"), n_tickers=6, n_days=280, seed=5)
    config = {
        "data": {"prices_csv": "prices.csv"},
        "labels": {"threshold": 0.10, "horizon": 20},
        "model": {"kinds": list(KINDS), "stride": 2, "epochs": 1, "sequence_length": 2,
                  "gcn_hidden": 4, "mlp_hidden": 3, "gru_hidden": 4,
                  "forest_trees": 3, "forest_max_depth": 3, "logistic_epochs": 100},
        "seed": 7,
        "out": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    spans = tmp_path / "spans.npz"
    env = dict(os.environ)
    src = str(Path(srr.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "run-all", "--config", "config.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # both classes on the test side, so the report draws ROC and PR curves
    assert (tmp_path / "out" / "roc.svg").exists()

    with np.load(spans) as z:
        labels = [str(s) for s in z["labels"]]
        calls = np.bincount(z["name"], minlength=len(labels))
    hooked = {label for label in labels
              if label.split(".")[0] in ("models", "training", "evaluation")}
    expected = ({f"training.train.{k}" for k in KINDS}
                | {f"training.predict_scores.{k}" for k in KINDS})
    assert expected <= hooked
    assert {"models.gcn_forward", "models.temporal_backward", "models.forest_fit",
            "models.adjacency_from_snapshot", "evaluation.roc_points"} <= hooked
    uncalled = sorted(label for label in hooked if calls[labels.index(label)] == 0)
    assert uncalled == []
    # `tensor.matmul` and `tensor.add` have no caller in the models; these two do
    for label in ("tensor.adam_step", "tensor.bce_loss"):
        assert label in labels and calls[labels.index(label)] > 0, label
