"""Tests of the benchmark itself: every output check catches a corrupted artifact.

    python3 -m pytest -q perfbench

One small real pipeline (20 tickers x 600 days, sector layer on, short
training) runs once; each test corrupts a copy of its artifacts in one way.
Except for the manifest test, the copy's manifests are re-sealed with fresh
hashes, so only the check under test can notice.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402

SMALL = run.Workload(20, 600, per_stage=False, sector_layer=True, round_seconds=10,
                     model={"kinds": list(run.KINDS), "stride": 2, "epochs": 2,
                            "forest_trees": 5})


@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("bench") / "round")
    rnd = run.run_round(SMALL, 3, workdir, trace=False)
    assert rnd.ok, rnd.problems + rnd.notes
    panel, config = run.make_inputs(SMALL, 3, str(tmp_path_factory.mktemp("inputs")))
    return os.path.join(workdir, "out"), panel, config


@pytest.fixture
def copy(real_run, tmp_path):
    out, panel, config = real_run
    dst = str(tmp_path / "out")
    shutil.copytree(out, dst)
    return dst, panel, config


def reseal(out: str) -> None:
    for name in os.listdir(out):
        if name.startswith("manifest_"):
            path = os.path.join(out, name)
            with open(path, encoding="utf-8") as fh:
                man = json.load(fh)
            man["outputs"] = {k: checks.sha256_file(os.path.join(out, k))
                              for k in man["outputs"]}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(man, fh)


def problems_after(out: str, panel, config, seal: bool = True) -> list[str]:
    if seal:
        reseal(out)
    return checks.check_round(out, panel, config)[0]


def edit_snapshot(out: str, index: int, edit) -> None:
    path = os.path.join(out, "graphs.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rec = json.loads(lines[1 + index])
    edit(rec)
    lines[1 + index] = json.dumps(rec, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def edit_report(out: str, kind: str, metric: str, change) -> None:
    path = os.path.join(out, "report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    metrics = report["models"][kind]["metrics"]
    metrics[metric] = change(metrics[metric])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def edit_rows(path: str, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def tags(problems: list[str]) -> set[str]:
    return {p.split(":", 1)[0] for p in problems}


def test_real_run_passes(copy):
    assert problems_after(*copy, seal=False) == []


def test_dropped_edge(copy):
    out = copy[0]
    edit_snapshot(out, 0, lambda rec: rec["layers"]["correlation"].pop())
    assert tags(problems_after(*copy)) == {"edges"}


def test_nudged_edge_weight(copy):
    def nudge(rec):
        rec["layers"]["correlation"][0][2] += 1e-9
    edit_snapshot(copy[0], 0, nudge)
    assert tags(problems_after(*copy)) == {"edges"}


def test_dropped_sector_edge(copy):
    edit_snapshot(copy[0], 0, lambda rec: rec["layers"]["sector"].pop())
    assert tags(problems_after(*copy)) == {"sector"}


def test_missing_snapshot(copy):
    path = os.path.join(copy[0], "graphs.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-2] + lines[-1:]) + "\n")
    assert "count" in tags(problems_after(*copy))


def test_flipped_label(copy):
    def flip(rows):
        row = next(r for r in rows[1:] if r[1] != "")
        row[1] = "1" if row[1] == "0" else "0"
    edit_rows(os.path.join(copy[0], "graph_labels.csv"), flip)
    assert tags(problems_after(*copy)) == {"labels"}


def test_split_off_by_one(copy):
    path = os.path.join(copy[0], "split.json")
    with open(path, encoding="utf-8") as fh:
        split = json.load(fh)
    split["test_dates"] = split["test_dates"][1:]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(split, fh)
    assert tags(problems_after(*copy)) == {"split"}


@pytest.mark.parametrize("metric", ["auroc", "auprc"])
def test_report_metric_nudged(copy, metric):
    edit_report(copy[0], "gcn", metric, lambda v: v - 1e-6)
    assert tags(problems_after(*copy)) == {metric}


def test_confusion_count_edited(copy):
    edit_report(copy[0], "logistic", "tp", lambda v: v + 1)
    assert tags(problems_after(*copy)) == {"confusion"}


def test_score_out_of_range(copy):
    def spoil(rows):
        rows[1][1] = "1.5"
    edit_rows(os.path.join(copy[0], "timeline_forest.csv"), spoil)
    assert tags(problems_after(*copy)) == {"range"}


def test_scored_date_off_grid(copy):
    edit_rows(os.path.join(copy[0], "timeline_temporal.csv"), lambda rows: rows.pop(1))
    assert tags(problems_after(*copy)) == {"grid"}


def test_edited_byte_under_manifest(copy):
    path = os.path.join(copy[0], "features.csv")
    with open(path, "r+b") as fh:
        fh.seek(100)
        byte = fh.read(1)
        fh.seek(100)
        fh.write(b"7" if byte != b"7" else b"8")
    assert tags(problems_after(*copy, seal=False)) == {"manifest"}


def test_auroc_floors():
    assert checks.auroc_floors({"gcn": 0.95, "temporal": 0.99}, {"temporal": 0.9}) == []
    assert len(checks.auroc_floors({"gcn": 0.79, "logistic": 0.5}, {"gcn": 0.8})) == 2


def test_exact_edges_match_rational_spearman():
    rng = np.random.default_rng(0)
    window = rng.integers(0, 4, size=(12, 7)).astype(float)  # many ties
    iu, ju = np.triu_indices(12, 1)
    got = checks._exact_edges(window, iu, ju, 0.5)
    for i, j, g in zip(iu, ju, got):
        a, b = (list(map(Fraction, checks.rankdata(window[k]))) for k in (i, j))
        ma, mb = sum(a) / 7, sum(b) / 7
        num = sum((x - ma) * (y - mb) for x, y in zip(a, b))
        ssa, ssb = sum((x - ma) ** 2 for x in a), sum((y - mb) ** 2 for y in b)
        assert g == (ssa > 0 and ssb > 0 and num * num >= ssa * ssb / 4)


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "shipped-44"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
