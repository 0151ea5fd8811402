#!/usr/bin/env python3
"""Benchmark the `srr` pipeline end to end on seeded synthetic market panels.

    python3 perfbench/run.py --workload shipped-44 [--seed 7] [--seconds 10] [--trace 0]

Run it from the root of a checkout. The benchmark generates a planted-regime
price panel from ``--seed``, writes it and a config into a scratch directory
under ``.perfbench_runs/``, and runs the checkout's own CLI
(``python3 -m srr.cli`` with ``src`` on PYTHONPATH) on it, one stage at a
time. It then checks the outputs against values it recomputes itself
(``checks.py``) and prints the metrics as the last line of standard output::

    {"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up and pipeline
wall time, peak RSS, artifact size, test AUROC); with ``--trace 1`` the stages
run under ``traced_srr.py`` and the metrics are per-layer self times, call
counts, reuse ratios and the traced wall time of each stage.

A run holds ``--seconds // round_seconds`` whole pipeline rounds (at least
one), each on its own panel derived from the seed, and reports the median of
each metric over them. See README.md for the workloads and the checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from checks import STAGES, Panel, auroc_floors, check_round

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
KINDS = ("logistic", "forest", "gcn", "temporal")


@dataclass(frozen=True)
class Workload:
    """One panel shape and config; see README.md for why each was chosen."""

    n_tickers: int
    n_days: int
    per_stage: bool  # six `srr <stage>` processes; otherwise one `srr run-all`
    model: dict
    round_seconds: float  # nominal length of one round; sets the rounds in a run
    sector_layer: bool = False
    auroc_floors: dict = field(default_factory=dict)


WORKLOADS = {
    # The 20 x 600 acceptance fixture with the criterion-8 config.
    "fixture-stages": Workload(
        20, 600, per_stage=True,
        model={"kinds": list(KINDS), "stride": 1, "epochs": 6, "forest_trees": 10},
        round_seconds=10, auroc_floors={"temporal": 0.90, "gcn": 0.80}),
    # The shipped universe (names and sectors), default model settings.
    "shipped-44": Workload(44, 1500, per_stage=False, model={"kinds": list(KINDS)},
                           round_seconds=40, sector_layer=True),
}

END_TO_END = [  # (name, unit)
    ("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"), ("artifact_mb", "MB"),
] + [(f"auroc_{kind}", "ratio") for kind in KINDS]

PER_LAYER_SPANS = [  # (span label, report self seconds, report calls)
    ("market_data.ingest_csv", True, True),
    ("features.read_features_csv", True, True),
    ("features.compute_features", True, False),
    ("features.attach_labels", True, False),
    ("features.write_features_csv", True, False),
    ("graphs.rank_correlation_matrix", True, True),
    ("graphs.build_snapshots", True, False),
    ("graphs.write_snapshots_jsonl", True, False),
    ("graphs.read_snapshots_jsonl", True, True),
    ("models.adjacency_from_snapshot", True, True),
    ("models.gcn_normalize", True, True),
    ("models.gcn_embed", True, True),
    ("models.gcn_embed_backward", True, False),
    ("models.gru_step", True, False),
    ("models.gru_step_backward", True, False),
    ("models.temporal_forward", True, False),
    ("models.temporal_backward", True, False),
    ("models.gcn_forward", True, False),
    ("models.gcn_backward", True, False),
    ("tensor.matmul", True, True),
    ("tensor.add", False, True),
    ("tensor.adam_step", True, True),
    ("tensor.bce_loss", True, False),
    ("models.forest_fit", True, False),
    ("models.forest_predict", True, False),
    ("models.logistic_fit", True, False),
    ("models.logistic_predict", True, False),
    ("models.serialize", True, False),
    ("models.deserialize", True, False),
] + [(f"training.train.{k}", True, False) for k in KINDS] + [
    (f"training.predict_scores.{k}", True, False) for k in KINDS] + [
    ("evaluation.compute_metrics", True, False),
    ("evaluation.lead_times", True, False),
    ("evaluation.roc_points", False, True),
    ("evaluation.pr_points", False, True),
    ("plots.line_chart", True, False),
    ("plots.grouped_bar_chart", True, False),
    ("plots.hbar_chart", True, False),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for label, self_s, calls in PER_LAYER_SPANS:
        if self_s:
            out.append((f"{label}.s", "s", "lower"))
        if calls:
            out.append((f"{label}.calls", "count", "lower"))
    out += [(f"cli.{stage}.self_s", "s", "lower") for stage in STAGES]
    out += [(f"stage.{stage}_s", "s", "lower") for stage in STAGES[:-1]]
    out += [("graphs.jsonl_bytes", "bytes", "lower"),
            ("models.a_hat_used_ratio", "ratio", "higher"),
            ("models.embed_distinct_ratio", "ratio", "higher"),
            ("trace.pipeline_s", "s", "lower")]
    return out


# -- inputs -------------------------------------------------------------------

def read_universe(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {ticker: sector for ticker, sector in rows[1:]}


def make_inputs(wl: Workload, seed: int, workdir: str):
    """Write prices_in.csv (+ universe.csv) and config.json; return the panel."""
    from srr.synthetic import planted_regime_panel

    dates, tickers, prices = planted_regime_panel(wl.n_tickers, wl.n_days, seed)
    data = {"prices_csv": "prices_in.csv"}
    sectors = None
    if wl.sector_layer:  # the first n_tickers names and sectors of the shipped universe
        shipped = read_universe(os.path.join(SRC, "srr", "data", "default_universe.csv"))
        tickers = list(shipped)[:wl.n_tickers]
        sectors = {tk: shipped[tk] for tk in tickers}
        with open(os.path.join(workdir, "universe.csv"), "w", encoding="utf-8",
                  newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [("ticker", "sector"), *sectors.items()])
        data["universe_csv"] = "universe.csv"
    with open(os.path.join(workdir, "prices_in.csv"), "w", encoding="utf-8") as fh:
        fh.write("date,ticker,adj_close\n")
        for t, day in enumerate(dates):
            fh.writelines(f"{day},{tk},{float(prices[i, t])!r}\n"
                          for i, tk in enumerate(tickers))
    config = {
        "data": data,
        "labels": {"threshold": 0.10, "horizon": 20},
        "graph": {"window": 7, "tau": 0.5, "sector_layer": wl.sector_layer},
        "model": dict(wl.model),
        "split": {"ratio": 0.8},
        "seed": seed,
        "out": "out",
    }
    with open(os.path.join(workdir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return Panel(dates=dates, tickers=tickers, prices=prices, sectors=sectors), config


# -- processes ------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    return env


@dataclass
class Proc:
    start: float
    end: float
    lines: list[tuple[float, str]]
    returncode: int
    max_rss: int  # bytes


def spawn(cmd: list[str], cwd: str, log: str | None = None) -> Proc:
    """Run one command to its end, time-stamping each stdout line on arrival."""
    err = open(log, "ab") if log else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
    finally:
        if log:
            err.close()
    lines = []
    try:
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        # wait4, not Popen.wait: it also returns the child's own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(start, time.perf_counter(), lines, proc.returncode, usage.ru_maxrss * 1024)


def setup_probes(n: int) -> list[float]:
    """Wall times of n fresh interpreters importing the srr CLI."""
    times = []
    for _ in range(n):
        p = spawn([sys.executable, "-c", "import srr.cli"], ROOT)
        if p.returncode != 0:
            raise RuntimeError("`import srr.cli` failed")
        times.append(p.end - p.start)
    return times


# -- one round ---------------------------------------------------------------------

@dataclass
class Round:
    ok: bool = True
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    spans: list[str] = field(default_factory=list)


def _stage_times_run_all(p: Proc) -> dict[str, float] | None:
    first, last = {}, {}
    for t, line in p.lines:
        key = line.split("[", 1)[0].split(":", 1)[0]
        first.setdefault(key, t)
        last[key] = t
    marks = [p.start, first.get("ingest"), first.get("features"), first.get("graphs"),
             last.get("train"), last.get("evaluate")]
    if None in marks or "report" not in first:
        return None
    return {f"stage.{stage}_s": b - a for stage, a, b in zip(STAGES, marks, marks[1:])}


def run_pipeline(wl: Workload, workdir: str, trace: bool, rnd: Round) -> None:
    """Run the six stages and fill the round's timing metrics."""
    def command(args: list[str], tag: str) -> list[str]:
        if not trace:
            return [sys.executable, "-m", "srr.cli", *args]
        spans = os.path.join(workdir, f"spans_{tag}.npz")
        rnd.spans.append(spans)
        return [sys.executable, os.path.join(HERE, "traced_srr.py"), spans, *args]

    log = os.path.join(workdir, "stderr.log")
    if wl.per_stage:
        procs = []
        for stage in STAGES:
            p = spawn(command([stage, "--config", "config.json"], stage), workdir, log)
            procs.append(p)
            if p.returncode != 0:
                break
        times = {f"stage.{s}_s": p.end - p.start for s, p in zip(STAGES, procs)}
    else:
        p = spawn(command(["run-all", "--config", "config.json"], "run-all"), workdir, log)
        procs = [p]
        times = _stage_times_run_all(p)
    failed = [p.returncode for p in procs if p.returncode != 0]
    if failed or times is None:
        with open(log, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        rnd.ok = False
        rnd.notes.append(f"pipeline failed (exit {failed}): {tail}")
        return
    times.pop("stage.report_s", None)  # ~10 ms: counted inside pipeline_s only
    rnd.metrics.update(times)
    rnd.metrics["pipeline_s"] = sum(p.end - p.start for p in procs)
    rnd.metrics["peak_rss_mb"] = max(p.max_rss for p in procs) / 1e6


def run_round(wl: Workload, seed: int, workdir: str, trace: bool) -> Round:
    """Generate inputs, run the pipeline, check its outputs, collect metrics."""
    os.makedirs(workdir)
    panel, config = make_inputs(wl, seed, workdir)
    rnd = Round()
    run_pipeline(wl, workdir, trace, rnd)
    if not rnd.ok:
        return rnd
    out = os.path.join(workdir, "out")
    t0 = time.perf_counter()
    problems, aurocs, notes = check_round(out, panel, config)
    rnd.problems = problems
    rnd.ok = not problems
    rnd.notes += [f"floor: {n}" for n in auroc_floors(aurocs, wl.auroc_floors)]
    rnd.notes.append(f"checks took {time.perf_counter() - t0:.1f} s; "
                     f"{notes.boundary_pairs} pairs with |rho| within 1e-9 of tau decided "
                     f"exactly; {notes.label_ties} label ties excused")
    rnd.metrics["artifact_mb"] = sum(
        os.path.getsize(os.path.join(out, name)) for name in os.listdir(out)) / 1e6
    rnd.metrics["graphs.jsonl_bytes"] = os.path.getsize(os.path.join(out, "graphs.jsonl"))
    for kind, value in aurocs.items():
        rnd.metrics[f"auroc_{kind}"] = value
    if trace:
        rnd.metrics.update(layer_metrics(rnd.spans))
        rnd.metrics["trace.pipeline_s"] = rnd.metrics["pipeline_s"]
    return rnd


# -- spans -> per-layer metrics ------------------------------------------------------

def layer_metrics(paths: list[str]) -> dict[str, float]:
    """Self seconds and calls per span label, summed over the round's processes."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    for path in paths:
        with np.load(path) as z:
            labels = [str(s) for s in z["labels"]]
            name, parent = z["name"], z["parent"]
            dur = z["end"] - z["start"]
            has_parent = parent >= 0
            child = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=dur.size)
            own = np.bincount(name, weights=dur - child, minlength=len(labels))
            count = np.bincount(name, minlength=len(labels))
            for i, label in enumerate(labels):
                self_s[label] = self_s.get(label, 0.0) + float(own[i])
                calls[label] = calls.get(label, 0) + int(count[i])
            for key, value in zip(z["counter_names"], z["counter_values"]):
                counters[str(key)] = counters.get(str(key), 0) + int(value)
    metrics: dict[str, float] = {}
    for label, want_s, want_calls in PER_LAYER_SPANS:
        if want_s:
            metrics[f"{label}.s"] = self_s.get(label, 0.0)
        if want_calls:
            metrics[f"{label}.calls"] = calls.get(label, 0)
    for stage in STAGES:
        metrics[f"cli.{stage}.self_s"] = self_s.get(f"cli.{stage}", 0.0)
    metrics["models.a_hat_used_ratio"] = (
        counters["a_hat_read"] / counters["a_hat_built"] if counters.get("a_hat_built") else 0.0)
    metrics["models.embed_distinct_ratio"] = (
        counters["embed_distinct"] / counters["embed_calls"]
        if counters.get("embed_calls") else 0.0)
    return metrics


# -- driver ------------------------------------------------------------------------

def round_seed(seed: int, r: int) -> int:
    """Panel and model seed of round r: the run's own seed first, then far-off ones."""
    return seed + 1_000_003 * r


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not os.path.isfile(os.path.join(SRC, "srr", "cli.py")):
        print(f"error: no srr sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    # BLAS threads are left at the library default and recorded, not set.
    blas_env = {k: os.environ.get(k, "unset")
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    print(f"cpus={os.cpu_count()} numpy={np.__version__} BLAS threads: library default "
          f"({', '.join(f'{k}={v}' for k, v in blas_env.items())})", file=sys.stderr)

    # Set-up probes are spread over the run (before it and after each round),
    # since this machine's speed drifts over tens of seconds.
    setup: list[float] = []
    if not trace:
        setup_probes(1)  # fills the bytecode cache; users do not pay this per run
        setup += setup_probes(3)
    run_dir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    rounds: list[Round] = []
    try:
        for r in range(max(1, int(args.seconds // wl.round_seconds))):
            workdir = os.path.join(run_dir, f"round{r}")
            rounds.append(run_round(wl, round_seed(args.seed, r), workdir, trace))
            shutil.rmtree(workdir, ignore_errors=True)
            if not trace:
                setup += setup_probes(2)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for i, rnd in enumerate(rounds):
        for line in rnd.problems + rnd.notes:
            print(f"round {i}: {line}", file=sys.stderr)
    good = [r for r in rounds if r.ok]
    wanted = per_layer_metrics() if trace else [(n, u, "") for n, u in END_TO_END]
    metrics = {}
    for name, unit, _ in wanted:
        if name == "setup_s":
            metrics[name] = {"value": statistics.median(setup), "unit": unit}
        else:
            values = [r.metrics[name] for r in good if name in r.metrics]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    result = {
        "correct": not any(r.problems for r in rounds),
        "attempted": len(rounds),
        "failed": len(rounds) - len(good),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
