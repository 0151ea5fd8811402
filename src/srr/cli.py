"""Command-line pipeline: ingest -> features -> graphs -> train -> evaluate -> report.

Each stage writes its artifacts to the output directory and records a stage
manifest (config hash, input and output content hashes). What the graphs and
models use is derived from the ingested ``prices.csv`` (and ``universe.json``) and
the run's ``macro.csv``: ``run-all`` builds it once, a stage run alone derives it
again, and both write the same bytes. The other features and graphs files are
exports, hashed but never parsed. While ``run-all`` trains, a forked child runs
the first three stage commands on what it built; its error is raised in the
parent, which trains no further kind. A stage refuses missing or stale artifacts
of any earlier stage and says which stage to rerun. Identical config + seed
produce byte-identical artifacts; nothing written here embeds a timestamp.

Exit codes, set by ``main`` alone: 0 success, 1 usage/config/out path, 2 data/memory, 3 numerical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import select
import signal
import sys
import traceback
from dataclasses import asdict

import numpy as np

from .config import MODEL_KINDS, Config, PRESETS, config_hash, load_config
from .errors import ConfigError, DataError, NumericalError, SrrError
from .evaluation import (compute_metrics, crash_windows, lead_times, pr_points, roc_points,
                         summary_table)
from .features import (FeaturePanel, Standardization, apply_standardization,
                       attach_labels, compute_features, feature_names, standardize,
                       write_features_csv, write_graph_labels_csv)
from .features import read_features_csv  # noqa: F401 -- perfbench/traced_srr.py hooks it here
from .graphs import GraphSnapshot, build_snapshots, write_snapshots_jsonl
from .graphs import read_snapshots_jsonl  # noqa: F401 -- perfbench/traced_srr.py hooks it here
from .market_data import (PricePanel, ingest_csv, log_returns, read_csv, read_macro_csv,
                          read_universe_csv, sha256_file, write_csv, write_macro_csv,
                          write_panel_csv)
from .models.baselines import day_feature_names
from .models.state import deserialize, parameter_count, serialize
from .plots import grouped_bar_chart, hbar_chart, line_chart
from .training import (DataBundle, SplitPlan, _header, _samples, check_state,
                       chronological_split, predict_scores, train)

__all__ = ["main"]

STAGES = ("ingest", "features", "graphs", "train", "evaluate", "report")


# -- small file helpers -------------------------------------------------------

def _drop_none(obj):
    if isinstance(obj, dict):
        return {k: _drop_none(v) for k, v in obj.items() if v is not None}
    return obj


def _write_json(path: str, obj) -> None:
    """The one writer of every JSON artifact: sorted keys, None omitted, arrays as lists."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(_drop_none(obj), sort_keys=True, indent=2,
                            default=np.ndarray.tolist) + "\n")


@contextlib.contextmanager
def _json_artifact(path: str):
    """The decoded JSON at ``path``. Invalid JSON, or a key the block finds
    missing or of the wrong type, is a DataError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield json.load(fh)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path} is malformed ({type(exc).__name__}: {exc})") from None


@contextlib.contextmanager
def _rerun(upstream: str, path: str = ""):
    """A DataError from the block, after ``path`` if given, ends 'rerun `srr <upstream>`'."""
    try:
        yield
    except DataError as exc:
        where = f"{path}: " if path else ""
        raise DataError(f"{where}{exc}; rerun `srr {upstream}`") from None


def _fork(what: str, fn):
    """Run ``fn()`` in a forked child that flushes stdout and leaves by ``os._exit``. ``join()``
    waits, then returns what ``fn`` returned or raises what it raised, on every call;
    ``join(wait=False)`` returns None while the child runs. A kill by a signal, or no reply
    (say, an exception that does not pickle), is an SrrError naming ``what``. Without
    ``os.fork``, ``fn`` runs now."""
    if not hasattr(os, "fork"):
        result = fn()
        return lambda wait=True: result
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            try:
                reply = pickle.dumps((None, fn()))
            except BaseException as exc:  # sent to the parent, never raised here
                if hasattr(exc, "add_note"):  # Python 3.11+: pickling drops the child's frames
                    exc.add_note(f"raised in the {what} child:\n{traceback.format_exc()}")
                reply = pickle.dumps((exc, None))
            pickle.loads(reply)  # a reply the parent could not load is no reply
            sys.stdout.flush()  # a buffered stdout is lost at os._exit
            with os.fdopen(write_end, "wb") as fh:
                fh.write(reply)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    outcome = []

    def join(wait=True):
        if not outcome and (wait or select.select([read_end], [], [], 0)[0]):
            with os.fdopen(read_end, "rb") as fh:
                reply = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            outcome[:] = pickle.loads(reply) if reply and not code else (SrrError(
                f"{what}: child ended by {signal.Signals(-code).name}" if code < 0
                else f"{what}: child exited with status {code} and no reply"), None)
        error, result = outcome or (None, None)  # no outcome while the child runs
        if error is not None:
            raise error.with_traceback(None)  # each raise starts from this frame alone
        return result
    return join


def _outputs(kinds: tuple[str, ...], macro: bool) -> dict[str, list[str]]:
    """The files each stage writes and records with these model kinds and with or without
    a macro overlay; every later stage checks them. Report records those it drew."""
    return {
        "ingest": ["prices.csv", "provenance.json", "universe.json"],
        "features": ["features.csv", "graph_labels.csv", "standardization.json", "split.json"]
                    + (["macro.csv"] if macro else []),
        "graphs": ["graphs.jsonl"],
        "train": [name for kind in kinds
                  for name in (f"model_{kind}.srrm", f"training_log_{kind}.json")],
        "evaluate": ["report.json"] + [f"timeline_{kind}.csv" for kind in kinds],
        "report": ["summary.txt", "roc.svg", "pr.svg", "risk_timeline.svg", "lead_times.svg",
                   "feature_importance.svg"],
    }


class Run:
    """One configured pipeline run rooted at the output directory."""

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.hash = config_hash(cfg)
        self.outputs = _outputs(cfg.model.kinds, cfg.data.macro_csv is not None)
        self.built: dict = {}  # what run-all built, by stage, and "bundle"; alone a stage derives it
        os.makedirs(cfg.out, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.cfg.out, name)

    def write_manifest(self, stage: str, inputs: dict[str, str],
                       outputs: list[str] | None = None) -> None:
        """Record ``stage``'s run, and remove the files it writes under another config but
        did not write now, so the directory holds no file that no manifest lists."""
        outputs = outputs or self.outputs[stage]
        for name in set(_outputs(MODEL_KINDS, True)[stage]).difference(outputs):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path(name))
        _write_json(self.path(f"manifest_{stage}.json"), {
            "config_hash": self.hash,
            "inputs": inputs,
            "outputs": {name: sha256_file(self.path(name)) for name in outputs},
        })

    def require(self, stage: str) -> dict[str, str]:
        """Check every stage before ``stage``, in order: fail loudly if one of its
        files is missing, edited or stale, or if it was built from another version
        of a file checked before it; returns {name: sha256} of every file checked,
        for ``stage``'s manifest."""
        checked: dict[str, str] = {}
        for upstream in STAGES[:STAGES.index(stage)]:
            with _rerun(upstream):
                for name in self.outputs[upstream]:
                    if not os.path.exists(self.path(name)):
                        raise DataError(f"missing artifact {name} (needed by '{stage}')")
                man_path = self.path(f"manifest_{upstream}.json")
                if not os.path.exists(man_path):
                    raise DataError(f"no stage manifest for '{upstream}'")
                with _json_artifact(man_path) as man:
                    if man.get("config_hash") != self.hash:  # the hash covers the seed
                        raise DataError(f"artifacts from stage '{upstream}' are stale "
                                        "(config or seed changed)")
                    changed = [name for name, digest in checked.items()
                               if man["inputs"].get(name, digest) != digest]
                    if changed:
                        raise DataError(f"stage '{upstream}' was built from another {changed[0]}")
                    for name in self.outputs[upstream]:
                        checked[name] = sha256_file(self.path(name))
                        if man.get("outputs", {}).get(name) != checked[name]:
                            raise DataError(f"artifact {name} no longer matches the "
                                            f"'{upstream}' manifest")
        return checked


# -- stage: ingest ------------------------------------------------------------

def _ingest(cfg: Config) -> tuple[PricePanel, dict]:
    if cfg.data.prices_csv is None:
        raise ConfigError("data.prices_csv is required for `srr ingest`")
    universe = None
    if cfg.data.universe_csv is not None:
        universe = read_universe_csv(cfg.data.universe_csv)
    tickers = list(cfg.data.tickers or universe or ()) or None
    start, end = cfg.period.resolve()
    return ingest_csv(cfg.data.prices_csv, tickers=tickers, start=start, end=end,
                      universe=universe)


def cmd_ingest(run: Run) -> None:
    cfg = run.cfg
    panel, provenance = run.built.get("ingest") or _ingest(cfg)
    write_panel_csv(panel, run.path("prices.csv"))
    _write_json(run.path("provenance.json"), provenance)
    _write_json(run.path("universe.json"), panel.universe_meta or {})
    run.write_manifest("ingest", {path: sha256_file(path) for path in (
        cfg.data.prices_csv, cfg.data.universe_csv) if path is not None})
    print(f"ingest: {len(panel.tickers)} tickers x {len(panel.dates)} dates -> "
          f"{run.path('prices.csv')}")


# -- stage: features ----------------------------------------------------------

def _ingested_panel(run: Run) -> PricePanel:
    """The panel that ingest wrote to ``prices.csv``; with the sector layer on,
    its sector map is ``universe.json``."""
    with _rerun("ingest"):
        panel, _ = ingest_csv(run.path("prices.csv"))
    if run.cfg.graph.sector_layer:
        with _rerun("ingest"), _json_artifact(run.path("universe.json")) as meta:
            if not isinstance(meta, dict) or not all(isinstance(s, str) for s in meta.values()):
                raise TypeError("expected an object mapping tickers to sector names")
            panel.universe_meta = meta
    return panel


def _attach_macro(macro_csv: str, fpanel) -> None:
    """Align the day-level overlay onto the feature dates."""
    dates, names, values = read_macro_csv(macro_csv)
    for what, taken in ("day-feature", day_feature_names(fpanel)), ("node-feature", fpanel.names):
        clash = set(names).intersection(taken)  # the overlay is not attached yet
        if clash:
            raise DataError(f"macro file {macro_csv}: macro column {min(clash)!r} repeats "
                            f"the name of a {what} column")
    have = {d: i for i, d in enumerate(dates)}
    missing = [d for d in fpanel.dates if d not in have]
    if missing:
        raise DataError(
            f"macro file {macro_csv} lacks {len(missing)} feature dates "
            f"(first: {missing[0]})")
    fpanel.macro = values[[have[d] for d in fpanel.dates], :]
    fpanel.macro_names = names


def _derive_features(cfg: Config, panel: PricePanel, macro_csv: str | None
                     ) -> tuple[FeaturePanel, FeaturePanel, SplitPlan]:
    """The raw labeled feature panel of ``panel``, with the overlay of
    ``macro_csv`` attached if given, the standardized panel the models read
    (identity statistics unless ``features.standardize``) and the split."""
    fpanel = compute_features(panel, vol_windows=cfg.features.vol_windows,
                              dd_windows=cfg.features.dd_windows,
                              mom_windows=cfg.features.momentum_windows)
    attach_labels(fpanel, panel, threshold=cfg.labels.threshold,
                  horizon=cfg.labels.horizon)
    if macro_csv is not None:
        _attach_macro(macro_csv, fpanel)

    split = chronological_split(fpanel.dates, ratio=cfg.split.ratio,
                                horizon=cfg.labels.horizon)
    if cfg.features.standardize:
        return fpanel, standardize(fpanel, (split.train_dates[0], split.train_dates[-1])), split
    n_f = len(fpanel.names)
    return fpanel, apply_standardization(
        fpanel, Standardization(np.zeros(n_f), np.ones(n_f))), split


def cmd_features(run: Run) -> None:
    cfg = run.cfg
    inputs = run.require("features")
    fpanel, zpanel, split = run.built.get("features") or _derive_features(
        cfg, _ingested_panel(run), cfg.data.macro_csv)
    write_features_csv(fpanel, run.path("features.csv"))
    write_graph_labels_csv(fpanel, run.path("graph_labels.csv"))
    _write_json(run.path("standardization.json"), asdict(zpanel.standardization))
    _write_json(run.path("split.json"), asdict(split))
    if cfg.data.macro_csv is not None:
        write_macro_csv(run.path("macro.csv"), fpanel.dates, fpanel.macro_names, fpanel.macro)
        inputs[cfg.data.macro_csv] = sha256_file(cfg.data.macro_csv)
    run.write_manifest("features", inputs)
    print(f"features: {len(fpanel.dates)} dates x {len(fpanel.names)} features, "
          f"{len(split.train_dates)} train / {len(split.test_dates)} test days")


# -- stage: graphs --------------------------------------------------------------

def _snapshots(cfg: Config, panel: PricePanel, fpanel: FeaturePanel) -> list[GraphSnapshot]:
    """One snapshot per feature date; labels from ``fpanel``, sectors from ``panel``."""
    sector_map = panel.universe_meta if cfg.graph.sector_layer else None
    if cfg.graph.sector_layer and not sector_map:
        raise DataError("graph.sector_layer is on but the ingested universe carries no sector labels")
    return build_snapshots(
        log_returns(panel), fpanel.dates,
        [int(y) if v else None for y, v in zip(fpanel.graph_labels, fpanel.label_valid)],
        window=cfg.graph.window, tau=cfg.graph.tau, sector_map=sector_map)


def _bundle(run: Run) -> DataBundle:
    """What run-all built for graphs, train and evaluate, or the same derived again from the files."""
    if "bundle" in run.built:
        return run.built["bundle"]
    cfg, panel = run.cfg, _ingested_panel(run)
    with _rerun("features"):
        _, zpanel, split = _derive_features(
            cfg, panel, run.path("macro.csv") if cfg.data.macro_csv is not None else None)
    return DataBundle(panel=zpanel, snapshots=_snapshots(cfg, panel, zpanel), split=split)


def cmd_graphs(run: Run) -> None:
    inputs = run.require("graphs")
    snapshots = _bundle(run).snapshots
    write_snapshots_jsonl(snapshots, run.path("graphs.jsonl"))
    run.write_manifest("graphs", inputs)
    n_edges = sum(len(s.layers["correlation"]) for s in snapshots)
    print(f"graphs: {len(snapshots)} snapshots, {n_edges} correlation edges total")


# -- stages: train / evaluate ----------------------------------------------------

def _fit(run: Run, bundle: DataBundle, written=lambda wait: None) -> dict[str, tuple]:
    """Each kind fit in turn, once every kind has a labeled test sample for evaluate to score."""
    for kind in run.cfg.model.kinds:
        _samples(kind, bundle, _header(kind, run.cfg, bundle.panel), "test", check_only=True)
    fits = {}
    for kind in run.cfg.model.kinds:
        written(wait=False)  # a writer that has failed raises its error before the next kind
        fits[kind] = train(kind, bundle, run.cfg)
    return fits


def cmd_train(run: Run) -> None:
    inputs = run.require("train")
    for kind, (state, log) in (run.built.get("train") or _fit(run, _bundle(run))).items():
        with open(run.path(f"model_{kind}.srrm"), "wb") as fh:
            fh.write(serialize(state))
        _write_json(run.path(f"training_log_{kind}.json"), log)
        print(f"train[{kind}]: {log['samples']} samples, {parameter_count(state)} parameters")
    run.write_manifest("train", inputs)


def _write_timeline(path: str, dates: list[str], scores, labels) -> None:
    write_csv(path, ["date", "score", "label"],
              ((d, float(s), int(y)) for d, s, y in zip(dates, scores, labels)))


def cmd_evaluate(run: Run) -> None:
    cfg = run.cfg
    inputs = run.require("evaluate")
    bundle = _bundle(run)
    valid = bundle.panel.label_valid
    calendar = [d for t, d in enumerate(bundle.panel.dates) if valid[t]]
    daily_labels = bundle.panel.graph_labels[valid]

    models_report = {}
    for kind in cfg.model.kinds:
        with open(run.path(f"model_{kind}.srrm"), "rb") as fh, _rerun("train", fh.name):
            state = deserialize(fh.read())
            check_state(state, kind, cfg, bundle.panel)
        dates, scores, labels = predict_scores(state, bundle, side="test")
        metrics = compute_metrics(scores, labels, threshold=cfg.evaluate.threshold)
        leads = lead_times(calendar, daily_labels, dates, scores,
                           gamma=cfg.evaluate.warn_gamma)
        _write_timeline(run.path(f"timeline_{kind}.csv"), dates, scores, labels)
        entry = {
            "parameter_count": parameter_count(state),
            "metrics": metrics,
            "lead_times": leads,
        }
        if "feature_importance" in state.params:
            entry["feature_importance"] = dict(zip(
                state.hyper["inputs"], state.params["feature_importance"].reshape(-1).tolist()))
        models_report[kind] = entry
        auroc = metrics["auroc"]
        shown = "--" if auroc is None else f"{auroc:.3f}"
        print(f"evaluate[{kind}]: n={metrics['n']} auroc={shown}")

    cfg_echo = asdict(cfg)
    del cfg_echo["out"]
    report = {
        "config": cfg_echo,
        "config_hash": run.hash,
        "split": {"train_days": len(bundle.split.train_dates),
                  "test_days": len(bundle.split.test_dates)},
        "models": models_report,
    }
    _write_json(run.path("report.json"), report)
    run.write_manifest("evaluate", inputs)


# -- stage: report ----------------------------------------------------------------

def _read_timeline(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    def row(r):
        if not np.isfinite(float(r[1])) or r[2] not in ("0", "1"):
            raise ValueError(f"expected a finite score and a 0 or 1 label, got {r[1:]}")
        return r[0], float(r[1]), int(r[2])
    with _rerun("evaluate"):
        _, rows = read_csv(path, "timeline file", "date,score,label", row)
        cells = [cell for _, cell in rows]
    return ([c[0] for c in cells], np.asarray([c[1] for c in cells]),
            np.asarray([c[2] for c in cells]))


def _aggregate_importance(importance: dict[str, float], cfg: Config
                          ) -> tuple[list[str], list[float]]:
    """Fold the per-day mean_<f>/std_<f> columns back onto the base feature names
    ``f``; a macro column keeps its own name, whatever its prefix."""
    base = {f"{stat}_{f}": f for stat in ("mean", "std") for f in feature_names(
        cfg.features.vol_windows, cfg.features.dd_windows, cfg.features.momentum_windows)}
    totals: dict[str, float] = {}
    for name, value in importance.items():
        name = base.get(name, name)
        totals[name] = totals.get(name, 0.0) + value
    ordered = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return [k for k, _ in ordered], [v for _, v in ordered]


def cmd_report(run: Run) -> None:
    cfg = run.cfg
    inputs = run.require("report")
    with _rerun("evaluate"), _json_artifact(run.path("report.json")) as report:
        summary = summary_table(report)
        models = report["models"]
        kinds = sorted(models)
        two_class = [k for k in kinds if models[k]["metrics"].get("auroc") is not None]
        # Lead-time histogram, 5-trading-day bins.
        bins = {k: np.asarray(models[k].get("lead_times", {}).get("lead_times", []),
                              dtype=np.int64) // 5 for k in kinds}
        names, values = _aggregate_importance(next((models[k]["feature_importance"] for k in kinds
                                                    if "feature_importance" in models[k]), {}), cfg)
    timelines = {kind: _read_timeline(run.path(f"timeline_{kind}.csv"))
                 for kind in kinds}
    prov = f"config_hash={run.hash} seed={cfg.seed}"
    outputs = ["summary.txt"]

    def curves(points):  # one (name, xs, ys) series per model, each curve computed once
        return [(k, *map(list, zip(*points(timelines[k][1], timelines[k][2]))))
                for k in two_class]

    if two_class:
        line_chart(run.path("roc.svg"), "ROC curves (test)", curves(roc_points),
                   "false positive rate", "true positive rate",
                   xlim=(0.0, 1.0), ylim=(0.0, 1.0), diagonal=True, provenance=prov)
        line_chart(run.path("pr.svg"), "Precision-recall curves (test)", curves(pr_points),
                   "recall", "precision", xlim=(0.0, 1.0), ylim=(0.0, 1.05),
                   provenance=prov)
        outputs += ["roc.svg", "pr.svg"]

    with open(run.path("summary.txt"), "w", encoding="utf-8", newline="") as fh:
        fh.write(summary)

    # Risk timeline over the union of every model's scored test dates.
    union_dates = sorted({d for dates, _, _ in timelines.values() for d in dates})
    pos = {d: i for i, d in enumerate(union_dates)}
    union_labels = np.zeros(len(union_dates), dtype=np.int8)
    for dates, _, labels in timelines.values():
        union_labels[[pos[d] for d in dates]] = labels
    shaded = [(float(a), float(b) + 1.0) for a, b in crash_windows(union_labels)]
    series = [(k, [float(pos[d]) for d in timelines[k][0]],
               [float(v) for v in timelines[k][1]]) for k in kinds]
    n_ticks = min(6, len(union_dates))
    tick_idx = [round(i * (len(union_dates) - 1) / max(n_ticks - 1, 1))
                for i in range(n_ticks)]
    x_ticks = [(float(i), union_dates[i][:7]) for i in sorted(set(tick_idx))]
    line_chart(run.path("risk_timeline.svg"), "Warning scores over the test window",
               series, "date", "score", xlim=(0.0, float(max(len(union_dates) - 1, 1))),
               ylim=(0.0, 1.0), x_tick_labels=x_ticks, shaded=shaded, provenance=prov)
    outputs.append("risk_timeline.svg")

    n_bins = max((int(b.max()) for b in bins.values() if b.size), default=0) + 1
    categories = [f"{5 * b}-{5 * b + 4}" for b in range(n_bins)]
    bar_series = [(k, np.bincount(bins[k], minlength=n_bins).astype(float).tolist())
                  for k in kinds]
    grouped_bar_chart(run.path("lead_times.svg"), "Warning lead times (test)",
                      categories, bar_series, "lead time (trading days)",
                      "warnings", provenance=prov)
    outputs.append("lead_times.svg")

    if names:
        hbar_chart(run.path("feature_importance.svg"),
                   "Random-forest feature importance",
                   names, values, "mean impurity decrease", provenance=prov)
        outputs.append("feature_importance.svg")

    run.write_manifest("report", inputs, outputs)
    print(f"report: {', '.join(outputs)} -> {cfg.out}")


def cmd_run_all(run: Run) -> None:
    """Every stage in order. The parent builds into ``run.built`` what the first three
    derive and trains while a forked child runs those three commands on it (file
    formatting and hashing, no BLAS, whose threads a child does not inherit)."""
    cfg, built = run.cfg, run.built

    def write_upstream():
        for command in (cmd_ingest, cmd_features, cmd_graphs):
            command(run)
    try:
        built["ingest"] = panel, _ = _ingest(cfg)
        built["features"] = _, zpanel, split = _derive_features(cfg, panel, cfg.data.macro_csv)
        built["bundle"] = bundle = DataBundle(zpanel, _snapshots(cfg, panel, zpanel), split)
    except Exception:
        write_upstream()  # the stages that finished leave their files; the failing one raises
        raise
    written = _fork("writer", write_upstream)
    try:
        built["train"] = _fit(run, bundle, written)
    finally:
        written()  # also when training fails; a writer failure is the error reported
    cmd_train(run)
    cmd_evaluate(run)
    cmd_report(run)


# -- entry point --------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="srr",
                     description="Market-graph crash early-warning pipeline")
    sub = parser.add_subparsers(dest="command")
    for name in STAGES + ("run-all",):
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--preset", default=None, choices=sorted(PRESETS),
                       help="named crisis date range")
        p.add_argument("--out", default=None, help="output directory")
    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "features": cmd_features,
    "graphs": cmd_graphs,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
    "run-all": cmd_run_all,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("missing subcommand (try `srr run-all --config cfg.json`)")
        cfg = load_config(args.config, seed=args.seed, preset=args.preset, out=args.out)
        _COMMANDS[args.command](Run(cfg))
        return 0
    except (SrrError, OSError, MemoryError) as exc:  # OSError: a path the run cannot open
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return (2 if isinstance(exc, (DataError, MemoryError))
                else 3 if isinstance(exc, NumericalError) else 1)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
