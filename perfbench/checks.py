"""Output checks for one benchmark round, computed apart from the program.

Every expected value here is recomputed from the generated price array and
the config the benchmark wrote: log returns and Spearman correlations with
SciPy, drawdown labels with NumPy, and ranking metrics by brute-force pair
counting. Nothing is imported from ``srr``. Each check returns a list of
problems, each prefixed with the check's tag; an empty list means the round
passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.stats import rankdata, spearmanr

# The largest default feature window (vol_60): the first feature date is
# the 61st price date, so this many leading dates carry no snapshot.
FEATURE_WARMUP = 60
# Snapshots whose edges are recomputed: about this many, evenly spaced, and the last.
SNAPSHOT_SAMPLES = 40
# |rho| this close to tau is decided exactly, with rational arithmetic.
BOUNDARY_TOL = 1e-9
WEIGHT_TOL = 1e-12
METRIC_TOL = 1e-9
LABEL_TOL = 1e-12


@dataclass
class Panel:
    """The generated inputs: prices[i, t] is tickers[i] on dates[t]."""

    dates: list[str]
    tickers: list[str]
    prices: np.ndarray
    sectors: dict[str, str] | None = None


@dataclass
class Notes:
    """What the checks excused or decided specially, for the run's stderr."""

    boundary_pairs: int = 0
    label_ties: int = 0


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- expected values ------------------------------------------------------------

def portfolio_labels(prices: np.ndarray, threshold: float, horizon: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Equal-weight-portfolio drawdown label per price date, and its margin.

    Date t is positive when the portfolio bought at t (every ticker scaled to
    1) is worth at most 1 - threshold on some day t+1..t+horizon. The margin
    is that worst value minus (1 - threshold). The last horizon dates get no
    label (NaN margin).
    """
    n_dates = prices.shape[1]
    margin = np.full(n_dates, np.nan)
    for t in range(n_dates - horizon):
        worst = np.min(np.mean(prices[:, t + 1:t + horizon + 1] / prices[:, t:t + 1], axis=0))
        margin[t] = worst - (1.0 - threshold)
    return margin <= 0.0, margin


@dataclass
class Grid:
    """Feature dates, labels and the split, as the config defines them."""

    dates: list[str]  # feature dates
    labeled: np.ndarray  # bool per feature date
    label: np.ndarray  # bool per feature date (meaningful where labeled)
    margin: np.ndarray
    n_train: int  # floor(ratio * len(dates)); test starts here
    horizon: int

    @classmethod
    def of(cls, panel: Panel, config: dict) -> "Grid":
        horizon = config["labels"]["horizon"]
        label, margin = portfolio_labels(panel.prices, config["labels"]["threshold"], horizon)
        dates = panel.dates[FEATURE_WARMUP:]
        return cls(dates=dates, labeled=~np.isnan(margin[FEATURE_WARMUP:]),
                   label=label[FEATURE_WARMUP:], margin=margin[FEATURE_WARMUP:],
                   n_train=math.floor(config["split"]["ratio"] * len(dates)),
                   horizon=horizon)

    def scored(self, kind: str, model: dict) -> list[int]:
        """Feature-date indices a model of this kind scores on the test side."""
        stride, k = model.get("stride", 5), model.get("sequence_length", 5)
        if kind in ("logistic", "forest"):
            grid = range(len(self.dates))
        elif kind == "gcn":
            grid = range(0, len(self.dates), stride)
        else:  # temporal: a sequence ends at the k-th sampled snapshot or later
            grid = range((k - 1) * stride, len(self.dates), stride)
        return [f for f in grid if f >= self.n_train and self.labeled[f]]


# -- checks ------------------------------------------------------------------------

STAGES = ("ingest", "features", "graphs", "train", "evaluate", "report")


def check_manifests(out: str) -> list[str]:
    """Every stage manifest exists and its output hashes match the files."""
    problems = []
    for stage in STAGES:
        path = os.path.join(out, f"manifest_{stage}.json")
        if not os.path.exists(path):
            problems.append(f"manifest: {stage} wrote no manifest")
            continue
        with open(path, encoding="utf-8") as fh:
            outputs = json.load(fh).get("outputs", {})
        if not outputs:
            problems.append(f"manifest: {stage} lists no outputs")
        for name, recorded in sorted(outputs.items()):
            target = os.path.join(out, name)
            if not os.path.exists(target):
                problems.append(f"manifest: {stage} lists missing {name}")
            elif sha256_file(target) != recorded:
                problems.append(f"manifest: {name} does not match its {stage} hash")
    return problems


def _exact_edges(window: np.ndarray, iu: np.ndarray, ju: np.ndarray, tau: float
                 ) -> np.ndarray:
    """|Spearman rho| >= tau for the pairs (iu, ju), decided in integers.

    Average ranks are halves, so with A = 2 * ranks: rho = num / sqrt(ssa * ssb)
    where num = n*sum(AB) - sum(A)*sum(B), ssa = n*sum(A^2) - sum(A)^2 (and ssb),
    and |rho| >= p/q exactly when q^2 num^2 >= p^2 ssa ssb.
    """
    a = np.rint(2.0 * rankdata(window, axis=1)).astype(np.int64)
    n = a.shape[1]
    s, ss = a.sum(axis=1), (a * a).sum(axis=1)
    num = n * (a[iu] * a[ju]).sum(axis=1) - s[iu] * s[ju]
    ssa, ssb = n * ss[iu] - s[iu] ** 2, n * ss[ju] - s[ju] ** 2
    t = Fraction(tau)
    return np.array([x > 0 and y > 0 and t.denominator ** 2 * v * v >= t.numerator ** 2 * x * y
                     for v, x, y in zip(num.tolist(), ssa.tolist(), ssb.tolist())], dtype=bool)


def _expected_edges(window: np.ndarray, tau: float, notes: Notes
                    ) -> tuple[set[tuple[int, int]], np.ndarray]:
    """Correlation edge set {i<j : |rho| >= tau} of one N x W return window."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a constant window: NaN, handled below
        rho = np.asarray(spearmanr(window.T).statistic, dtype=np.float64)
    n = window.shape[0]
    iu, ju = np.triu_indices(n, 1)
    r = np.abs(rho[iu, ju])
    r = np.where(np.isnan(r), 0.0, r)  # a constant window has no ranks: no edges
    keep = r >= tau
    near = np.abs(r - tau) <= BOUNDARY_TOL
    if near.any():
        notes.boundary_pairs += int(near.sum())
        keep[near] = _exact_edges(window, iu[near], ju[near], tau)
    return set(zip(iu[keep].tolist(), ju[keep].tolist())), rho


def check_graphs(out: str, panel: Panel, config: dict, grid: Grid, notes: Notes) -> list[str]:
    """Snapshot count and dates, sampled correlation edges, sector layer, labels."""
    problems = []
    graph = config.get("graph", {})
    window, tau = graph.get("window", 7), graph.get("tau", 0.5)
    order = sorted(range(len(panel.tickers)), key=lambda i: panel.tickers[i])
    nodes = [panel.tickers[i] for i in order]
    log_ret = np.log(panel.prices[order, 1:] / panel.prices[order, :-1])
    expected_sector = None
    if graph.get("sector_layer"):
        sec = [panel.sectors[t] for t in nodes]
        expected_sector = {(i, j) for i in range(len(nodes))
                           for j in range(i + 1, len(nodes)) if sec[i] == sec[j]}
    n_snap = len(grid.dates)
    step = max(1, -(-n_snap // SNAPSHOT_SAMPLES))
    seen = 0
    with open(os.path.join(out, "graphs.jsonl"), "rb") as fh:  # decode sampled lines only
        header = json.loads(fh.readline())
        if header.get("snapshots") != n_snap:
            problems.append(f"count: header says {header.get('snapshots')} snapshots, "
                            f"expected {n_snap}")
        for f, line in enumerate(fh):
            seen += 1
            if f >= n_snap or (f % step and f != n_snap - 1):
                continue
            rec = json.loads(line)
            where = f"snapshot {f} ({grid.dates[f]})"
            if rec["date"] != grid.dates[f]:
                problems.append(f"count: {where} is dated {rec['date']}")
                continue
            if rec["nodes"] != nodes:
                problems.append(f"edges: {where} has another node order")
                continue
            label = int(grid.label[f]) if grid.labeled[f] else None
            if rec["graph_label"] != label and (label is None
                                                or abs(grid.margin[f]) > LABEL_TOL):
                problems.append(f"labels: {where} carries label {rec['graph_label']}, "
                                f"expected {label}")
            r_end = FEATURE_WARMUP + f - 1  # return column of the move into this date
            block = log_ret[:, r_end + 1 - window:r_end + 1]
            want, rho = _expected_edges(block, tau, notes)
            edges = np.asarray(rec["layers"].get("correlation", []),
                               dtype=np.float64).reshape(-1, 3)
            gi, gj = edges[:, 0].astype(int), edges[:, 1].astype(int)
            got = set(zip(gi.tolist(), gj.tolist()))
            if got != want or len(got) != len(gi):
                extra, missing = sorted(got - want), sorted(want - got)
                problems.append(f"edges: {where} has {len(extra)} extra and {len(missing)} "
                                f"missing correlation edges (e.g. {(extra + missing)[:2]})")
            elif gi.size:
                off = np.abs(edges[:, 2] - rho[gi, gj])
                if off.max() > WEIGHT_TOL:
                    problems.append(f"edges: {where} has an edge weight {off.max():.3g} "
                                    f"away from its Spearman rho")
            if expected_sector is not None:
                sector = rec["layers"].get("sector", [])
                if ({(i, j) for i, j, _ in sector} != expected_sector
                        or len(sector) != len(expected_sector)
                        or any(w != 1.0 for _, _, w in sector)):
                    problems.append(f"sector: {where} sector layer is not exactly the "
                                    f"same-sector pairs")
            elif "sector" in rec["layers"]:
                problems.append(f"sector: {where} has a sector layer the config turned off")
    if seen != n_snap:
        problems.append(f"count: {seen} snapshots, expected {n_snap} "
                        f"({len(panel.dates)} dates minus {FEATURE_WARMUP} warm-up)")
    return problems


def check_graph_labels(out: str, grid: Grid, notes: Notes) -> list[str]:
    """graph_labels.csv equals the recomputed portfolio drawdown labels."""
    with open(os.path.join(out, "graph_labels.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["date", "graph_label"]:
        return [f"labels: unexpected header {rows[0]}"]
    rows = rows[1:]
    if [r[0] for r in rows] != grid.dates:
        return ["labels: graph_labels.csv dates are not the feature dates"]
    problems = []
    for f, (day, value) in enumerate(rows):
        want = str(int(grid.label[f])) if grid.labeled[f] else ""
        if value == want:
            continue
        if grid.labeled[f] and abs(grid.margin[f]) <= LABEL_TOL:
            notes.label_ties += 1
            continue
        problems.append(f"labels: {day} is {value!r}, expected {want!r}")
    return problems[:5]


def check_split(out: str, grid: Grid) -> list[str]:
    """Train and test sizes follow from split.ratio and the horizon embargo."""
    with open(os.path.join(out, "split.json"), encoding="utf-8") as fh:
        split = json.load(fh)
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    train = grid.dates[:grid.n_train - grid.horizon]
    test = grid.dates[grid.n_train:]
    problems = []
    if split["train_dates"] != train or split["test_dates"] != test:
        problems.append(f"split: split.json has {len(split['train_dates'])} train / "
                        f"{len(split['test_dates'])} test dates, expected "
                        f"{len(train)} / {len(test)}")
    if report["split"] != {"train_days": len(train), "test_days": len(test)}:
        problems.append(f"split: report.json says {report['split']}")
    return problems


def pair_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of (positive, negative) pairs the positive outscores, ties half."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def positional_auprc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean over positives of the precision among all scores >= that positive's."""
    at_or_above = scores[None, :] >= scores[labels == 1][:, None]
    hits = (at_or_above & (labels == 1)[None, :]).sum(axis=1)
    return float(np.mean(hits / at_or_above.sum(axis=1)))


def read_timeline(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return ([r[0] for r in rows], np.array([float(r[1]) for r in rows]),
            np.array([int(r[2]) for r in rows]))


def check_models(out: str, config: dict, grid: Grid) -> tuple[list[str], dict[str, float]]:
    """Per model: scored grid, labels, score range, and the report's metrics."""
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    threshold = config.get("evaluate", {}).get("threshold", 0.5)
    problems, aurocs = [], {}
    for kind in config["model"]["kinds"]:
        path = os.path.join(out, f"timeline_{kind}.csv")
        if kind not in report["models"] or not os.path.exists(path):
            problems.append(f"auroc: {kind} has no report entry or timeline")
            continue
        dates, scores, labels = read_timeline(path)
        want = grid.scored(kind, config["model"])
        if dates != [grid.dates[f] for f in want]:
            problems.append(f"grid: {kind} scored {len(dates)} dates, expected the "
                            f"{len(want)} labeled test dates on its sample grid")
            continue
        expected = [int(grid.label[f]) for f in want]
        if labels.tolist() != expected:
            unsure = [abs(grid.margin[f]) <= LABEL_TOL for f in want]
            if any(a != b and not u for a, b, u in zip(labels.tolist(), expected, unsure)):
                problems.append(f"labels: {kind} timeline labels differ from the "
                                f"recomputed drawdown labels")
        if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
            problems.append(f"range: {kind} scores are not finite values in [0, 1]")
            continue
        metrics = report["models"][kind]["metrics"]
        pred = scores > threshold
        counts = {"n": int(scores.size),
                  "tp": int(np.sum(pred & (labels == 1))), "fp": int(np.sum(pred & (labels == 0))),
                  "tn": int(np.sum(~pred & (labels == 0))), "fn": int(np.sum(~pred & (labels == 1)))}
        for name, value in counts.items():
            if metrics.get(name) != value:
                problems.append(f"confusion: {kind} {name}={metrics.get(name)}, recount {value}")
        if labels.min() == labels.max():
            problems.append(f"auroc: {kind} test labels are single-class")
            continue
        for name, value in (("auroc", pair_auroc(scores, labels)),
                            ("auprc", positional_auprc(scores, labels))):
            got = metrics.get(name)
            if got is None or abs(got - value) > METRIC_TOL:
                problems.append(f"{name}: {kind} report says {got!r}, recomputed {value!r}")
        aurocs[kind] = float(metrics["auroc"])
    return problems, aurocs


def auroc_floors(aurocs: dict[str, float], floors: dict[str, float]) -> list[str]:
    """Planted-regime floors: every model above 0.5, and any per-kind floor."""
    notes = []
    for kind, value in sorted(aurocs.items()):
        floor = max(0.5, floors.get(kind, 0.5))
        if not (value > 0.5 and value >= floor):
            notes.append(f"{kind} AUROC {value:.3f} is below its floor {floor:.2f}")
    return notes


def check_round(out: str, panel: Panel, config: dict
                ) -> tuple[list[str], dict[str, float], Notes]:
    """All output checks of one finished pipeline; returns (problems, aurocs, notes)."""
    notes = Notes()
    grid = Grid.of(panel, config)
    problems = check_manifests(out)
    problems += check_graphs(out, panel, config, grid, notes)
    problems += check_graph_labels(out, grid, notes)
    problems += check_split(out, grid)
    model_problems, aurocs = check_models(out, config, grid)
    return problems + model_problems, aurocs, notes
