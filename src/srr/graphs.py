"""Rolling rank-correlation market graphs.

A snapshot at date t connects tickers i and j when the Spearman correlation
of their last ``window`` daily log returns satisfies |rho| >= tau (boundary
inclusive). Edges are undirected, stored once with i < j, and keep the
signed rho as metadata. An optional sector layer links same-sector pairs.

Correlations are Pearson correlations of average ranks, computed as
num / sqrt(ssx * ssy) (single square root of the product) so rational
values such as rho = 0.5 come out exact and the inclusive threshold is
well defined. A constant return window has no defined ranks; such nodes
contribute no edges instead of propagating NaN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError
from .market_data import ReturnPanel

GRAPH_FORMAT = "srr-graph-v2"

__all__ = [
    "GraphSnapshot",
    "GraphSequence",
    "average_ranks",
    "spearman",
    "rank_correlation_matrix",
    "build_snapshot",
    "build_snapshots",
    "build_sequences",
    "write_snapshots_jsonl",
    "read_snapshots_jsonl",
    "GRAPH_FORMAT",
]


@dataclass
class GraphSnapshot:
    """One market graph: layered edge lists over a fixed node order.

    Node attributes are not stored here: they are the feature panel's rows
    for ``date`` (``FeaturePanel.node_matrix``).
    """

    date: str
    node_ids: list[str]
    layers: dict[str, list[tuple[int, int, float]]]
    graph_label: int | None = None  # None when the date has no forward label

    def n_nodes(self) -> int:
        return len(self.node_ids)


@dataclass
class GraphSequence:
    """k consecutive sampled snapshots; labeled by the final one."""

    snapshots: list[GraphSnapshot]
    date: str = field(init=False)
    graph_label: int | None = field(init=False)

    def __post_init__(self):
        if not self.snapshots:
            raise DataError("a graph sequence needs at least one snapshot")
        self.date = self.snapshots[-1].date
        self.graph_label = self.snapshots[-1].graph_label


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    n = x.size
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # mean of positions i+1..j+1
        i = j + 1
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    """Spearman rank correlation with average ranks for ties.

    Returns (rho, degenerate). A constant input vector has no rank ordering;
    the result is then (0.0, True) rather than NaN.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ShapeError(f"spearman: length mismatch, {x.shape} vs {y.shape}")
    if x.size < 3:
        raise ShapeError(f"spearman: need >= 3 observations, got {x.size}")
    rx = average_ranks(x)
    ry = average_ranks(y)
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    ssx = float(cx @ cx)
    ssy = float(cy @ cy)
    if ssx == 0.0 or ssy == 0.0:
        return 0.0, True
    rho = float(cx @ cy) / np.sqrt(ssx * ssy)
    return float(np.clip(rho, -1.0, 1.0)), False


def rank_correlation_matrix(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs Spearman over the rows of an N x W window.

    Returns (corr N x N, degenerate mask length N). Rows with constant
    values are flagged; their correlations are set to 0.
    """
    window = np.asarray(window, dtype=np.float64)
    n, w = window.shape
    ranks = np.empty_like(window)
    for i in range(n):
        ranks[i] = average_ranks(window[i])
    centered = ranks - ranks.mean(axis=1, keepdims=True)
    gram = centered @ centered.T
    ss = np.diag(gram).copy()
    degenerate = ss == 0.0
    safe = np.where(degenerate, 1.0, ss)
    corr = gram / np.sqrt(np.outer(safe, safe))
    corr = np.clip(corr, -1.0, 1.0)
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    return corr, degenerate


def build_snapshot(returns: ReturnPanel, date: str, graph_label: int | None = None,
                   window: int = 7, tau: float = 0.5,
                   sector_map: dict[str, str] | None = None) -> GraphSnapshot:
    """Market graph for one date from the trailing return window ending there."""
    if not (0.0 < tau <= 1.0):
        raise DataError(f"tau must be in (0, 1], got {tau}")
    if window < 3:
        raise DataError(f"correlation window must be >= 3 days, got {window}")
    try:
        r_end = returns.dates.index(date)
    except ValueError:
        raise DataError(f"{date} is not a return date of the panel") from None
    if r_end + 1 < window:
        raise DataError(f"only {r_end + 1} return observations at {date}, need {window}")

    block = returns.returns[:, r_end + 1 - window: r_end + 1]
    corr, _ = rank_correlation_matrix(block)
    n = len(returns.tickers)
    corr_edges = [
        (i, j, float(corr[i, j]))
        for i in range(n) for j in range(i + 1, n)
        if abs(corr[i, j]) >= tau
    ]
    layers = {"correlation": corr_edges}

    if sector_map is not None:
        known = set(returns.tickers)
        unknown = sorted(set(sector_map) - known)
        if unknown:
            raise DataError(f"sector map names unknown tickers: {', '.join(unknown)}")
        sectors = [sector_map.get(t) for t in returns.tickers]
        layers["sector"] = [
            (i, j, 1.0)
            for i in range(n) for j in range(i + 1, n)
            if sectors[i] is not None and sectors[i] == sectors[j]
        ]

    return GraphSnapshot(date=date, node_ids=list(returns.tickers), layers=layers,
                         graph_label=graph_label)


def build_snapshots(returns: ReturnPanel, dates: list[str], graph_labels: list[int | None],
                    window: int = 7, tau: float = 0.5,
                    sector_map: dict[str, str] | None = None) -> list[GraphSnapshot]:
    """One snapshot per date, labeled by the matching entry of ``graph_labels``
    (None where the date is unlabeled). Feature dates always qualify: the
    feature warm-up leaves enough trailing returns for any window up to it."""
    if len(dates) != len(graph_labels):
        raise DataError(f"{len(dates)} snapshot dates but {len(graph_labels)} graph labels")
    return [
        build_snapshot(returns, date, graph_label=label, window=window, tau=tau,
                       sector_map=sector_map)
        for date, label in zip(dates, graph_labels)
    ]


def build_sequences(snapshots: list[GraphSnapshot], k: int = 5, stride: int = 5) -> list[GraphSequence]:
    """Subsample every ``stride`` dates (grid anchored at the first snapshot),
    then slide a window of k consecutive sampled snapshots; each window is one
    sequence labeled by its final snapshot."""
    if k < 1:
        raise DataError(f"sequence length k must be >= 1, got {k}")
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    sampled = snapshots[::stride]
    return [GraphSequence(snapshots=sampled[s:s + k]) for s in range(len(sampled) - k + 1)]


# -- serialization ---------------------------------------------------------

def write_snapshots_jsonl(snapshots: list[GraphSnapshot], path: str,
                          meta: dict | None = None) -> None:
    """Line-delimited snapshots: a header record, then one record per date."""
    header = {"format": GRAPH_FORMAT, "snapshots": len(snapshots)}
    if meta:
        header.update(meta)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for snap in snapshots:
            record = {
                "date": snap.date,
                "nodes": snap.node_ids,
                "layers": {
                    name: [[i, j, w] for i, j, w in edges]
                    for name, edges in sorted(snap.layers.items())
                },
                "graph_label": snap.graph_label,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_snapshots_jsonl(path: str) -> tuple[list[GraphSnapshot], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty snapshot file")
    header = json.loads(lines[0])
    if header.get("format") != GRAPH_FORMAT:
        raise DataError(
            f"{path}: expected format {GRAPH_FORMAT}, got {header.get('format')!r}"
        )
    snapshots = []
    for line in lines[1:]:
        rec = json.loads(line)
        snapshots.append(GraphSnapshot(
            date=rec["date"],
            node_ids=list(rec["nodes"]),
            layers={
                name: [(int(i), int(j), float(w)) for i, j, w in edges]
                for name, edges in rec["layers"].items()
            },
            graph_label=rec["graph_label"],
        ))
    return snapshots, header
