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

import gc
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .market_data import ReturnPanel

GRAPH_FORMAT = "srr-graph-v2"

__all__ = [
    "GraphSnapshot",
    "GraphSequence",
    "average_ranks",
    "rank_correlation_matrix",
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
    """1-based ranks along the last axis, ties assigned the mean of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, axis=-1, kind="stable")
    xs = np.take_along_axis(x, order, axis=-1)
    n = x.shape[-1]
    pos = np.arange(n)
    starts = np.ones(x.shape, dtype=bool)  # the sorted positions that open a tie block
    starts[..., 1:] = xs[..., 1:] != xs[..., :-1]
    ends = np.roll(starts, -1, axis=-1)  # ... and those that close one
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.flip(np.minimum.accumulate(np.flip(np.where(ends, pos, n), -1), axis=-1), -1)
    ranks = np.empty_like(x)
    np.put_along_axis(ranks, order, 0.5 * (first + last) + 1.0, axis=-1)  # mean of positions
    return ranks


def rank_correlation_matrix(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs Spearman over the rows of an N x W window.

    Returns (corr N x N, degenerate mask length N). Rows with constant
    values are flagged; their correlations are set to 0.
    """
    ranks = average_ranks(window)
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


def build_snapshots(returns: ReturnPanel, dates: list[str], graph_labels: list[int | None],
                    window: int = 7, tau: float = 0.5,
                    sector_map: dict[str, str] | None = None) -> list[GraphSnapshot]:
    """One market graph per date, from the trailing return window ending there,
    labeled by the matching entry of ``graph_labels`` (None where the date is
    unlabeled). Feature dates always qualify: the feature warm-up leaves enough
    trailing returns for any window up to it."""
    if len(dates) != len(graph_labels):
        raise DataError(f"{len(dates)} snapshot dates but {len(graph_labels)} graph labels")
    if not (0.0 < tau <= 1.0):
        raise DataError(f"tau must be in (0, 1], got {tau}")
    if window < 3:
        raise DataError(f"correlation window must be >= 3 days, got {window}")
    column = {d: r for r, d in enumerate(returns.dates)}
    for date in dates:
        if date not in column:
            raise DataError(f"{date} is not a return date of the panel")
        if column[date] + 1 < window:
            raise DataError(f"only {column[date] + 1} return observations at {date}, "
                            f"need {window}")
    iu, ju = np.triu_indices(len(returns.tickers), k=1)  # every pair i < j, row-major
    sector = None
    if sector_map is not None:
        unknown = sorted(set(sector_map) - set(returns.tickers))
        if unknown:
            raise DataError(f"sector map names unknown tickers: {', '.join(unknown)}")
        sectors = np.array([sector_map.get(t) for t in returns.tickers], dtype=object)
        same = np.not_equal(sectors[iu], None) & (sectors[iu] == sectors[ju])
        sector = list(zip(iu[same].tolist(), ju[same].tolist(), np.ones(same.sum()).tolist()))

    snapshots = []
    for date, label in zip(dates, graph_labels):
        r_end = column[date]
        corr, _ = rank_correlation_matrix(returns.returns[:, r_end + 1 - window: r_end + 1])
        rho = corr[iu, ju]
        keep = np.abs(rho) >= tau
        layers = {"correlation": list(zip(iu[keep].tolist(), ju[keep].tolist(),
                                          rho[keep].tolist()))}
        if sector is not None:
            layers["sector"] = list(sector)
        snapshots.append(GraphSnapshot(date=date, node_ids=list(returns.tickers),
                                       layers=layers, graph_label=label))
    return snapshots


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
            record = {"date": snap.date, "nodes": snap.node_ids, "layers": snap.layers,
                      "graph_label": snap.graph_label}  # edge tuples encode as JSON arrays
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_snapshots_jsonl(path: str) -> tuple[list[GraphSnapshot], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty snapshot file")
    # The records allocate a list and a tuple per edge and hold no cycles, so
    # cyclic collection would only rescan them; it is paused while they load.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
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
    finally:
        if gc_was_enabled:
            gc.enable()
    return snapshots, header
