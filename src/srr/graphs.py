"""Rolling rank-correlation market graphs.

A snapshot at date t connects tickers i and j when the Spearman correlation
of their last ``window`` daily log returns satisfies |rho| >= tau (boundary
inclusive). Edges are undirected, stored once with i < j, and keep the
signed rho as their weight. An optional sector layer links same-sector pairs.

Each layer is one packed edge array of ``EDGE_DTYPE`` (int32 ``i``, int32
``j``, float64 ``w``): 16 bytes per edge, against about 100 for an
``(int, int, float)`` tuple in a list. ``len(layer)`` counts its edges and
``for i, j, w in layer`` unpacks them. The sector layer does not depend on
the date, so every snapshot shares one read-only array of it.

Correlations are Pearson correlations of average ranks, computed as
num / sqrt(ssx * ssy) (single square root of the product) so rational
values such as rho = 0.5 come out exact and the inclusive threshold is
well defined. A constant return window has no defined ranks; such nodes
contribute no edges instead of propagating NaN.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataError
from .market_data import ReturnPanel

GRAPH_FORMAT = "srr-graph-v2"
EDGE_DTYPE = np.dtype([("i", np.int32), ("j", np.int32), ("w", np.float64)])
_BLOCK_BYTES = 256 * 1024  # one (dates, N, N) array of a build_snapshots block
_dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))  # compact record text

__all__ = [
    "GraphSnapshot",
    "average_ranks",
    "rank_correlation_matrix",
    "build_snapshots",
    "check_edges",
    "write_snapshots_jsonl",
    "read_snapshots_jsonl",
    "GRAPH_FORMAT",
    "EDGE_DTYPE",
]


@dataclass(eq=False)
class GraphSnapshot:
    """One market graph: layered edge arrays over a fixed node order.

    Each layer is an ``EDGE_DTYPE`` array of (i, j, w) edges, i and j indexing
    ``node_ids``. Snapshots compare by identity, since arrays have no single
    truth value. Node attributes are not stored here: they are the feature
    panel's rows for ``date``, with its macro overlay, if any, on every row.
    """

    date: str
    node_ids: list[str]
    layers: dict[str, np.ndarray]  # layer name -> EDGE_DTYPE array
    graph_label: int | None = None  # None when the date has no forward label


def check_edges(layer, n: int, where: str) -> None:
    """Refuse a layer (numeric ``i``, ``j`` and ``w`` fields) with an edge off
    ``0 <= i < j < n``, in a DataError that starts with ``where``."""
    i, j = layer["i"], layer["j"]
    ok = (0 <= i) & (i < j) & (j < n)
    if i.dtype.kind == "f":  # decoded JSON numbers must be whole too
        ok &= (np.floor(i) == i) & (np.floor(j) == j)
    if not ok.all():
        i, j, w = (float(layer[f][np.flatnonzero(~ok)[0]]) for f in "ijw")
        raise DataError(f"{where}: edge [{i:g}, {j:g}, {w!r}] breaks 0 <= i < j < {n}")


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
    """All-pairs Spearman over the rows of each N x W window of a (..., N, W) stack.

    Returns (corr ..., N, N; degenerate mask ..., N). Rows with constant
    values are flagged; their correlations are set to 0.
    """
    ranks = average_ranks(window)
    centered = ranks - ranks.mean(axis=-1, keepdims=True)
    gram = centered @ np.swapaxes(centered, -1, -2)
    ss = np.diagonal(gram, axis1=-2, axis2=-1)
    degenerate = ss == 0.0
    safe = np.where(degenerate, 1.0, ss)
    corr = np.clip(gram / np.sqrt(safe[..., :, None] * safe[..., None, :]), -1.0, 1.0)
    corr[degenerate[..., :, None] | degenerate[..., None, :]] = 0.0
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
    n = len(returns.tickers)
    block = max(1, _BLOCK_BYTES // (8 * max(1, n) ** 2))  # dates per call
    # the pair table (iu, ju and pairs: 32 bytes a pair) and about four of a
    # block's (dates, N, N) arrays, then 16 bytes for each edge kept
    graphs = f"{len(dates)} graphs of {n} nodes"
    need = _fit_in_memory(16 * n * (n - 1) + 32 * min(block, len(dates)) * n * n, graphs)
    iu, ju = np.triu_indices(n, k=1)  # every pair i < j, row-major
    pairs = np.zeros(len(iu), EDGE_DTYPE)
    pairs["i"], pairs["j"] = iu, ju
    sector = None
    if sector_map is not None:
        unknown = sorted(set(sector_map) - set(returns.tickers))
        if unknown:
            raise DataError(f"sector map names unknown tickers: {', '.join(unknown)}")
        sectors = np.array([sector_map.get(t) for t in returns.tickers], dtype=object)
        same = np.not_equal(sectors[iu], None) & (sectors[iu] == sectors[ju])
        sector = pairs[same]
        sector["w"] = 1.0
        sector.flags.writeable = False  # one array, shared by every snapshot

    node_ids = list(returns.tickers)  # one list, shared by every snapshot
    dated = list(zip(dates, graph_labels))
    snapshots = []
    for start in range(0, len(dated), block):
        chunk = dated[start:start + block]
        # the return columns of each date's trailing window, (dates, window)
        cols = np.array([column[d] for d, _ in chunk])[:, None] + np.arange(1 - window, 1)
        corr, _ = rank_correlation_matrix(returns.returns[:, cols].swapaxes(0, 1))
        rho = corr[:, iu, ju]
        keep = np.abs(rho) >= tau
        need = _fit_in_memory(need + 16 * int(keep.sum()), graphs)
        for (date, label), kept, r in zip(chunk, keep, rho):
            edges = pairs[kept]
            edges["w"] = r[kept]
            layers = {"correlation": edges}
            if sector is not None:
                layers["sector"] = sector
            snapshots.append(GraphSnapshot(date=date, node_ids=node_ids, layers=layers,
                                           graph_label=label))
    return snapshots


def _fit_in_memory(need: int, graphs: str, held: str = "correlations and edges") -> int:
    """``need`` bytes, or a DataError saying that ``graphs`` need that many bytes
    of ``held`` when that is beyond physical memory."""
    if need > _physical_memory():
        raise DataError(f"{graphs} need about {need:,} bytes of {held}, beyond physical memory")
    return need


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


# -- serialization ---------------------------------------------------------

def write_snapshots_jsonl(snapshots: list[GraphSnapshot], path: str) -> None:
    """Line-delimited snapshots: a header record, then one record per date.

    Each line is ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
    of the ``{"format", "snapshots"}`` header or of a ``{"date", "nodes",
    "layers", "graph_label"}`` record with every edge as an ``[i,j,w]`` array,
    each layer checked first.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_dumps({"format": GRAPH_FORMAT, "snapshots": len(snapshots)}) + "\n")
        for snap in snapshots:
            for name in sorted(snap.layers):
                check_edges(snap.layers[name], len(snap.node_ids),
                            f"snapshot {snap.date}: layer {name!r}")
            layers = {name: edges.tolist() for name, edges in snap.layers.items()}
            fh.write(_dumps({"date": snap.date, "nodes": snap.node_ids, "layers": layers,
                             "graph_label": snap.graph_label}) + "\n")


def _edge_array(edges: list, n: int, where: str) -> np.ndarray:
    """Decoded ``[[i, j, w], ...]`` as an EDGE_DTYPE array, checked before the
    indices become int32. The float64 detour is exact below 2**53."""
    i, j, w = np.array(edges, dtype=np.float64).reshape(-1, 3).T
    check_edges({"i": i, "j": j, "w": w}, n, where)
    out = np.empty(len(w), EDGE_DTYPE)
    out["i"], out["j"], out["w"] = i, j, w
    return out


def read_snapshots_jsonl(path: str) -> tuple[list[GraphSnapshot], dict]:
    """The snapshots and the header of a ``write_snapshots_jsonl`` file, each
    layer decoded into an EDGE_DTYPE array. Consecutive records with the same
    nodes share one ``node_ids`` list."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise DataError(f"{path}: empty snapshot file")
        try:
            header = json.loads(first)
            fmt = header.get("format")
        except (ValueError, AttributeError):
            raise DataError(f"{path}: line 1: not a {GRAPH_FORMAT} header") from None
        if fmt != GRAPH_FORMAT:
            raise DataError(f"{path}: expected format {GRAPH_FORMAT}, got {fmt!r}")
        snapshots, node_ids = [], None
        for line_no, line in enumerate(fh, start=2):  # the file text is never held whole
            try:
                rec = json.loads(line)
                nodes, edge_lists = rec["nodes"], rec["layers"].items()
                date, label = rec["date"], rec["graph_label"]
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise DataError(f"{path}: line {line_no}: not a snapshot record "
                                f"({exc!r})") from None
            if nodes != node_ids:
                node_ids = nodes
            layers = {name: _edge_array(edges, len(node_ids),
                                        f"{path}: line {line_no}: layer {name!r}")
                      for name, edges in edge_lists}
            snapshots.append(GraphSnapshot(date=date, node_ids=node_ids,
                                           layers=layers, graph_label=label))
    return snapshots, header
