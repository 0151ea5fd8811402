"""Per-sample reference implementations for equivalence tests.

The graph-model functions below are the one-graph, one-sequence forward and
backward passes that the batched engine in ``srr.models`` replaced, kept
as they were so that batched results can be compared against a plain
per-sample loop. The only edit: mean pooling, formerly ``tensor.row_mean``,
is written as ``h2.mean(axis=0)``. ``linear`` and ``linear_grads`` are the
reshape-to-one-GEMM forms that per-graph GEMMs replaced. ``relu`` is the
ReLU the library writes inline; ``relu_grad``, ``sigmoid_grad`` and
``tanh_grad`` are the activation derivatives (the library's backward passes
multiply by the ReLU mask directly), and ``auroc_oracle`` counts AUROC pair
by pair for the ranking-metric tests.

The functions after ``temporal_backward`` are the per-element loops that
vectorized code replaced, copied verbatim (only the docstring of ``sigmoid``
is corrected): the two-branch ``sigmoid``, the
one-row ``average_ranks`` with the one-pair ``spearman`` (formerly
``graphs.spearman``) and the row loop of ``rank_correlation_matrix``,
the one-date ``build_snapshot`` under ``build_snapshots``, then the
vectorized builder of ``(int, int, float)`` edge tuples that edge arrays
replaced, as ``build_tuple_snapshots`` (its ``rank_correlation_matrix`` is
the library's, as before), with the ``write_snapshots_jsonl`` of tuple
layers that the edge-array writer replaced (its only
edit: the compact ``separators=(",", ":")`` the file format now uses); the one-matrix
``gcn_normalize`` and the edge-by-edge ``adjacency_from_snapshot``; the
sequence objects ``GraphSequence`` and ``build_sequences`` (formerly in
``graphs``) with the sample builder over them that index arithmetic
replaced, ``training._graph_samples`` as ``graph_samples`` (it calls the
library's ``gcn_normalize`` and ``adjacency_from_snapshot`` through
``models``, and ``n_nodes()`` is ``len(node_ids)``), with the one-date
``FeaturePanel.node_matrix`` that one gather per side replaced, as
``node_matrix(panel, t)``; then the
threshold-by-threshold split search of ``_grow_tree``, the row-by-row
``forest_predict``, the tensor-by-tensor ``adam_step`` with its per-name
``AdamState``, the average-rank ``auroc_rank``, and the label-by-label
``crash_windows`` with the onset scan of ``lead_times``, whose ``average_ranks``
is the one-row oracle above; then ``logistic_fit`` as it was, with the
tensor-by-tensor ``adam_step`` above in place of the concatenating one it
called (the two are bit-equal), and the cell-by-cell ``write_features_csv``;
last, the hand-rolled CSV writers that ``market_data.write_csv`` replaced:
``write_panel_csv``, the loop of ``synthetic.write_synthetic_csv``,
``write_graph_labels_csv`` (followed by ``read_graph_labels_csv``, its reader,
and the reader's ``_label_cell``, both formerly in ``features``, which no
stage calls since the stages derive their labels from the prices), the
command line's ``_write_macro_csv``, and its timeline loop from
``cmd_evaluate``, wrapped as ``write_timeline`` (its ``run.path(timeline)``
is the ``path`` argument). Then the batched
mini-batch step that stacked GRU gates, the in-place encoder and gradients
written into one flat vector replaced: the ``batch_*`` forward and backward
passes, among them the per-step GRU as ``batch_gru_step`` and
``batch_gru_step_backward``, and ``training._train_minibatch`` as
``train_minibatch``, which concatenates a gradient dict per step. Where
these and the per-sample GRU above called ``tensor.tanh``, they call
``np.tanh``, its body; where they called ``tensor.relu`` or
``tensor.linear``, they call ``relu`` above or write ``x @ w + b``.
Last, the loops and index ledgers that one NumPy call replaced, copied
verbatim: the day-by-day ``synthetic.business_days``, the day loop of
``planted_regime_panel`` (it calls that ``business_days``, and the
``write_synthetic_csv`` above calls it), the slot ledger of ``_train_minibatch``
wrapped as ``batch_rows`` (``samples.rows`` is its ``stack_rows``), the running
column index of ``features.compute_features``, and ``plots._axes`` with its
two x-tick loops. After them, ``market_data.ingest_csv`` as it was before
one ticker x date grid replaced its dict of per-ticker dicts and its set
folds (its only edit: ``date`` for the module's ``_date``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from srr import graphs
from srr.models import gcn
from srr import tensor as tz
from srr.config import FeatureConfig
from srr.errors import DataError, NumericalError, ShapeError
from srr.evaluation import _check_scored
from srr.features import FeaturePanel, _rolling_std, feature_names
from srr.graphs import GraphSnapshot
from srr.market_data import PricePanel, ReturnPanel, _check_plain, is_iso_date, read_csv
from srr.models.baselines import gini
from srr.plots import PLOT_AREA, _fmt, _ticks
from srr.synthetic import RegimeParams
from srr.tensor import _finite
from srr.training import _GraphSamples, _loss_fn


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``x @ w (+ b)`` over the last axis of ``x`` (..., F) -> (..., H), as one GEMM."""
    out = x.reshape(-1, x.shape[-1]) @ w
    if b is not None:
        out += b
    return out.reshape(x.shape[:-1] + (w.shape[1],))


def linear_grads(x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dW, db) of :func:`linear` given d loss / d output, summed over every
    leading axis by one reshape-and-matmul."""
    d = dy.reshape(-1, dy.shape[-1])
    return x.reshape(-1, x.shape[-1]).T @ d, d.sum(axis=0)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative w.r.t. the pre-activation; the kink at 0 takes the 0 branch."""
    return (np.asarray(x, dtype=np.float64) > 0.0).astype(np.float64)


def sigmoid_grad(x: np.ndarray) -> np.ndarray:
    s = tz.sigmoid(x)
    return s * (1.0 - s)


def tanh_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(np.asarray(x, dtype=np.float64))
    return 1.0 - t * t


def auroc_oracle(scores, labels) -> float | None:
    """Brute-force pair counting: concordant + half-ties over all pos/neg pairs."""
    s, y = _check_scored(scores, labels)
    pos = s[y == 1]
    neg = s[y == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    num = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                num += 1.0
            elif p == q:
                num += 0.5
    return num / float(pos.size * neg.size)


def gcn_embed(a_hat: np.ndarray, x: np.ndarray, params: dict) -> tuple[np.ndarray, dict]:
    """Two convolutions + mean pooling; returns (embedding vector, cache)."""
    if a_hat.shape[0] != x.shape[0]:
        raise ShapeError(f"adjacency {a_hat.shape} vs features {x.shape}: node counts differ")
    ax = tz.matmul(a_hat, x)
    pre1 = tz.add(tz.matmul(ax, params["w1"]), params["b1"][None, :])
    h1 = relu(pre1)
    ah1 = tz.matmul(a_hat, h1)
    pre2 = tz.add(tz.matmul(ah1, params["w2"]), params["b2"][None, :])
    h2 = relu(pre2)
    z = h2.mean(axis=0)  # was tensor.row_mean
    cache = {"a_hat": a_hat, "ax": ax, "pre1": pre1, "ah1": ah1, "pre2": pre2, "n": x.shape[0]}
    return z, cache


def gcn_embed_backward(dz: np.ndarray, cache: dict, params: dict) -> dict[str, np.ndarray]:
    """Gradients of the encoder weights given d loss / d embedding."""
    n = cache["n"]
    a_hat = cache["a_hat"]
    dh2 = np.repeat(dz[None, :], n, axis=0) / n  # mean-pool backward
    dpre2 = dh2 * relu_grad(cache["pre2"])
    grads = {
        "w2": cache["ah1"].T @ dpre2,
        "b2": dpre2.sum(axis=0),
    }
    dh1 = a_hat.T @ dpre2 @ params["w2"].T
    dpre1 = dh1 * relu_grad(cache["pre1"])
    grads["w1"] = cache["ax"].T @ dpre1
    grads["b1"] = dpre1.sum(axis=0)
    return grads


def _head_forward(z: np.ndarray, params: dict) -> tuple[float, float, dict]:
    zr = z[None, :]
    pre3 = zr @ params["w3"] + params["b3"][None, :]
    h3 = relu(pre3)
    logit = float((h3 @ params["w4"] + params["b4"][None, :])[0, 0])
    prob = float(tz.sigmoid(np.array([logit]))[0])
    return logit, prob, {"zr": zr, "pre3": pre3, "h3": h3}


def _head_backward(dlogit: float, cache: dict, params: dict) -> tuple[dict, np.ndarray]:
    h3, pre3, zr = cache["h3"], cache["pre3"], cache["zr"]
    grads = {
        "w4": h3.T * dlogit,
        "b4": np.array([dlogit]),
    }
    dh3 = dlogit * params["w4"].T  # 1 x mlp_hidden
    dpre3 = dh3 * relu_grad(pre3)
    grads["w3"] = zr.T @ dpre3
    grads["b3"] = dpre3[0]
    dz = (dpre3 @ params["w3"].T)[0]
    return grads, dz


def gcn_forward(a_hat: np.ndarray, x: np.ndarray,
                params: dict) -> tuple[np.ndarray, float, dict]:
    """Full classifier pass; returns (embedding, prob, cache)."""
    z, enc_cache = gcn_embed(a_hat, x, params)
    logit, prob, head_cache = _head_forward(z, params)
    cache = {"enc": enc_cache, "head": head_cache, "logit": logit}
    return z, prob, cache


def gcn_backward(dlogit: float, cache: dict, params: dict) -> dict[str, np.ndarray]:
    """Gradients for all eight tensors given d loss / d logit."""
    grads, dz = _head_backward(dlogit, cache["head"], params)
    grads.update(gcn_embed_backward(dz, cache["enc"], params))
    return grads


GRU_TENSORS = ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn", "w_out", "b_out")


def gru_step(x: np.ndarray, h: np.ndarray, params: dict) -> tuple[np.ndarray, dict]:
    """One recurrence step on 1-D arrays (single sequence)."""
    pre_z = x @ params["wz"] + h @ params["uz"] + params["bz"]
    z = tz.sigmoid(pre_z)
    pre_r = x @ params["wr"] + h @ params["ur"] + params["br"]
    r = tz.sigmoid(pre_r)
    rh = r * h
    pre_n = x @ params["wn"] + rh @ params["un"] + params["bn"]
    n = np.tanh(pre_n)
    h_new = (1.0 - z) * n + z * h
    cache = {"x": x, "h": h, "z": z, "r": r, "rh": rh, "n": n,
             "pre_z": pre_z, "pre_r": pre_r, "pre_n": pre_n}
    return h_new, cache


def gru_step_backward(dh_new: np.ndarray, cache: dict, params: dict,
                      grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """Backward through one step. Accumulates into ``grads``; returns (dx, dh)."""
    x, h, z, r, n = cache["x"], cache["h"], cache["z"], cache["r"], cache["n"]
    dz = dh_new * (h - n)
    dn = dh_new * (1.0 - z)
    dh = dh_new * z

    dpre_n = dn * (1.0 - n * n)
    grads["wn"] += np.outer(x, dpre_n)
    grads["un"] += np.outer(cache["rh"], dpre_n)
    grads["bn"] += dpre_n
    dx = dpre_n @ params["wn"].T
    drh = dpre_n @ params["un"].T
    dr = drh * h
    dh += drh * r

    dpre_z = dz * z * (1.0 - z)
    grads["wz"] += np.outer(x, dpre_z)
    grads["uz"] += np.outer(h, dpre_z)
    grads["bz"] += dpre_z
    dx += dpre_z @ params["wz"].T
    dh += dpre_z @ params["uz"].T

    dpre_r = dr * r * (1.0 - r)
    grads["wr"] += np.outer(x, dpre_r)
    grads["ur"] += np.outer(h, dpre_r)
    grads["br"] += dpre_r
    dx += dpre_r @ params["wr"].T
    dh += dpre_r @ params["ur"].T
    return dx, dh


def temporal_forward(graph_inputs: list[tuple[np.ndarray, np.ndarray]], gcn_params: dict,
                     gru_params: dict) -> tuple[float, dict]:
    """Probability for one sequence of (normalized adjacency, features) pairs."""
    hidden = gru_params["w_out"].shape[0]
    h = np.zeros(hidden)
    enc_caches, step_caches, embeddings = [], [], []
    for a_hat, x in graph_inputs:
        z_emb, enc_cache = gcn_embed(a_hat, x, gcn_params)
        h, step_cache = gru_step(z_emb, h, gru_params)
        embeddings.append(z_emb)
        enc_caches.append(enc_cache)
        step_caches.append(step_cache)
    logit = float(h @ gru_params["w_out"][:, 0] + gru_params["b_out"][0])
    prob = float(tz.sigmoid(np.array([logit]))[0])
    cache = {"enc": enc_caches, "steps": step_caches, "h_final": h,
             "embeddings": embeddings, "logit": logit}
    return prob, cache


def temporal_backward(dlogit: float, cache: dict, gcn_params: dict,
                      gru_params: dict) -> tuple[dict, dict]:
    """Backward through head, time, and every shared encoder.

    Returns (gcn_grads, gru_grads) for one sequence. The two parameter
    dicts may be one dict holding both groups.
    """
    gru_grads = {name: np.zeros_like(gru_params[name]) for name in GRU_TENSORS}
    gcn_grads = {name: np.zeros_like(gcn_params[name])
                 for name in ("w1", "b1", "w2", "b2")}

    h_final = cache["h_final"]
    gru_grads["w_out"] = dlogit * h_final[:, None]
    gru_grads["b_out"] = np.array([dlogit])
    dh = dlogit * gru_params["w_out"][:, 0]

    for enc_cache, step_cache in zip(reversed(cache["enc"]), reversed(cache["steps"])):
        dx, dh = gru_step_backward(dh, step_cache, gru_params, gru_grads)
        step_grads = gcn_embed_backward(dx, enc_cache, gcn_params)
        for name, g in step_grads.items():
            gcn_grads[name] += g
    return gcn_grads, gru_grads


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function; never overflows, and returns 0.0 for
    finite x <= -746, where exp(x) underflows."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def build_tuple_snapshots(returns: ReturnPanel, dates: list[str],
                          graph_labels: list[int | None], window: int = 7, tau: float = 0.5,
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
        corr, _ = graphs.rank_correlation_matrix(
            returns.returns[:, r_end + 1 - window: r_end + 1])
        rho = corr[iu, ju]
        keep = np.abs(rho) >= tau
        layers = {"correlation": list(zip(iu[keep].tolist(), ju[keep].tolist(),
                                          rho[keep].tolist()))}
        if sector is not None:
            layers["sector"] = list(sector)
        snapshots.append(GraphSnapshot(date=date, node_ids=list(returns.tickers),
                                       layers=layers, graph_label=label))
    return snapshots


def write_snapshots_jsonl(snapshots: list[GraphSnapshot], path: str) -> None:
    """Line-delimited snapshots: a header record, then one record per date."""
    header = {"format": graphs.GRAPH_FORMAT, "snapshots": len(snapshots)}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for snap in snapshots:
            record = {"date": snap.date, "nodes": snap.node_ids, "layers": snap.layers,
                      "graph_label": snap.graph_label}  # edge tuples encode as JSON arrays
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def gcn_normalize(adj: np.ndarray) -> np.ndarray:
    """Symmetric renormalized adjacency D^{-1/2}(A+I)D^{-1/2}.

    The input must be square and symmetric with a zero diagonal and
    non-negative weights. The empty graph maps to the identity.
    """
    a = np.asarray(adj, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    if not np.array_equal(a, a.T):
        raise ShapeError(f"adjacency of shape {a.shape} is not symmetric")
    if np.any(np.diag(a) != 0.0):
        raise ShapeError("adjacency must have a zero diagonal (self-loops are added here)")
    if np.any(a < 0.0):
        raise ShapeError("adjacency weights must be non-negative")
    a_hat = a + np.eye(a.shape[0])
    inv_sqrt_deg = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * np.outer(inv_sqrt_deg, inv_sqrt_deg)


def adjacency_from_snapshot(snapshot: GraphSnapshot, layers: tuple[str, ...] = ("correlation",),
                            weighted: bool = False) -> np.ndarray:
    """Union of the requested layers as a dense symmetric matrix.

    Binary by default; in weighted mode a correlation edge carries |rho|
    (sector edges stay at 1), and a pair present in several layers takes
    the maximum weight.
    """
    n = len(snapshot.node_ids)
    adj = np.zeros((n, n), dtype=np.float64)
    for name in layers:
        if name not in snapshot.layers:
            raise ShapeError(f"snapshot {snapshot.date} has no layer {name!r}")
        for i, j, w in snapshot.layers[name]:
            val = abs(float(w)) if weighted else 1.0
            adj[i, j] = max(adj[i, j], val)
            adj[j, i] = adj[i, j]
    return adj


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


def node_matrix(panel: FeaturePanel, t: int) -> np.ndarray:
    """N x (F + M) model-input matrix at date index t (macro broadcast to rows)."""
    x = panel.features[:, t, :]
    if panel.macro is not None:
        x = np.hstack([x, np.repeat(panel.macro[t][None, :], x.shape[0], axis=0)])
    return x


def graph_samples(bundle, hyper: dict, side: str) -> _GraphSamples | None:
    """The labeled ``side`` sequences of k stride-grid snapshots, or None when
    there are none; a snapshot sample is the k = 1 sequence."""
    sequences = [seq for seq in build_sequences(bundle.snapshots, k=hyper.get("k", 1),
                                                stride=hyper["stride"])
                 if seq.graph_label is not None and bundle.split.side(seq.date) == side]
    if not sequences:
        return None
    read = list({id(s): s for seq in sequences for s in seq.snapshots}.values())  # first-read order
    panel, layers, weighted = bundle.panel, tuple(hyper["layers"]), hyper["weighted_adjacency"]
    position = {d: t for t, d in enumerate(panel.dates)}
    for snap in read:
        if snap.node_ids != panel.tickers or snap.date not in position:
            raise DataError(f"snapshot {snap.date} does not match the feature panel's "
                            "tickers and dates")
    a_hat = gcn.gcn_normalize(np.stack([
        gcn.adjacency_from_snapshot(s, layers=layers, weighted=weighted) for s in read]))
    ax = a_hat @ np.stack([node_matrix(panel, position[s.date]) for s in read])
    slot = {id(s): g for g, s in enumerate(read)}
    rows = np.array([[slot[id(s)] for s in seq.snapshots] for seq in sequences])
    return _GraphSamples(a_hat, ax, rows, np.array([float(seq.graph_label) for seq in sequences]),
                         [seq.date for seq in sequences])


def _grow_tree(x: np.ndarray, y: np.ndarray, rng: np.random.Generator, max_depth: int,
               min_leaf: int, n_root: int, importance: np.ndarray) -> list[list[float]]:
    """CART with per-node random feature subsets; returns the node table.

    Node row layout: [is_leaf, feature, threshold, left, right, p0, p1].
    Samples with value <= threshold go left. Ties in impurity are broken
    toward the lowest feature index, then the lowest threshold, so a tree
    is a pure function of (data, rng draws).
    """
    n_features = x.shape[1]
    m_try = max(1, int(np.sqrt(n_features)))
    nodes: list[list[float]] = []

    def leaf(idx: np.ndarray) -> int:
        p1 = float(np.count_nonzero(y[idx])) / idx.size
        nodes.append([1.0, -1.0, 0.0, -1.0, -1.0, 1.0 - p1, p1])
        return len(nodes) - 1

    def best_split(idx: np.ndarray) -> tuple[int, float, float] | None:
        node_gini = gini(y[idx])
        if node_gini == 0.0:
            return None
        best: tuple[float, int, float] | None = None  # (weighted gini, feature, threshold)
        candidates = np.sort(rng.choice(n_features, size=m_try, replace=False))
        n_node = idx.size
        total_pos = int(np.count_nonzero(y[idx]))
        for f in candidates:
            vals = x[idx, f]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            sy = y[idx][order]
            pos_left = 0
            for s in range(n_node - 1):
                pos_left += int(sy[s])
                if sv[s] == sv[s + 1]:
                    continue  # not a boundary between distinct values
                n_l = s + 1
                n_r = n_node - n_l
                if n_l < min_leaf or n_r < min_leaf:
                    continue
                p1_l = pos_left / n_l
                p1_r = (total_pos - pos_left) / n_r
                g_l = 1.0 - p1_l * p1_l - (1.0 - p1_l) * (1.0 - p1_l)
                g_r = 1.0 - p1_r * p1_r - (1.0 - p1_r) * (1.0 - p1_r)
                weighted = (n_l * g_l + n_r * g_r) / n_node
                if best is None or weighted < best[0]:
                    best = (weighted, int(f), float(0.5 * (sv[s] + sv[s + 1])))
        if best is None or best[0] >= node_gini:
            return None
        return best[1], best[2], node_gini - best[0]

    def grow(idx: np.ndarray, depth: int) -> int:
        if depth >= max_depth or idx.size < 2 * min_leaf:
            return leaf(idx)
        found = best_split(idx)
        if found is None:
            return leaf(idx)
        feature, threshold, decrease = found
        importance[feature] += (idx.size / n_root) * decrease
        mask = x[idx, feature] <= threshold
        pos = len(nodes)
        nodes.append([0.0, float(feature), threshold, -1.0, -1.0, 0.0, 0.0])
        nodes[pos][3] = float(grow(idx[mask], depth + 1))
        nodes[pos][4] = float(grow(idx[~mask], depth + 1))
        return pos

    grow(np.arange(x.shape[0]), 0)
    return nodes


def _tree_prob(nodes: np.ndarray, row: np.ndarray) -> float:
    i = 0
    for _ in range(nodes.shape[0] + 1):
        node = nodes[i]
        if node[0] == 1.0:
            return float(node[6])
        i = int(node[3]) if row[int(node[1])] <= node[2] else int(node[4])
    raise NumericalError("malformed tree: traversal did not reach a leaf")


def forest_predict(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Mean leaf class-1 probability across trees, per row of X."""
    x = np.asarray(x, dtype=np.float64)
    trees = [params[k] for k in sorted(params) if k.startswith("tree_")]
    if not trees:
        raise DataError("forest_predict: parameter dict holds no trees")
    out = np.zeros(x.shape[0])
    for nodes in trees:
        out += [_tree_prob(nodes, row) for row in x]
    return out / len(trees)


@dataclass
class AdamState:
    """First/second moment accumulators for one named parameter set."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """One Adam update over a dict of named float64 arrays.

    Returns new parameter arrays (inputs are not mutated); the moment
    estimates inside ``state`` advance in place. Uses the bias-corrected
    update theta -= lr * m_hat / (sqrt(v_hat) + eps).
    """
    missing = set(params) ^ set(grads)
    if missing:
        raise ShapeError(f"adam_step: params/grads key mismatch: {sorted(missing)}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    out = {}
    for name in params:
        theta, g = params[name], grads[name]
        if theta.shape != g.shape:
            raise ShapeError(
                f"adam_step: gradient shape {g.shape} does not match parameter "
                f"{name} of shape {theta.shape}"
            )
        if name not in state.m:
            state.m[name] = np.zeros_like(theta)
            state.v[name] = np.zeros_like(theta)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        out[name] = _finite(
            f"adam_step[{name}]", theta - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        )
    return out


def auroc_rank(scores, labels) -> float | None:
    """AUROC via the rank statistic (ties share average ranks).

    Equals the probability a random positive outscores a random negative,
    ties counted half. None when only one class is present.
    """
    s, y = _check_scored(scores, labels)
    n_pos = int(np.count_nonzero(y))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = average_ranks(s)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / float(n_pos * n_neg)


def crash_windows(labels: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of label 1 as (onset index, last index) pairs."""
    y = np.asarray(labels).reshape(-1)
    windows = []
    start = None
    for i, v in enumerate(y):
        if v == 1 and start is None:
            start = i
        elif v != 1 and start is not None:
            windows.append((start, i - 1))
            start = None
    if start is not None:
        windows.append((start, len(y) - 1))
    return windows


def lead_times(calendar_dates: list[str], daily_labels, scored_dates: list[str],
               scores, gamma: float = 0.5) -> dict:
    """Warning lead times in trading days.

    A warning is a scored date with score > gamma. Each warning that
    precedes the next crash-window onset with no crash day in between
    (the onset day itself counts, lead 0) contributes onset - warning in
    trading-day positions on the calendar. Warnings with no later onset
    are unmatched; warnings inside an ongoing crash window are tallied
    separately as in_crisis.
    """
    y = np.asarray(daily_labels).reshape(-1)
    if len(calendar_dates) != y.size:
        raise ShapeError(f"calendar has {len(calendar_dates)} dates, labels {y.size}")
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if len(scored_dates) != s.size:
        raise ShapeError(f"{len(scored_dates)} scored dates vs {s.size} scores")
    pos_of = {d: i for i, d in enumerate(calendar_dates)}
    onsets = [w[0] for w in crash_windows(y)]
    leads: list[int] = []
    unmatched = 0
    in_crisis = 0
    for date, score in zip(scored_dates, s):
        if score <= gamma:
            continue
        if date not in pos_of:
            raise DataError(f"scored date {date} is not on the evaluation calendar")
        w = pos_of[date]
        nxt = next((o for o in onsets if o >= w), None)
        if y[w] == 1 and w not in onsets:
            in_crisis += 1  # fired mid-crash; predicts nothing upcoming
        elif nxt is None:
            unmatched += 1
        else:
            leads.append(nxt - w)
    return {
        "lead_times": leads,
        "unmatched": unmatched,
        "in_crisis": in_crisis,
        "n_onsets": len(onsets),
    }


def logistic_fit(x: np.ndarray, y: np.ndarray, lr: float = 0.05, max_epochs: int = 2000,
                 tol: float = 1e-6) -> tuple[np.ndarray, float]:
    """Full-batch Adam on mean BCE from a zero start.

    Stops at max_epochs or when the gradient norm drops below tol.
    Returns (weights, bias).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DataError(f"logistic_fit: X {x.shape} does not match y of length {y.size}")
    w = np.zeros(x.shape[1])
    b = 0.0
    state = AdamState(lr=lr)
    for _ in range(max_epochs):
        probs = tz.sigmoid(x @ w + b)
        _, dlogits = tz.bce_loss(probs, y)
        grad_w = x.T @ dlogits
        grad_b = float(dlogits.sum())
        if float(np.sqrt(grad_w @ grad_w + grad_b * grad_b)) < tol:
            break
        new = adam_step({"w": w, "b": np.array([b])},
                        {"w": grad_w, "b": np.array([grad_b])}, state)
        w, b = new["w"], float(new["b"][0])
    return w, b


def write_features_csv(panel, path: str) -> None:
    """Long CSV: date,ticker,<features...>."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,ticker," + ",".join(panel.names) + "\n")
        for t, day in enumerate(panel.dates):
            for i, ticker in enumerate(panel.tickers):
                vals = ",".join(repr(float(v)) for v in panel.features[i, t, :])
                fh.write(f"{day},{ticker},{vals}\n")


def write_panel_csv(panel: PricePanel, path: str) -> None:
    """Serialize a panel back to the long CSV schema, full float precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,ticker,adj_close\n")
        for t, day in enumerate(panel.dates):
            for i, ticker in enumerate(panel.tickers):
                fh.write(f"{day},{ticker},{float(panel.prices[i, t])!r}\n")


def write_synthetic_csv(path: str, n_tickers: int = 20, n_days: int = 600, seed: int = 7,
                        start: str = "2015-01-02", params: RegimeParams | None = None) -> dict:
    """Generate and write the long-format price CSV; returns a small echo dict."""
    dates, tickers, prices = planted_regime_panel(n_tickers, n_days, seed, start, params)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,ticker,adj_close\n")
        for t, day in enumerate(dates):
            for i, ticker in enumerate(tickers):
                fh.write(f"{day},{ticker},{float(prices[i, t])!r}\n")
    return {"path": str(path), "n_tickers": n_tickers, "n_days": n_days, "seed": seed}


def write_graph_labels_csv(panel: FeaturePanel, path: str) -> None:
    """Companion CSV: date,graph_label (blank when the date is unlabeled)."""
    if panel.graph_labels is None:
        raise DataError("panel carries no graph labels")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,graph_label\n")
        for t, day in enumerate(panel.dates):
            lab = str(int(panel.graph_labels[t])) if panel.label_valid[t] else ""
            fh.write(f"{day},{lab}\n")


def _label_cell(cell: str) -> int | None:
    """A label cell: blank (unlabeled), 0 or 1."""
    if cell not in ("", "0", "1"):
        raise ValueError(f"label {cell!r} is not blank, 0 or 1")
    return int(cell) if cell else None


def read_graph_labels_csv(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    _, rows = read_csv(path, "graph-label file", "date,graph_label",
                       lambda r: (r[0], _label_cell(r[1])))
    cells = [cell for _, cell in rows]
    return ([d for d, _ in cells], np.array([y or 0 for _, y in cells], dtype=np.int8),
            np.array([y is not None for _, y in cells], dtype=bool))


def _write_macro_csv(run: Run, fpanel) -> None:
    with open(run.path("macro.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("date," + ",".join(fpanel.macro_names) + "\n")
        for t, day in enumerate(fpanel.dates):
            vals = ",".join(repr(float(v)) for v in fpanel.macro[t])
            fh.write(f"{day},{vals}\n")


def write_timeline(path: str, dates, scores, labels) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,score,label\n")
        for d, s, y in zip(dates, scores, labels):
            fh.write(f"{d},{float(s)!r},{int(y)}\n")


# -- the batched mini-batch step that stacked GRU gates replaced ---------------

def batch_gcn_embed(a_hat: np.ndarray, ax: np.ndarray, params: dict) -> tuple[np.ndarray, dict]:
    """Two convolutions + mean pooling of every graph in the batch.

    ``a_hat`` is (..., N, N) and ``ax`` = ``a_hat @ x`` (..., N, F) with the
    same leading axes; returns (embeddings (..., hidden), cache).
    """
    if a_hat.shape[:-1] != ax.shape[:-1]:
        raise ShapeError(f"adjacency {a_hat.shape} vs features {ax.shape}: "
                         "batch or node axes differ")
    pre1 = ax @ params["w1"] + params["b1"]
    ah1 = a_hat @ relu(pre1)
    pre2 = ah1 @ params["w2"] + params["b2"]
    z = relu(pre2).mean(axis=-2)
    cache = {"a_hat": a_hat, "ax": ax, "pre1": pre1, "ah1": ah1, "pre2": pre2}
    return z, cache


def batch_gcn_embed_backward(dz: np.ndarray, cache: dict, params: dict) -> dict[str, np.ndarray]:
    """Encoder weight gradients, summed over the batch, given d loss / d embeddings."""
    pre2 = cache["pre2"]
    dpre2 = dz[..., None, :] / pre2.shape[-2] * (pre2 > 0.0)  # mean-pool and ReLU backward
    grads = dict(zip(("w2", "b2"), tz.linear_grads(cache["ah1"], dpre2)))
    dpre1 = (cache["a_hat"] @ dpre2) @ params["w2"].T * (cache["pre1"] > 0.0)
    grads["w1"], grads["b1"] = tz.linear_grads(cache["ax"], dpre1)
    return grads


def batch_gcn_forward(a_hat: np.ndarray, ax: np.ndarray, rows: np.ndarray,
                      params: dict) -> tuple[np.ndarray, dict]:
    """Probabilities of the snapshot samples ``rows`` (S x 1) of the graph
    stacks ``a_hat`` and ``ax`` = ``a_hat @ x``: each graph is encoded once
    and sample s reads graph ``rows[s, 0]``. Returns (probs (S,), cache)."""
    emb, enc_cache = batch_gcn_embed(a_hat, ax, params)
    read = rows[:, 0]
    z = emb[read]
    pre3 = z @ params["w3"] + params["b3"]
    h3 = relu(pre3)
    logit = (h3 @ params["w4"] + params["b4"])[:, 0]
    cache = {"enc": enc_cache, "z": z, "pre3": pre3, "h3": h3, "read": read, "n_emb": len(emb)}
    return tz.sigmoid(logit), cache


def batch_gcn_backward(dlogit: np.ndarray, cache: dict, params: dict) -> dict[str, np.ndarray]:
    """Gradients for all eight tensors, summed over the batch, given d loss / d logits."""
    d = np.asarray(dlogit, dtype=np.float64)[..., None]
    grads = dict(zip(("w4", "b4"), tz.linear_grads(cache["h3"], d)))
    dpre3 = (d @ params["w4"].T) * (cache["pre3"] > 0.0)
    grads["w3"], grads["b3"] = tz.linear_grads(cache["z"], dpre3)
    dz = tz.scatter_rows(dpre3 @ params["w3"].T, cache["read"], cache["n_emb"])
    grads.update(batch_gcn_embed_backward(dz, cache["enc"], params))
    return grads


def batch_gru_step(x: np.ndarray, h: np.ndarray, params: dict) -> tuple[np.ndarray, dict]:
    """One recurrence step; ``x`` (..., input) and ``h`` (..., hidden) share
    their leading (batch) axes."""
    z = tz.sigmoid(x @ params["wz"] + h @ params["uz"] + params["bz"])
    r = tz.sigmoid(x @ params["wr"] + h @ params["ur"] + params["br"])
    rh = r * h
    n = np.tanh(x @ params["wn"] + rh @ params["un"] + params["bn"])
    h_new = (1.0 - z) * n + z * h
    return h_new, {"x": x, "h": h, "z": z, "r": r, "rh": rh, "n": n}


def batch_gru_step_backward(dh_new: np.ndarray, cache: dict, params: dict,
                            grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """Backward through one step. Accumulates the batch's summed weight
    gradients into ``grads``; returns (dx, dh)."""
    x, h, z, r, n = cache["x"], cache["h"], cache["z"], cache["r"], cache["n"]
    dpre_n = dh_new * (1.0 - z) * (1.0 - n * n)
    drh = dpre_n @ params["un"].T
    dpre_z = dh_new * (h - n) * z * (1.0 - z)
    dpre_r = drh * h * r * (1.0 - r)
    for gate, dpre, h_in in (("n", dpre_n, cache["rh"]), ("z", dpre_z, h), ("r", dpre_r, h)):
        dw, db = tz.linear_grads(x, dpre)
        grads[f"w{gate}"] += dw
        grads[f"u{gate}"] += tz.linear_grads(h_in, dpre)[0]
        grads[f"b{gate}"] += db
    dx = dpre_n @ params["wn"].T + dpre_z @ params["wz"].T + dpre_r @ params["wr"].T
    dh = dh_new * z + drh * r + dpre_z @ params["uz"].T + dpre_r @ params["ur"].T
    return dx, dh


def batch_temporal_forward(a_hat: np.ndarray, ax: np.ndarray, rows: np.ndarray,
                           params: dict) -> tuple[np.ndarray, dict]:
    """Probabilities of the sequences ``rows`` (S x k) of the graph stacks
    ``a_hat`` and ``ax`` = ``a_hat @ x``: each graph is encoded once and
    sequence s reads graphs ``rows[s]``, oldest first. Returns (probs (S,), cache)."""
    emb, enc_cache = batch_gcn_embed(a_hat, ax, params)
    seq = emb[rows]
    h = np.zeros((len(seq), params["w_out"].shape[0]))
    step_caches = []
    for t in range(seq.shape[1]):
        h, step_cache = batch_gru_step(seq[:, t], h, params)
        step_caches.append(step_cache)
    logit = h @ params["w_out"][:, 0] + params["b_out"][0]
    cache = {"enc": enc_cache, "steps": step_caches, "h_final": h, "rows": rows,
             "n_emb": len(emb)}
    return tz.sigmoid(logit), cache


def batch_temporal_backward(dlogit: np.ndarray, cache: dict, params: dict) -> dict[str, np.ndarray]:
    """Backward through head, time, and every shared encoder: the gradients
    of the encoder and GRU tensors, summed over the batch, in one dict."""
    grads = {name: np.zeros_like(params[name]) for name in GRU_TENSORS}
    d = np.asarray(dlogit, dtype=np.float64)[..., None]
    grads["w_out"], grads["b_out"] = tz.linear_grads(cache["h_final"], d)
    dh = d * params["w_out"][:, 0]
    dseq = np.empty(cache["rows"].shape + params["wz"].shape[:1])  # (S, k, embedding)
    for t in reversed(range(len(cache["steps"]))):
        dseq[:, t], dh = batch_gru_step_backward(dh, cache["steps"][t], params, grads)
    dseq = tz.scatter_rows(dseq, cache["rows"], cache["n_emb"])
    grads.update(batch_gcn_embed_backward(dseq, cache["enc"], params))
    return grads


def train_minibatch(samples: _GraphSamples, params: dict, forward, backward,
                    m, seed: int, kind: str) -> tuple[dict, list[float], int]:
    """Shared shuffled-mini-batch Adam loop for both GNN families: one forward
    and one backward per mini-batch.

    ``forward(a_hat, ax, rows, params) -> (probs, cache)`` scores the sequences
    whose snapshots are ``rows`` (B x k) of the (a_hat, ax) stacks;
    ``backward(dlogits, cache, params) -> grads`` sums the batch's gradients.
    Each batch passes the distinct snapshots it reads, once each. The
    parameters are views into one flat vector that Adam updates in place.
    Returns (best parameters, per-epoch mean losses, best epoch index).
    """
    loss_fn = _loss_fn(m)
    theta, params = tz.flatten(params)
    grad = np.empty_like(theta)
    opt = tz.AdamState({k: v.size for k, v in params.items()}, lr=m.learning_rate)
    rng = tz.seeded_rng(seed, 11)
    n = len(samples.labels)
    best_loss = np.inf
    best_theta = theta.copy()
    best_epoch = -1
    history: list[float] = []
    for epoch in range(m.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, m.batch_size):
            chunk = perm[start:start + m.batch_size]
            used, rows = np.unique(samples.rows[chunk], return_inverse=True)
            probs, cache = forward(samples.a_hat[used], samples.ax[used],
                                   rows.reshape(len(chunk), -1), params)
            loss, dlogits = loss_fn(probs, samples.labels[chunk])
            if not np.isfinite(loss):
                raise NumericalError(
                    f"{kind}: training diverged at epoch {epoch}, batch {start // m.batch_size}"
                    f" (loss={loss!r})"
                )
            grads = backward(dlogits, cache, params)
            np.concatenate([grads[k] for k in params], axis=None, out=grad)
            tz.adam_step(theta, grad, opt)
            epoch_loss += loss * len(chunk)
        epoch_loss /= n
        history.append(float(epoch_loss))
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_theta[...] = theta
            best_epoch = epoch
    theta[...] = best_theta
    return params, history, best_epoch


# -- the loops and index ledgers that one NumPy call replaced -------------------

def business_days(start: str, count: int) -> list[str]:
    """`count` weekdays starting at the first weekday on/after `start`."""
    day = date.fromisoformat(start)
    out: list[str] = []
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += timedelta(days=1)
    return out


def planted_regime_panel(n_tickers: int = 20, n_days: int = 600, seed: int = 7,
                         start: str = "2015-01-02",
                         params: RegimeParams | None = None
                         ) -> tuple[list[str], list[str], np.ndarray]:
    """Simulate the panel; returns (dates, tickers, prices N x T)."""
    if n_tickers < 2 or n_days < 10:
        raise DataError("need at least 2 tickers and 10 days of synthetic data")
    params = params or RegimeParams()
    rng = tz.seeded_rng(seed, 424242)
    tickers = [f"SYN{i:02d}" for i in range(n_tickers)]
    dates = business_days(start, n_days)

    log_ret = np.empty((n_tickers, n_days - 1))
    cycle = params.cycle_days
    for t in range(n_days - 1):
        phase_day = t % cycle
        common = rng.standard_normal()
        idio = rng.standard_normal(n_tickers)
        if phase_day < params.calm_days:
            log_ret[:, t] = params.calm_drift + params.calm_idio_vol * idio
        elif phase_day < params.calm_days + params.spike_days:
            log_ret[:, t] = (params.spike_common_vol * common
                             + params.spike_idio_vol * idio)
        elif phase_day < params.calm_days + params.spike_days + params.crash_days:
            log_ret[:, t] = (params.crash_drift + params.crash_common_vol * common
                             + params.crash_idio_vol * idio)
        else:
            log_ret[:, t] = params.recovery_drift + params.recovery_idio_vol * idio

    prices = np.empty((n_tickers, n_days))
    prices[:, 0] = 100.0
    prices[:, 1:] = 100.0 * np.exp(np.cumsum(log_ret, axis=1))
    return dates, tickers, prices


def batch_rows(stack_rows: np.ndarray, chunk: np.ndarray,
               slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The batch's stack indices and its rows renumbered into them; ``slot`` is
    a zeroed stack-index -> batch-index array as long as the stack, zeroed again
    on return."""
    slot[stack_rows[chunk]] = 1
    used = np.flatnonzero(slot)  # the batch's snapshots, in stack order
    slot[used] = np.arange(len(used))
    rows, slot[used] = slot[stack_rows[chunk]], 0  # remapped rows; slot cleared
    return used, rows


def compute_features(returns: ReturnPanel, prices: PricePanel,
                     vol_windows=FeatureConfig.vol_windows,
                     dd_windows=FeatureConfig.dd_windows,
                     mom_windows=FeatureConfig.momentum_windows) -> FeaturePanel:
    """Build the feature cube over the feature-valid dates of the panel."""
    if returns.tickers != prices.tickers:
        raise DataError("returns and prices cover different tickers")
    p = prices.prices
    n, t_total = p.shape
    warmup = max(max(vol_windows), max(dd_windows) - 1, max(mom_windows), 1)
    if t_total <= warmup:
        raise DataError(f"need more than {warmup} price dates for features, have {t_total}")

    dates = list(prices.dates[warmup:])
    t_f = len(dates)
    names = feature_names(vol_windows, dd_windows, mom_windows)
    feats = np.empty((n, t_f, len(names)), dtype=np.float64)

    # ret_1d at price index t is the return into t; return column index t-1.
    feats[:, :, 0] = returns.returns[:, warmup - 1:]
    col = 1
    for w in vol_windows:
        # window of w returns ending at price index t -> return cols t-w..t-1
        stds = _rolling_std(returns.returns, w)  # cols end at return index w-1..T-2
        feats[:, :, col] = stds[:, warmup - w:]
        col += 1
    for w in dd_windows:
        highs = sliding_window_view(p, w, axis=1).max(axis=2)  # ends at price index w-1..T-1
        feats[:, :, col] = p[:, warmup:] / highs[:, warmup - (w - 1):] - 1.0
        col += 1
    for w in mom_windows:
        feats[:, :, col] = p[:, warmup:] / p[:, warmup - w:t_total - w] - 1.0
        col += 1

    if not np.all(np.isfinite(feats)):
        raise DataError("non-finite feature values")
    return FeaturePanel(tickers=list(prices.tickers), dates=dates, features=feats, names=names)


def _axes(parts: list[str], xlim, ylim, x_tick_labels=None) -> tuple:
    x0, y0, x1, y1 = PLOT_AREA

    def sx(v):
        return x0 + (v - xlim[0]) / (xlim[1] - xlim[0]) * (x1 - x0)

    def sy(v):
        return y1 - (v - ylim[0]) / (ylim[1] - ylim[0]) * (y1 - y0)

    parts.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
                 f'fill="none" stroke="#333" stroke-width="1"/>')
    for tv in _ticks(*ylim):
        y = sy(tv)
        parts.append(f'<line x1="{x0 - 4}" y1="{y:.1f}" x2="{x0}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{x0 - 8}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{_fmt(tv)}</text>')
        parts.append(f'<line x1="{x0}" y1="{y:.1f}" x2="{x1}" y2="{y:.1f}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
    if x_tick_labels is None:
        for tv in _ticks(*xlim):
            x = sx(tv)
            parts.append(f'<line x1="{x:.1f}" y1="{y1}" x2="{x:.1f}" y2="{y1 + 4}" stroke="#333"/>')
            parts.append(f'<text x="{x:.1f}" y="{y1 + 18}" font-size="11" '
                         f'text-anchor="middle">{_fmt(tv)}</text>')
    else:
        for pos, label in x_tick_labels:
            x = sx(pos)
            parts.append(f'<line x1="{x:.1f}" y1="{y1}" x2="{x:.1f}" y2="{y1 + 4}" stroke="#333"/>')
            parts.append(f'<text x="{x:.1f}" y="{y1 + 18}" font-size="10" '
                         f'text-anchor="middle">{label}</text>')
    return sx, sy




def ingest_csv(path: str, *, tickers: list[str] | None = None, start: str | None = None,
               end: str | None = None, universe: dict[str, str] | None = None
               ) -> tuple[PricePanel, dict]:
    """Read a long-format price CSV into an aligned panel.

    tickers restricts the panel to that set (default: every ticker in the
    file); start/end are inclusive ISO date bounds applied before alignment;
    universe is a ticker -> sector map attached to the panel for the sector
    layer. Returns (panel, provenance): rows_read and dates_dropped (dates
    seen for in-scope tickers but off the common calendar).
    """
    for name, bound in (("start", start), ("end", end)):
        if bound is not None and not is_iso_date(bound):  # rows are kept by string order
            raise DataError(f"ingest_csv: {name} must be a YYYY-MM-DD date, got {bound!r}")
    if start is not None and end is not None and start > end:
        raise DataError(f"ingest_csv: start {start} is after end {end}")
    _, rows = read_csv(path, "price file", "date,ticker,adj_close", lambda r: (
        date.fromisoformat(r[0].strip()).isoformat(), r[1].strip(), float(r[2])))
    wanted = set(tickers) if tickers else None
    per_ticker: dict[str, dict[str, float]] = {}
    rows_read = 0
    for line_no, (day, ticker, price) in rows:
        rows_read += 1
        if not ticker:
            raise DataError(f"price file {path}: line {line_no}: empty ticker")
        if not np.isfinite(price) or price <= 0.0:
            raise DataError(f"price file {path}: line {line_no}: non-positive price {price!r} "
                            f"for {ticker}")
        if wanted is not None and ticker not in wanted:
            continue
        if start and day < start:
            continue
        if end and day > end:
            continue
        series = per_ticker.setdefault(ticker, {})
        if day in series:
            raise DataError(f"price file {path}: line {line_no}: duplicate observation for "
                            f"({ticker}, {day})")
        series[day] = price

    if wanted is not None:
        missing = sorted(wanted - per_ticker.keys())
        if missing:
            raise DataError(f"requested tickers absent from {path}: {', '.join(missing)}")
    if not per_ticker:
        raise DataError(f"{path}: no usable rows")

    tickers = sorted(per_ticker)
    _check_plain("ticker", tickers, path)
    common = set.intersection(*(set(s) for s in per_ticker.values()))
    if not common:
        raise DataError("tickers share no common dates; calendar intersection is empty")
    all_dates = set().union(*(s.keys() for s in per_ticker.values()))
    dates = sorted(common)

    prices = np.empty((len(tickers), len(dates)), dtype=np.float64)
    for i, ticker in enumerate(tickers):
        series = per_ticker[ticker]
        prices[i, :] = [series[d] for d in dates]

    meta = None
    if universe is not None:
        # Keep only entries for tickers that made it into the panel; strict
        # unknown-ticker checking happens where the sector layer is built.
        meta = {t: s for t, s in universe.items() if t in set(tickers)}

    panel = PricePanel(tickers=tickers, dates=dates, prices=prices, universe_meta=meta)
    return panel, {"rows_read": rows_read, "dates_dropped": len(all_dates) - len(dates)}
