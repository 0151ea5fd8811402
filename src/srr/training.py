"""Chronological splitting, sample assembly, and training loops.

The split is strictly chronological: the first floor(ratio * T) dates are
the training block, the rest the test block. Because labels peek up to
``horizon`` days forward, the last ``horizon`` dates of the training block
are embargoed (no training sample's label window may cross into the test
range). Model families and their sample grids:

    logistic / forest   one sample per labeled day (daily grid)
    temporal            one sample per sequence of k consecutive sampled
                        snapshots whose final snapshot is labeled
    gcn                 the k = 1 sequence: one sample per labeled snapshot
                        on the stride grid

Both graph kinds read each stride-grid snapshot as (A_hat, A_hat X): its
normalized adjacency, and that times the panel's node-feature rows X for its
date, the encoder's parameter-free first product. Each time a kind is
trained or scored, its side's samples become (S, k) index rows into one
stack that holds each snapshot they read once, the input of both kinds'
``forward(a_hat, ax, rows, params)``, so each mini-batch runs one batched
forward and backward, and scoring encodes each snapshot once.
GNNs train with seeded shuffled mini-batches and a fixed epoch count; Adam
updates one flat parameter vector in place, and the parameters from the
best-mean-train-loss epoch are retained.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import Config, ModelConfig, config_hash
from .errors import DataError, NumericalError
from . import tensor as tz
from .features import FeaturePanel
from .graphs import GraphSnapshot, _fit_in_memory
from .models.gcn import adjacency_from_snapshot, gcn_backward, gcn_forward, gcn_normalize, init_gcn
from .models.state import ModelState
from .models.temporal import init_gru, temporal_backward, temporal_forward
from .models.baselines import (
    day_feature_matrix,
    day_feature_names,
    forest_fit,
    forest_predict,
    logistic_fit,
    logistic_predict,
)

__all__ = [
    "SplitPlan",
    "chronological_split",
    "DataBundle",
    "train",
    "check_state",
    "predict_scores",
]


@dataclass
class SplitPlan:
    """Date ranges for one chronological train/test split."""

    train_dates: list[str]  # embargoed: the last `horizon` pre-boundary dates removed
    test_dates: list[str]

    def side(self, date: str) -> str | None:
        if date <= self.train_dates[-1]:
            return "train"
        if date >= self.test_dates[0]:
            return "test"
        return None  # inside the embargo gap


def chronological_split(dates: list[str], ratio: float = 0.8, horizon: int = 60) -> SplitPlan:
    """Split a sorted date list; the embargo trims the train tail only."""
    if not (0.0 < ratio < 1.0):
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    if horizon < 0:
        raise DataError(f"horizon must be >= 0, got {horizon}")
    n_train = math.floor(ratio * len(dates))
    n_kept = n_train - horizon
    if n_kept < 1 or n_train >= len(dates):
        raise DataError(
            f"cannot split {len(dates)} dates at ratio {ratio} with a {horizon}-day embargo"
        )
    return SplitPlan(train_dates=list(dates[:n_kept]), test_dates=list(dates[n_train:]))


@dataclass
class DataBundle:
    """Everything the training and evaluation code needs for one run."""

    panel: FeaturePanel  # standardized features with labels attached
    snapshots: list[GraphSnapshot]
    split: SplitPlan


# -- sample assembly ---------------------------------------------------------

def _day_xy(bundle: DataBundle, side: str) -> tuple[np.ndarray, np.ndarray, list[str]] | None:
    """The labeled ``side`` days as (x, y, dates), or None when there are none."""
    panel = bundle.panel
    idx = [t for t, d in enumerate(panel.dates)
           if panel.label_valid[t] and bundle.split.side(d) == side]
    if not idx:
        return None
    x = day_feature_matrix(panel, idx)
    y = panel.graph_labels[idx].astype(np.float64)
    return x, y, [panel.dates[t] for t in idx]


class _GraphSamples(NamedTuple):
    """The labeled sequences of one side, as index rows into one snapshot stack."""

    a_hat: np.ndarray  # (G, N, N): each snapshot the sequences read, once, oldest first
    ax: np.ndarray  # (G, N, F): a_hat @ x, x the snapshot date's node-feature rows
    rows: np.ndarray  # (S, k) stack indices of each sequence's snapshots, oldest first
    labels: np.ndarray  # (S,)
    dates: list[str]  # (S,) the date of each sequence's final snapshot


def _graph_samples(bundle: DataBundle, hyper: dict, side: str,
                   check_only: bool = False) -> _GraphSamples | None:
    """The labeled ``side`` sequences of k stride-grid snapshots, or None when
    there are none; a snapshot sample is the k = 1 sequence. A sequence is a
    window of k consecutive grid points, labeled by its last snapshot. With
    ``check_only``, the stacks are sized but not built, and the rows returned."""
    snapshots, k = bundle.snapshots, hyper.get("k", 1)
    grid = np.arange(0, len(snapshots), hyper["stride"])
    if len(grid) < k:
        return None
    windows = np.lib.stride_tricks.sliding_window_view(grid, k)
    ends = [snapshots[t] for t in windows[:, -1]]
    keep = [s.graph_label is not None and bundle.split.side(s.date) == side for s in ends]
    if not any(keep):
        return None
    # Each window starts after the one before it, so sorted indices are first-read order.
    read, rows = np.unique(windows[keep], return_inverse=True)
    read, ends = [snapshots[t] for t in read], [s for s, kept in zip(ends, keep) if kept]
    panel, layers, weighted = bundle.panel, tuple(hyper["layers"]), hyper["weighted_adjacency"]
    position = {d: t for t, d in enumerate(panel.dates)}
    for snap in read:
        if snap.node_ids != panel.tickers or snap.date not in position:
            raise DataError(f"snapshot {snap.date} does not match the feature panel's "
                            "tickers and dates")
    # the adjacency list, its stack and gcn_normalize's two temporaries, held at once
    n = len(panel.tickers)
    _fit_in_memory(4 * len(read) * n * n * 8, f"the {side} side's {len(read)} graphs of {n} nodes",
                   "adjacency stacks")
    if check_only:
        return rows
    a_hat = gcn_normalize(np.stack([adjacency_from_snapshot(s, layers=layers, weighted=weighted)
                                    for s in read]))
    t = [position[s.date] for s in read]
    x = panel.features.swapaxes(0, 1)[t]  # (G, N, F)
    if panel.macro is not None:  # each date's overlay, on every node's row
        macro = np.broadcast_to(panel.macro[t, None], (*x.shape[:2], panel.macro.shape[1]))
        x = np.concatenate([x, macro], axis=2)
    ax = a_hat @ x
    return _GraphSamples(a_hat, ax, rows.reshape(-1, k),
                         np.array([float(s.graph_label) for s in ends]), [s.date for s in ends])


def _check_two_classes(labels, kind: str) -> None:
    values = sorted({float(v) for v in labels})
    if len(values) < 2:
        raise DataError(f"{kind}: training labels are single-class (saw only {values})")


# -- mini-batch engine --------------------------------------------------------

def _loss_fn(m: ModelConfig) -> Callable:
    if m.loss == "focal":
        return lambda probs, targets: tz.focal_loss(probs, targets, m.focal_gamma)
    return tz.bce_loss


def _train_minibatch(samples: _GraphSamples, params: dict, forward, backward,
                     m: ModelConfig, seed: int, kind: str) -> tuple[dict, list[float], int]:
    """Shared shuffled-mini-batch Adam loop for both GNN families: one forward
    and one backward per mini-batch.

    ``forward(a_hat, ax, rows, params) -> (probs, cache)`` scores the sequences
    whose snapshots are ``rows`` (B x k) of the (a_hat, ax) stacks;
    ``backward(dlogits, cache, params, grads)`` writes the batch's summed
    gradients into ``grads``. Each batch passes the distinct snapshots it
    reads, once each. Parameters and gradients are views into two flat
    vectors, and Adam updates the parameters in place. NumPy's overflow
    warnings stay quiet: the loss and Adam trap every non-finite value, and
    the error names the kind, epoch and batch.
    Returns (best parameters, per-epoch mean losses, best epoch index).
    """
    loss_fn = _loss_fn(m)
    theta, params = tz.flatten(params)
    grad, grads = tz.flatten(params)  # the same layout; each backward overwrites it
    opt = tz.AdamState({k: v.size for k, v in params.items()}, lr=m.learning_rate)
    rng = tz.seeded_rng(seed, 11)
    n = len(samples.labels)
    best_loss = np.inf
    best_theta = theta.copy()
    best_epoch = -1
    history: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(m.epochs):
            perm = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, m.batch_size):
                chunk = perm[start:start + m.batch_size]
                # the batch's snapshots in stack order; NumPy releases differ on rows' shape
                used, rows = np.unique(samples.rows[chunk], return_inverse=True)
                rows = rows.reshape(len(chunk), samples.rows.shape[1])
                try:
                    probs, cache = forward(samples.a_hat[used], samples.ax[used], rows, params)
                    loss, dlogits = loss_fn(probs, samples.labels[chunk])
                    if not math.isfinite(loss):
                        raise NumericalError(f"loss={loss!r}")
                    backward(dlogits, cache, params, grads)
                    tz.adam_step(theta, grad, opt)
                except NumericalError as exc:
                    raise NumericalError(f"{kind}: training diverged at epoch {epoch}, batch "
                                         f"{start // m.batch_size}: {exc}") from None
                epoch_loss += loss * len(chunk)
            epoch_loss /= n
            history.append(float(epoch_loss))
            if epoch_loss < best_loss:
                best_loss = epoch_loss
                best_theta[...] = theta
                best_epoch = epoch
    theta[...] = best_theta
    return params, history, best_epoch


# -- model kinds ----------------------------------------------------------------
# The entries reach the model functions through this module's names when they
# run, never at import, so a wrapper set on ``srr.training.<name>`` sees every call.

class _DayKind(NamedTuple):
    """A kind fit on the daily feature rows of ``_day_xy``."""

    fit: Callable  # (x, y, seed, **hyper) -> params
    predict: Callable  # (params, x) -> scores
    hyper: dict  # header key -> ModelConfig field; the keys are fit's keywords
    shapes: Callable  # (n_inputs, model config) -> {tensor: shape fit gives it}, None: any >= 1
    noun = "days"  # what one sample is, for error messages


class _GraphKind(NamedTuple):
    """A kind trained by ``_train_minibatch`` on sequences of stride-grid snapshots."""

    init: Callable  # (n_features, model config, seed) -> params
    forward: str  # this module's name of (a_hat, ax, rows, params) -> (probs, cache)
    backward: str  # ... and of (dlogits, cache, params, grads), filling grads
    hyper: dict  # header key -> ModelConfig field
    noun: str  # what one sample is, for error messages


_GRAPH_HYPER = {"hidden": "gcn_hidden", "epochs": "epochs", "batch_size": "batch_size",
                "lr": "learning_rate", "loss": "loss", "focal_gamma": "focal_gamma",
                "stride": "stride"}


def _temporal_init(n_features: int, s: ModelConfig, seed: int) -> dict:
    params = init_gcn(tz.seeded_rng(seed, 1), n_features, s.gcn_hidden, s.mlp_hidden)
    params = {k: params[k] for k in ("w1", "b1", "w2", "b2")}
    params.update(init_gru(tz.seeded_rng(seed, 2), s.gcn_hidden, s.gru_hidden))
    return params


_KINDS = {
    "logistic": _DayKind(
        fit=lambda x, y, seed, **hyper: logistic_fit(x, y, **hyper),
        predict=lambda p, x: logistic_predict(p, x),
        hyper={"lr": "logistic_lr", "max_epochs": "logistic_epochs", "tol": "logistic_tol"},
        shapes=lambda n, m: {"w": (n,), "b": (1,)}),
    "forest": _DayKind(
        fit=lambda x, y, seed, **hyper: forest_fit(x, y, seed=seed, **hyper),
        predict=lambda p, x: forest_predict(p, x),
        hyper={"n_trees": "forest_trees", "max_depth": "forest_max_depth",
               "min_leaf": "forest_min_leaf"},
        shapes=lambda n, m: {"feature_importance": (n,), **{
            f"tree_{t:04d}": (None, 7) for t in range(m.forest_trees)}}),
    "gcn": _GraphKind(
        init=lambda n, s, seed: init_gcn(tz.seeded_rng(seed, 1), n, s.gcn_hidden, s.mlp_hidden),
        forward="gcn_forward", backward="gcn_backward",
        hyper={**_GRAPH_HYPER, "mlp_hidden": "mlp_hidden"},
        noun="snapshots"),
    "temporal": _GraphKind(
        init=_temporal_init,
        forward="temporal_forward", backward="temporal_backward",
        hyper={**_GRAPH_HYPER, "gru_hidden": "gru_hidden", "k": "sequence_length"},
        noun="sequences"),
}


# -- training and scoring ---------------------------------------------------------

def _header(kind: str, cfg: Config, panel: FeaturePanel) -> dict:
    """The settings, as ``hyper``, of a ``kind`` model trained with ``cfg`` on ``panel``,
    with ``cfg``'s hash, which covers the seed and every section."""
    spec, graph = _KINDS[kind], cfg.graph
    header = {key: getattr(cfg.model, name) for key, name in spec.hyper.items()}
    header["config_hash"] = config_hash(cfg)
    if isinstance(spec, _DayKind):
        return {**header, "inputs": day_feature_names(panel)}
    return {**header, "weighted_adjacency": graph.weighted_adjacency, "layers": list(graph.layers),
            "n_features": len(panel.names) + len(panel.macro_names)}  # the width of X


def _samples(kind: str, bundle: DataBundle, hyper: dict, side: str, check_only: bool = False):
    """``kind``'s labeled ``side`` samples on its grid: ``_day_xy`` of a day kind,
    ``_graph_samples`` of a graph kind; a DataError naming the kind if there are none."""
    spec = _KINDS[kind]
    samples = (_day_xy(bundle, side) if isinstance(spec, _DayKind)
               else _graph_samples(bundle, hyper, side, check_only))
    if samples is None:
        raise DataError(f"{kind}: no labeled {side} {spec.noun}")
    return samples


def train(kind: str, bundle: DataBundle, cfg: Config) -> tuple[ModelState, dict]:
    """Fit one model kind with ``cfg.model``, ``cfg.graph`` and ``cfg.seed``;
    returns (state, training log). The state's ``hyper`` records every setting
    that scoring needs and ``cfg``'s hash. The log holds the sample count, and
    for a graph kind each epoch's mean loss and the best epoch."""
    if kind not in _KINDS:
        raise DataError(f"unknown model kind {kind!r}")
    spec, m, seed, hyper = _KINDS[kind], cfg.model, cfg.seed, _header(kind, cfg, bundle.panel)
    samples = _samples(kind, bundle, hyper, "train")
    if isinstance(spec, _DayKind):
        x, y, _ = samples
        _check_two_classes(y, kind)
        params = spec.fit(x, y, seed, **{key: hyper[key] for key in spec.hyper})
        log = {"samples": int(y.size)}
    else:
        _check_two_classes(samples.labels, kind)
        params, epoch_loss, best_epoch = _train_minibatch(
            samples, spec.init(hyper["n_features"], m, seed), globals()[spec.forward],
            globals()[spec.backward], m, seed, kind)
        log = {"samples": len(samples.labels), "epoch_loss": epoch_loss, "best_epoch": best_epoch}
    return ModelState(kind=kind, params=params, hyper=hyper), log


def check_state(state: ModelState, kind: str, cfg: Config, panel: FeaturePanel) -> None:
    """Raise DataError unless ``state`` is the ``kind`` model that ``train`` writes with
    ``cfg`` on ``panel``: the settings of its ``_header``, and tensors of the shapes they imply."""
    spec, hyper, header = _KINDS[kind], state.hyper, _header(kind, cfg, panel)
    if state.kind != kind:
        raise DataError(f"it holds a {state.kind} model, not a {kind} model")
    for key in sorted(header.keys() | hyper.keys()):  # as JSON text: 5.0 is not 5, 0 not false
        got, want = (json.dumps(h[key], sort_keys=True) if key in h else None
                     for h in (hyper, header))
        if got != want:
            raise DataError(f"the {kind} model records " + (
                f"no {key!r} setting" if got is None else f"an unknown setting {key!r}"
                if want is None else f"{key} = {got}; the run gives {want}"))
    want = (spec.shapes(len(header["inputs"]), cfg.model) if isinstance(spec, _DayKind) else
            {name: t.shape for name, t in spec.init(header["n_features"], cfg.model, 0).items()})
    for name in sorted(want.keys() | state.params.keys()):
        got, shape = getattr(state.params.get(name), "shape", None), want.get(name)
        if got is None or shape is None:
            raise DataError(f"the {kind} model {'lacks' if got is None else 'has an unknown'} "
                            f"tensor {name!r}")
        if len(got) != len(shape) or not all(g == w or w is None and g > 0
                                             for g, w in zip(got, shape)):
            raise DataError(f"the {kind} model's tensor {name!r} has shape {got}; "
                            f"its settings imply {shape}")


def predict_scores(state: ModelState, bundle: DataBundle,
                   side: str = "test") -> tuple[list[str], np.ndarray, np.ndarray]:
    """Score the given side of the split on the model's own sample grid, with
    the graph settings recorded in ``state.hyper`` at training time.

    Returns (dates, scores, labels), chronologically ordered. A graph kind
    encodes each snapshot the side reads once, then scores every sample in one
    pass. Raises NumericalError when any score is not finite.
    """
    spec = _KINDS[state.kind]  # ModelState accepts only known kinds
    samples = _samples(state.kind, bundle, state.hyper, side)
    if isinstance(spec, _DayKind):
        x, labels, dates = samples
        scores = spec.predict(state.params, x)
    else:
        scores, _ = globals()[spec.forward](samples.a_hat, samples.ax, samples.rows, state.params)
        dates, labels = samples.dates, samples.labels
    if not np.all(np.isfinite(scores)):
        raise NumericalError(f"{state.kind}: non-finite scores on the {side} side")
    return dates, scores, labels
