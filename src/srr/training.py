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

Both graph kinds read the normalized adjacency A_hat of the stride-grid
snapshots only; it is built once per bundle and shared between them.
GNNs train with seeded shuffled mini-batches, Adam, and a fixed epoch
count; the parameters from the best-mean-train-loss epoch are retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DataError, NumericalError
from . import tensor as tz
from .features import FeaturePanel
from .graphs import GraphSnapshot, build_sequences
from .models import (
    ModelState,
    adjacency_from_snapshot,
    gcn_normalize,
    init_gcn,
    init_gru,
    gcn_forward,
    gcn_backward,
    temporal_forward,
    temporal_backward,
)
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
    "TrainSettings",
    "DataBundle",
    "train",
    "predict_scores",
]


@dataclass
class SplitPlan:
    """Date ranges for one chronological train/test split."""

    train_dates: list[str]  # embargoed: the last `horizon` pre-boundary dates removed
    test_dates: list[str]
    ratio: float
    horizon: int

    @property
    def train_end(self) -> str:
        return self.train_dates[-1]

    @property
    def test_start(self) -> str:
        return self.test_dates[0]

    def side(self, date: str) -> str | None:
        if date <= self.train_end:
            return "train"
        if date >= self.test_start:
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
    return SplitPlan(
        train_dates=list(dates[:n_kept]),
        test_dates=list(dates[n_train:]),
        ratio=ratio,
        horizon=horizon,
    )


@dataclass
class TrainSettings:
    """Hyperparameters for every model family, with the toolkit defaults."""

    gcn_hidden: int = 32
    mlp_hidden: int = 16
    gru_hidden: int = 64
    k: int = 5
    stride: int = 5
    epochs: int = 50
    batch_size: int = 8
    lr: float = 1e-3
    loss: str = "bce"  # "bce" | "focal"
    focal_gamma: float = 2.0
    weighted_adjacency: bool = False
    layers: tuple[str, ...] = ("correlation",)
    logistic_lr: float = 0.05
    logistic_epochs: int = 2000
    logistic_tol: float = 1e-6
    forest_trees: int = 50
    forest_max_depth: int = 6
    forest_min_leaf: int = 2

    def loss_fn(self):
        if self.loss == "bce":
            return tz.bce_loss
        if self.loss == "focal":
            gamma = self.focal_gamma
            return lambda probs, targets: tz.focal_loss(probs, targets, gamma)
        raise DataError(f"unknown loss {self.loss!r}, expected bce or focal")


@dataclass
class DataBundle:
    """Everything the training and evaluation code needs for one run."""

    panel: FeaturePanel  # standardized features with labels attached
    snapshots: list[GraphSnapshot]
    split: SplitPlan
    macro_names: list[str] = field(default_factory=list)
    # (graph settings, stride-grid snapshots, id -> A_hat), filled by _grid_a_hats
    a_hat_cache: tuple = field(default=(), init=False, repr=False, compare=False)


# -- sample assembly ---------------------------------------------------------

def _day_xy(bundle: DataBundle, side: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    panel = bundle.panel
    idx = [t for t, d in enumerate(panel.dates)
           if panel.label_valid[t] and bundle.split.side(d) == side]
    if not idx:
        raise DataError(f"no labeled {side} days available")
    x = day_feature_matrix(panel, idx)
    y = panel.graph_labels[idx].astype(np.float64)
    return x, y, [panel.dates[t] for t in idx]


def _grid_a_hats(bundle: DataBundle, settings: TrainSettings) -> dict[int, np.ndarray]:
    """id(snapshot) -> A_hat for the stride-grid snapshots, built once per bundle.

    The cache keeps the snapshots it was built from and is rebuilt as soon as
    the grid holds any other snapshot object, so it never serves a stale A_hat.
    """
    grid = bundle.snapshots[::settings.stride]
    key = (tuple(settings.layers), settings.weighted_adjacency)
    cached = bundle.a_hat_cache
    if (not cached or cached[0] != key or len(cached[1]) != len(grid)
            or any(a is not b for a, b in zip(cached[1], grid))):
        table = {id(snap): gcn_normalize(adjacency_from_snapshot(
                     snap, layers=settings.layers, weighted=settings.weighted_adjacency))
                 for snap in grid}
        cached = bundle.a_hat_cache = (key, grid, table)
    return cached[2]


def _graph_samples(bundle: DataBundle, settings: TrainSettings, k: int,
                   side: str) -> list[tuple]:
    """(inputs, label, date) per labeled sequence of k stride-grid snapshots.

    ``inputs`` lists each snapshot's (A_hat, X), oldest first; a snapshot
    sample is the k = 1 sequence.
    """
    sequences = build_sequences(bundle.snapshots, k=k, stride=settings.stride)
    a_hat = _grid_a_hats(bundle, settings)
    return [([(a_hat[id(s)], s.node_features) for s in seq.snapshots],
             float(seq.graph_label), seq.date)
            for seq in sequences
            if seq.graph_label is not None and bundle.split.side(seq.date) == side]


def _check_two_classes(labels, kind: str) -> None:
    values = sorted({float(v) for v in labels})
    if len(values) < 2:
        raise DataError(f"{kind}: training labels are single-class (saw only {values})")


# -- mini-batch engine --------------------------------------------------------

def _train_minibatch(samples: list, params: dict, forward, backward, settings: TrainSettings,
                     seed: int, kind: str) -> tuple[dict, list[float], int]:
    """Shared shuffled-mini-batch Adam loop for both GNN families.

    ``samples`` are (inputs, label, date) tuples;
    ``forward(inputs, params) -> (prob, cache)``;
    ``backward(dlogit, cache, params) -> grads``.
    Returns (best parameters, per-epoch mean losses, best epoch index).
    """
    loss_fn = settings.loss_fn()
    opt = tz.AdamState(lr=settings.lr)
    rng = tz.seeded_rng(seed, 11)
    n = len(samples)
    targets_all = np.array([s[1] for s in samples])
    best_loss = np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    best_epoch = -1
    history: list[float] = []
    for epoch in range(settings.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, settings.batch_size):
            chunk = perm[start:start + settings.batch_size]
            probs, caches = zip(*(forward(samples[i][0], params) for i in chunk))
            loss, dlogits = loss_fn(np.array(probs), targets_all[chunk])
            if not np.isfinite(loss):
                raise NumericalError(
                    f"{kind}: training diverged at epoch {epoch}, batch {start // settings.batch_size}"
                    f" (loss={loss!r})"
                )
            grads = backward(float(dlogits[0]), caches[0], params)
            for dlogit, cache in zip(dlogits[1:], caches[1:]):
                for name, g in backward(float(dlogit), cache, params).items():
                    grads[name] += g
            params = tz.adam_step(params, grads, opt)
            epoch_loss += loss * len(chunk)
        epoch_loss /= n
        history.append(float(epoch_loss))
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_params = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch
    return best_params, history, best_epoch


# -- model kinds ----------------------------------------------------------------
# The entries reach the model functions through this module's names when they
# run, never at import, so a wrapper set on ``srr.training.<name>`` sees every call.

class _DayKind(NamedTuple):
    """A kind fit on the daily feature rows of ``_day_xy``."""

    fit: Callable  # (x, y, seed, **hyper) -> params
    predict: Callable  # (params, x) -> scores
    hyper: dict  # header key -> TrainSettings field; the keys are fit's keywords
    bookkeeping: tuple[str, ...] = ()


class _GraphKind(NamedTuple):
    """A kind trained by ``_train_minibatch`` on sequences of stride-grid snapshots."""

    k: Callable  # settings -> snapshots per sample
    init: Callable  # (n_features, settings, seed) -> params
    forward: Callable  # (inputs, params) -> (prob, cache)
    backward: Callable  # (dlogit, cache, params) -> grads
    hyper: dict  # header key -> TrainSettings field, besides _GRAPH_HYPER
    noun: str  # what one sample is, for error messages
    bookkeeping: tuple[str, ...] = ()


_GRAPH_HYPER = {"hidden": "gcn_hidden", "epochs": "epochs", "batch_size": "batch_size",
                "lr": "lr", "loss": "loss", "focal_gamma": "focal_gamma", "stride": "stride",
                "weighted_adjacency": "weighted_adjacency"}


def _logistic_fit(x, y, seed: int, **hyper) -> dict:
    w, b = logistic_fit(x, y, **hyper)
    return {"w": w, "b": np.array([b])}


def _temporal_init(n_features: int, s: TrainSettings, seed: int) -> dict:
    params = init_gcn(tz.seeded_rng(seed, 1), n_features, s.gcn_hidden, s.mlp_hidden)
    params = {k: params[k] for k in ("w1", "b1", "w2", "b2")}
    params.update(init_gru(tz.seeded_rng(seed, 2), s.gcn_hidden, s.gru_hidden))
    return params


_KINDS = {
    "logistic": _DayKind(
        fit=_logistic_fit,
        predict=lambda p, x: logistic_predict(p["w"], float(p["b"][0]), x),
        hyper={"lr": "logistic_lr", "max_epochs": "logistic_epochs", "tol": "logistic_tol"}),
    "forest": _DayKind(
        fit=lambda x, y, seed, **hyper: forest_fit(x, y, seed=seed, **hyper),
        predict=lambda p, x: forest_predict(p, x),
        hyper={"n_trees": "forest_trees", "max_depth": "forest_max_depth",
               "min_leaf": "forest_min_leaf"},
        bookkeeping=("feature_importance",)),
    "gcn": _GraphKind(
        k=lambda s: 1,
        init=lambda n, s, seed: init_gcn(tz.seeded_rng(seed, 1), n, s.gcn_hidden, s.mlp_hidden),
        forward=lambda inputs, p: gcn_forward(*inputs[0], p)[1:],
        backward=lambda dlogit, cache, p: gcn_backward(dlogit, cache, p),
        hyper={"mlp_hidden": "mlp_hidden"},
        noun="snapshots"),
    "temporal": _GraphKind(
        k=lambda s: s.k,
        init=_temporal_init,
        forward=lambda inputs, p: temporal_forward(inputs, p, p),
        backward=lambda dlogit, cache, p: {  # encoder grads, then GRU grads, in one dict
            name: g for group in temporal_backward(dlogit, cache, p, p)
            for name, g in group.items()},
        hyper={"gru_hidden": "gru_hidden", "k": "k"},
        noun="sequences"),
}


# -- training and scoring ---------------------------------------------------------

def train(kind: str, bundle: DataBundle, settings: TrainSettings, seed: int) -> tuple[ModelState, dict]:
    """Fit one model kind; returns (state, training log)."""
    if kind not in _KINDS:
        raise DataError(f"unknown model kind {kind!r}")
    spec, panel = _KINDS[kind], bundle.panel
    hyper = {key: getattr(settings, name) for key, name in spec.hyper.items()}
    log = {"kind": kind}
    if isinstance(spec, _DayKind):
        x, y, _ = _day_xy(bundle, "train")
        _check_two_classes(y, kind)
        params = spec.fit(x, y, seed, **hyper)
        hyper["inputs"] = day_feature_names(panel)
        log["samples"] = int(y.size)
    else:
        samples = _graph_samples(bundle, settings, spec.k(settings), "train")
        if not samples:
            raise DataError(f"{kind}: no labeled training {spec.noun} on the stride grid")
        _check_two_classes([s[1] for s in samples], kind)
        n_feat = panel.n_features + (0 if panel.macro is None else panel.macro.shape[1])
        params, log["epoch_loss"], log["best_epoch"] = _train_minibatch(
            samples, spec.init(n_feat, settings, seed), spec.forward, spec.backward,
            settings, seed, kind)
        hyper.update({key: getattr(settings, name) for key, name in _GRAPH_HYPER.items()},
                     n_features=n_feat, layers=list(settings.layers))
        log["samples"] = len(samples)
    std = panel.standardization
    state = ModelState(kind=kind, params=params, hyper=hyper, seed=seed,
                       standardization=None if std is None else std.to_dict(),
                       bookkeeping=spec.bookkeeping)
    return state, log


def predict_scores(state: ModelState, bundle: DataBundle, settings: TrainSettings,
                   side: str = "test") -> tuple[list[str], np.ndarray, np.ndarray]:
    """Score the given side of the split on the model's own sample grid.

    Returns (dates, scores, labels), chronologically ordered.
    """
    spec = _KINDS[state.kind]  # ModelState accepts only known kinds
    if isinstance(spec, _DayKind):
        x, y, dates = _day_xy(bundle, side)
        return dates, spec.predict(state.params, x), y
    samples = _graph_samples(bundle, settings, spec.k(settings), side)
    if not samples:
        raise DataError(f"{state.kind}: no labeled {side} {spec.noun} on the stride grid")
    scores = np.array([spec.forward(inputs, state.params)[0] for inputs, _, _ in samples])
    return [s[2] for s in samples], scores, np.array([s[1] for s in samples])
