"""Node features, crash-regime labels, and train-range standardization.

Per ticker and date the feature vector is, in order:

    ret_1d   daily log return ln(p[t] / p[t-1])
    vol_W    sample std (ddof=1) of the last W log returns, per vol window
    dd_W     p[t] / max(p[t-W+1..t]) - 1, per drawdown window
    mom_W    p[t] / p[t-W] - 1, per momentum window

Defaults give the 7-vector [ret_1d, vol_20, vol_60, dd_20, dd_60, mom_10,
mom_30]. ``compute_features`` takes the price panel alone and derives the log
returns from it. Every value at date t uses prices up to and including t only;
the warm-up prefix (first max-window days, 60 by default) carries no features.

Labels look forward, one per date: t is positive when the equal-weight
portfolio of all tickers (prices normalized to 1 at t) falls at least
``threshold`` below its value at t within the next ``horizon`` trading days.
The final ``horizon`` dates carry no label.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import FeatureConfig
from .errors import DataError, ShapeError
from .market_data import PricePanel, log_returns, read_csv, write_csv

__all__ = [
    "FeaturePanel",
    "Standardization",
    "feature_names",
    "compute_features",
    "compute_labels",
    "attach_labels",
    "standardize",
    "apply_standardization",
    "write_features_csv",
    "read_features_csv",
    "write_graph_labels_csv",
]


def feature_names(vol_windows=FeatureConfig.vol_windows, dd_windows=FeatureConfig.dd_windows,
                  mom_windows=FeatureConfig.momentum_windows) -> list[str]:
    return (["ret_1d"]
            + [f"vol_{w}" for w in vol_windows]
            + [f"dd_{w}" for w in dd_windows]
            + [f"mom_{w}" for w in mom_windows])


@dataclass
class Standardization:
    """Per-feature z-score statistics fitted on a training date range;
    ``mean`` and ``std`` are stored as float64 arrays."""

    mean: np.ndarray  # length F
    std: np.ndarray  # length F, zero-variance entries replaced by 1.0
    degenerate: list[str] = field(default_factory=list)  # features whose std was 0

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)


@dataclass
class FeaturePanel:
    """Feature cube plus (optionally) labels over the feature-valid dates."""

    tickers: list[str]
    dates: list[str]  # feature-valid dates (warm-up excluded)
    features: np.ndarray  # N x T_f x F
    names: list[str]
    macro: np.ndarray | None = None  # T_f x M day-level overlay, appended to every node
    macro_names: list[str] = field(default_factory=list)
    graph_labels: np.ndarray | None = None  # T_f int8
    label_valid: np.ndarray | None = None  # T_f bool; False on the last `horizon` dates
    standardization: Standardization | None = None


def _rolling_std(returns: np.ndarray, window: int, block_bytes: int = 64 << 20) -> np.ndarray:
    # returns: N x (T-1); output column j is the std of the window ending at
    # return index j + window - 1. Each window reduces independently, so
    # truncating the panel after t never changes values at or before t, and
    # tickers go in blocks whose centred windows, which .std copies, fit block_bytes.
    win = sliding_window_view(returns, window, axis=1)
    out = np.empty(win.shape[:2])
    step = max(1, block_bytes // (8 * win.shape[1] * window))
    for i in range(0, len(out), step):
        out[i:i + step] = win[i:i + step].std(axis=2, ddof=1)
    return out


def compute_features(prices: PricePanel, vol_windows=FeatureConfig.vol_windows,
                     dd_windows=FeatureConfig.dd_windows,
                     mom_windows=FeatureConfig.momentum_windows) -> FeaturePanel:
    """Build the feature cube over the panel's feature-valid dates from its prices alone."""
    returns, p = log_returns(prices).returns, prices.prices
    t_total = p.shape[1]
    warmup = max(max(vol_windows), max(dd_windows) - 1, max(mom_windows), 1)
    if t_total <= warmup:
        raise DataError(f"need more than {warmup} price dates for features, have {t_total}")

    # ret_1d at price index t is the return into t, return column t-1. A vol window
    # of w returns ending at t covers return columns t-w..t-1; the rolling stds end
    # at return index w-1..T-2, and the rolling highs at price index w-1..T-1.
    feats = np.stack(
        [returns[:, warmup - 1:]]
        + [_rolling_std(returns, w)[:, warmup - w:] for w in vol_windows]
        + [p[:, warmup:] / sliding_window_view(p, w, axis=1).max(axis=2)[:, warmup - (w - 1):]
           - 1.0 for w in dd_windows]
        + [p[:, warmup:] / p[:, warmup - w:t_total - w] - 1.0 for w in mom_windows],
        axis=2)  # in feature_names order

    if not np.all(np.isfinite(feats)):
        raise DataError("non-finite feature values")
    return FeaturePanel(tickers=list(prices.tickers), dates=list(prices.dates[warmup:]),
                        features=feats,
                        names=feature_names(vol_windows, dd_windows, mom_windows))


def compute_labels(prices: PricePanel, threshold: float = 0.10,
                   horizon: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Forward-drawdown portfolio labels over all panel dates.

    Returns (graph_labels T, valid T). Position t is positive when the
    minimum over h in 1..horizon of the mean over tickers of p[t+h]/p[t],
    minus 1, is <= -threshold (boundary inclusive). valid[t] is False when
    fewer than ``horizon`` future dates exist; labels there are 0 and must be
    ignored.
    """
    if not (0.0 < threshold < 1.0):
        raise DataError(f"label threshold must be in (0, 1), got {threshold}")
    if horizon < 1:
        raise DataError(f"label horizon must be >= 1, got {horizon}")
    p = prices.prices
    t_total = p.shape[1]
    graph = np.zeros(t_total, dtype=np.int8)
    valid = np.zeros(t_total, dtype=bool)
    if t_total > horizon:
        t_lab = t_total - horizon
        base = p[:, :t_lab]
        # equal-weight portfolio entered at t: value after h days is the mean
        # over tickers of p[t+h]/p[t]; take the worst value over the horizon
        port_min = np.full(t_lab, np.inf)
        for h in range(1, horizon + 1):
            ratio = (p[:, h:h + t_lab] / base).mean(axis=0)
            port_min = np.minimum(port_min, ratio)
        graph[:t_lab] = (port_min - 1.0 <= -threshold).astype(np.int8)
        valid[:t_lab] = True
    return graph, valid


def attach_labels(panel: FeaturePanel, prices: PricePanel, threshold: float = 0.10,
                  horizon: int = 60) -> FeaturePanel:
    """Compute labels and align them onto the panel's feature dates."""
    graph, valid = compute_labels(prices, threshold, horizon)
    offset = len(prices.dates) - len(panel.dates)
    panel.graph_labels = graph[offset:]
    panel.label_valid = valid[offset:]
    return panel


def standardize(panel: FeaturePanel, train_range: tuple[str, str]) -> FeaturePanel:
    """Z-score features using statistics from the train date range only.

    Returns a new panel; a zero-variance feature gets std 1.0 and a recorded
    warning instead of a division blow-up. The fitted statistics ride along
    in ``standardization`` and apply to every date, train or not.
    """
    start, end = train_range
    idx = [t for t, d in enumerate(panel.dates) if start <= d <= end]
    if not idx:
        raise DataError(f"standardize: no panel dates inside train range {start}..{end}")
    cells = panel.features[:, idx, :]  # N x T_train x F
    mean = cells.mean(axis=(0, 1))
    std = cells.std(axis=(0, 1))  # population std: train cells map to exactly mean 0, std 1
    degenerate = [panel.names[f] for f in range(len(panel.names)) if std[f] == 0.0]
    for name in degenerate:
        warnings.warn(f"feature {name} has zero variance on the train range; std set to 1")
    std = np.where(std == 0.0, 1.0, std)

    return apply_standardization(panel, Standardization(mean, std, degenerate))


def apply_standardization(panel: FeaturePanel, stats: Standardization) -> FeaturePanel:
    """Apply already-fitted z-score statistics to a raw panel. The new panel
    has its own feature cube; every other field (labels, validity, macro
    overlay, name lists) is the input panel's own object, shared, not copied."""
    if stats.mean.shape != (len(panel.names),):
        raise ShapeError(
            f"standardization stats cover {stats.mean.shape[0]} features, "
            f"panel has {len(panel.names)}")
    return replace(panel, features=(panel.features - stats.mean) / stats.std,
                   standardization=stats)


# -- serialization ---------------------------------------------------------

def write_features_csv(panel: FeaturePanel, path: str) -> None:
    """Long CSV: date,ticker,<features...>."""
    write_csv(path, ["date", "ticker", *panel.names],
              ((day, ticker, *row) for t, day in enumerate(panel.dates)
               for ticker, row in zip(panel.tickers, panel.features[:, t, :].tolist())))


def read_features_csv(path: str) -> FeaturePanel:
    header, rows = read_csv(path, "features file", "date,ticker,*", lambda r: (
        r[0], r[1], [float(v) for v in r[2:]]))
    names = header[2:]
    cells = list(rows)
    dates = sorted({c[0] for _, c in cells})
    tickers = sorted({c[1] for _, c in cells})
    d_idx = {d: t for t, d in enumerate(dates)}
    t_idx = {k: i for i, k in enumerate(tickers)}
    feats = np.full((len(tickers), len(dates), len(names)), np.nan)
    seen = np.zeros(feats.shape[:2], dtype=bool)
    for line_no, (day, ticker, values) in cells:
        i, t = t_idx[ticker], d_idx[day]
        if seen[i, t]:
            raise DataError(f"features file {path}: line {line_no}: a second row for "
                            f"({day}, {ticker})")
        feats[i, t, :], seen[i, t] = values, True
    if not np.isfinite(feats).all():
        raise DataError(f"{path}: missing (date, ticker) cells or non-finite values")
    return FeaturePanel(tickers=tickers, dates=dates, features=feats, names=names)


def write_graph_labels_csv(panel: FeaturePanel, path: str) -> None:
    """Companion CSV: date,graph_label (blank when the date is unlabeled)."""
    if panel.graph_labels is None:
        raise DataError("panel carries no graph labels")
    write_csv(path, ["date", "graph_label"],
              ((day, int(y) if v else "")
               for day, y, v in zip(panel.dates, panel.graph_labels, panel.label_valid)))
