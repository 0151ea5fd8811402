"""Synthetic price panels with planted correlation-spike regimes.

The generator repeats a four-phase cycle: calm drift, a correlation spike
(returns dominated by one common factor while price levels stay flat), a
crash (strong common negative drift), then a recovery. The spike starts
before the crash, so a forward-looking drawdown label turns positive while
the only visible signals are the dense correlation graph and rising
volatility. This makes the full pipeline testable end to end without any
market data, with a known planted lead structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .market_data import PricePanel, write_panel_csv
from . import tensor as tz

__all__ = ["RegimeParams", "planted_regime_panel", "write_synthetic_csv", "business_days"]


@dataclass
class RegimeParams:
    """Phase lengths (trading days) and return dynamics per phase."""

    calm_days: int = 95
    spike_days: int = 15
    crash_days: int = 15
    recovery_days: int = 15
    calm_drift: float = 0.0003
    calm_idio_vol: float = 0.010
    spike_common_vol: float = 0.022
    spike_idio_vol: float = 0.005
    crash_drift: float = -0.014
    crash_common_vol: float = 0.010
    crash_idio_vol: float = 0.006
    recovery_drift: float = 0.012
    recovery_idio_vol: float = 0.008

    @property
    def cycle_days(self) -> int:
        return self.calm_days + self.spike_days + self.crash_days + self.recovery_days


def business_days(start: str, count: int) -> list[str]:
    """`count` weekdays starting at the first weekday on/after `start`."""
    return np.busday_offset(start, np.arange(count), roll="forward").astype(str).tolist()


def planted_regime_panel(n_tickers: int = 20, n_days: int = 600, seed: int = 7,
                         start: str = "2015-01-02",
                         params: RegimeParams | None = None
                         ) -> tuple[list[str], list[str], np.ndarray]:
    """Simulate the panel; returns (dates, tickers, prices N x T)."""
    if n_tickers < 2 or n_days < 10:
        raise DataError("need at least 2 tickers and 10 days of synthetic data")
    p = params or RegimeParams()
    if p.cycle_days < 1:
        raise DataError("the regime cycle needs at least one day")
    rng = tz.seeded_rng(seed, 424242)
    tickers = [f"SYN{i:02d}" for i in range(n_tickers)]
    dates = business_days(start, n_days)

    # One row per day: the common factor's shock, then each ticker's.
    shocks = rng.standard_normal((n_days - 1, n_tickers + 1))
    phases = np.array([(p.calm_drift, 0.0, p.calm_idio_vol),  # drift, common vol, idio vol
                       (0.0, p.spike_common_vol, p.spike_idio_vol),
                       (p.crash_drift, p.crash_common_vol, p.crash_idio_vol),
                       (p.recovery_drift, 0.0, p.recovery_idio_vol)])
    phase = np.searchsorted(np.cumsum([p.calm_days, p.spike_days, p.crash_days]),
                            np.arange(n_days - 1) % p.cycle_days, side="right")
    drift, common_vol, idio_vol = phases[phase].T[:, :, None]
    log_ret = (drift + common_vol * shocks[:, :1] + idio_vol * shocks[:, 1:]).T

    prices = np.empty((n_tickers, n_days))
    prices[:, 0] = 100.0
    prices[:, 1:] = 100.0 * np.exp(np.cumsum(log_ret, axis=1))
    return dates, tickers, prices


def write_synthetic_csv(path: str, n_tickers: int = 20, n_days: int = 600, seed: int = 7,
                        start: str = "2015-01-02", params: RegimeParams | None = None) -> dict:
    """Generate and write the long-format price CSV; returns a small echo dict."""
    dates, tickers, prices = planted_regime_panel(n_tickers, n_days, seed, start, params)
    write_panel_csv(PricePanel(tickers=tickers, dates=dates, prices=prices), path)
    return {"path": str(path), "n_tickers": n_tickers, "n_days": n_days, "seed": seed}
