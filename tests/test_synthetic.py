"""The planted-regime generator and its business-day calendar, bit for bit
against the day-by-day loops they replaced (``oracles``)."""

from dataclasses import replace

import pytest

import oracles
from srr.errors import DataError
from srr.synthetic import RegimeParams, business_days, planted_regime_panel

PARAMS = {
    "defaults": RegimeParams(),
    # spike-phase per-ticker volatility equal to calm: only the cross-section moves
    "structure_led": RegimeParams(spike_common_vol=0.0095, spike_idio_vol=0.003),
    "no_spike": RegimeParams(spike_days=0),
    "one_day_phases": RegimeParams(calm_days=1, spike_days=1, crash_days=1, recovery_days=1),
}


@pytest.mark.parametrize("params", list(PARAMS.values()), ids=list(PARAMS))
@pytest.mark.parametrize("n_tickers,n_days", [(2, 10), (20, 600), (44, 1500), (150, 1500)])
def test_panel_equals_the_day_loop(n_tickers, n_days, params):
    for seed in (0, 1, 7, 11, 202):
        got = planted_regime_panel(n_tickers, n_days, seed, "2015-01-02", params)
        want = oracles.planted_regime_panel(n_tickers, n_days, seed, "2015-01-02", params)
        assert got[:2] == want[:2]
        assert got[2].dtype == want[2].dtype and got[2].shape == want[2].shape
        assert got[2].tobytes() == want[2].tobytes(), seed


def test_zero_length_cycle_still_raises():
    params = RegimeParams(calm_days=0, spike_days=0, crash_days=0, recovery_days=0)
    with pytest.raises(ZeroDivisionError):
        oracles.planted_regime_panel(2, 10, 7, params=params)
    with pytest.raises(DataError, match="the regime cycle needs at least one day"):
        planted_regime_panel(2, 10, 7, params=params)
    assert planted_regime_panel(2, 10, 7, params=replace(params, crash_days=1))


@pytest.mark.parametrize("start", ["2015-01-02", "2016-02-27", "2016-02-29", "2020-02-29",
                                   "2021-02-28"])
def test_business_days_equal_the_day_loop(start):
    """Friday, Saturday and Sunday starts, and starts on and around leap days."""
    full = oracles.business_days(start, 2000)
    for count in (0, 1, 2, 5, 261, 2000):
        assert oracles.business_days(start, count) == full[:count]
    for count in [*range(21), *range(21, 2001, 7), 2000]:  # every weekday offset mod 5
        got = business_days(start, count)
        assert type(got) is list and got == full[:count], count
    assert all(type(day) is str for day in got)
