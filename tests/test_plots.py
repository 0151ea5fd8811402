"""Chart axes against the two tick loops they replaced (``oracles._axes``)."""

import pytest

import oracles
from srr.plots import _axes


@pytest.mark.parametrize("xlim,ylim,ticks", [
    ((0.0, 1.0), (0.0, 1.05), None),  # numeric ticks, as on the ROC and PR charts
    ((-3.5, 120.0), (-0.5, 3.0), None),
    ((0.0, 249.0), (0.0, 1.0), [(0.0, "2019-03"), (50.0, "2019-05"), (249.0, "2020-01")]),
    ((0.0, 1.0), (0.0, 1.0), [(0.0, "2019-03")]),
    ((0.0, 1.0), (0.0, 1.0), []),  # an empty label list draws no x ticks
], ids=["numeric", "numeric_offset", "labeled", "one_label", "empty"])
def test_axes_equal_the_two_tick_loops(xlim, ylim, ticks):
    got, want = ["<svg>"], ["<svg>"]
    sx, sy = _axes(got, xlim, ylim, ticks)
    want_sx, want_sy = oracles._axes(want, xlim, ylim, ticks)
    assert got == want
    for v in (xlim[0], xlim[1], 0.37):
        assert (sx(v), sy(v)) == (want_sx(v), want_sy(v))
    assert len(got) == 2 + 3 * 6 + 2 * (6 if ticks is None else len(ticks))
