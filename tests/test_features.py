"""Feature values against hand arithmetic, forward-drawdown label semantics,
train-range standardization, truncation invariance, and CSV round-trips."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

import oracles
from srr import cli
from srr.errors import DataError
from srr.features import (FeaturePanel, Standardization, _rolling_std, apply_standardization,
                          attach_labels, compute_features, compute_labels,
                          feature_names, read_features_csv, standardize,
                          write_features_csv, write_graph_labels_csv)
from srr.graphs import build_snapshots
from srr.market_data import PricePanel, log_returns
from srr.synthetic import business_days, planted_regime_panel


def panel_from(prices, start="2020-01-01"):
    arr = np.asarray(prices, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    tickers = [f"T{i}" for i in range(arr.shape[0])]
    return PricePanel(tickers=tickers, dates=business_days(start, arr.shape[1]),
                      prices=arr)


SMALL = dict(vol_windows=(2,), dd_windows=(2,), mom_windows=(1,))


def planted_returns(n_tickers, n_days, seed=5):
    dates, tickers, raw = planted_regime_panel(n_tickers=n_tickers, n_days=n_days, seed=seed)
    return log_returns(PricePanel(tickers=tickers, dates=dates, prices=raw)).returns


class TestFeatureValues:
    def test_names_default_order(self):
        assert feature_names() == ["ret_1d", "vol_20", "vol_60", "dd_20",
                                   "dd_60", "mom_10", "mom_30"]

    def test_hand_computed_small_panel(self):
        prices = panel_from([100.0, 110.0, 99.0, 104.5])
        fp = compute_features(prices, **SMALL)
        assert fp.names == ["ret_1d", "vol_2", "dd_2", "mom_1"]
        assert fp.dates == prices.dates[2:]
        r1, r2, r3 = np.log(1.1), np.log(0.9), np.log(104.5 / 99.0)
        # price index 2 (p=99)
        assert abs(fp.features[0, 0, 0] - r2) < 1e-15
        assert abs(fp.features[0, 0, 1] - abs(r1 - r2) / np.sqrt(2)) < 1e-15
        assert abs(fp.features[0, 0, 2] - (99.0 / 110.0 - 1.0)) < 1e-15
        assert abs(fp.features[0, 0, 3] - (99.0 / 110.0 - 1.0)) < 1e-15
        # price index 3 (p=104.5)
        assert abs(fp.features[0, 1, 0] - r3) < 1e-15
        assert abs(fp.features[0, 1, 1] - abs(r2 - r3) / np.sqrt(2)) < 1e-15
        assert fp.features[0, 1, 2] == 0.0  # at the 2-day rolling max
        assert abs(fp.features[0, 1, 3] - (104.5 / 99.0 - 1.0)) < 1e-15

    def test_increasing_prices_zero_drawdown(self):
        prices = panel_from(np.linspace(100, 200, 80))
        fp = compute_features(prices)
        dd_cols = [fp.names.index("dd_20"), fp.names.index("dd_60")]
        assert np.all(fp.features[:, :, dd_cols] == 0.0)

    def test_constant_prices_zero_vol_and_momentum(self):
        prices = panel_from(np.full(80, 42.0))
        fp = compute_features(prices)
        for name in ("ret_1d", "vol_20", "vol_60", "mom_10", "mom_30"):
            assert np.all(fp.features[:, :, fp.names.index(name)] == 0.0)

    @pytest.mark.parametrize("windows", [
        {},  # the defaults
        SMALL,
        dict(vol_windows=(5, 12, 3), dd_windows=(2, 30), mom_windows=(1, 4)),  # dd sets warm-up
        dict(vol_windows=(7,), dd_windows=(1, 3), mom_windows=(9, 2)),  # mom sets warm-up
    ], ids=["default", "small", "dd_warmup", "mom_warmup"])
    def test_stacked_columns_equal_the_column_loop(self, windows):
        for seed in (1, 7):
            dates, tickers, raw = planted_regime_panel(n_tickers=6, n_days=300, seed=seed)
            prices = PricePanel(tickers=tickers, dates=dates, prices=raw)
            got = compute_features(prices, **windows)
            want = oracles.compute_features(log_returns(prices), prices, **windows)
            assert (got.tickers, got.dates, got.names) == (want.tickers, want.dates, want.names)
            assert got.features.dtype == want.features.dtype == np.float64
            assert got.features.shape == want.features.shape
            assert got.features.flags.c_contiguous
            assert got.features.tobytes() == want.features.tobytes()

    @pytest.mark.parametrize("tickers_per_block", [1, 3, 16, 37])
    def test_blocked_rolling_std_equals_the_unblocked_expression(self, tickers_per_block):
        """Tickers in blocks, the last one short, give the bits of one ``.std``
        over every window at once."""
        returns = planted_returns(37, 342)
        per_ticker = 8 * (returns.shape[1] - 59) * 60
        want = sliding_window_view(returns, 60, axis=1).std(axis=2, ddof=1)
        got = _rolling_std(returns, 60, per_ticker * tickers_per_block)
        assert got.tobytes() == want.tobytes()

    def test_rolling_std_holds_one_block_of_windows(self):
        """The peak is one block's centred windows, not the whole panel's."""
        returns = planted_returns(37, 342)
        budget = 4 * 8 * (returns.shape[1] - 59) * 60
        peak = {}
        for name, block_bytes in (("blocked", budget), ("whole", 64 << 20)):
            tracemalloc.start()
            try:
                out = _rolling_std(returns, 60, block_bytes)
                peak[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak["blocked"] <= budget + 3 * out.nbytes < 37 / 4 * budget <= peak["whole"]

    def test_insufficient_history(self):
        prices = panel_from(np.linspace(100, 110, 60))  # needs > 60 dates
        with pytest.raises(DataError, match="need more than 60"):
            compute_features(prices)

    @settings(max_examples=25)
    @given(cut=st.integers(min_value=62, max_value=150))
    def test_truncation_invariance(self, cut):
        """No look-ahead: a panel cut after ``cut`` days gives bit-equal features
        and graph edges on every date it keeps, and bit-equal labels and
        validity on every date that still has ``horizon`` days after it."""
        horizon = 20
        dates, tickers, prices = planted_regime_panel(n_tickers=4, n_days=150, seed=3)

        def features_and_graphs(n_days):
            panel = PricePanel(tickers=tickers, dates=dates[:n_days], prices=prices[:, :n_days])
            returns = log_returns(panel)
            fp = attach_labels(compute_features(panel), panel,
                               threshold=0.10, horizon=horizon)
            return fp, build_snapshots(returns, fp.dates, [None] * len(fp.dates))
        f_full, s_full = features_and_graphs(len(dates))
        f_cut, s_cut = features_and_graphs(cut)
        n = len(f_cut.dates)
        assert f_full.dates[:n] == f_cut.dates
        assert np.array_equal(f_full.features[:, :n, :], f_cut.features)
        assert [s.date for s in s_full[:n]] == [s.date for s in s_cut]
        assert sum(len(s.layers["correlation"]) for s in s_cut) > 0
        for a, b in zip(s_full, s_cut):
            assert a.layers["correlation"].tobytes() == b.layers["correlation"].tobytes()
        m = max(n - horizon, 0)  # the cut panel's labeled dates
        assert f_cut.label_valid[:m].all() and not f_cut.label_valid[m:].any()
        assert np.array_equal(f_full.label_valid[:m], f_cut.label_valid[:m])
        assert np.array_equal(f_full.graph_labels[:m], f_cut.graph_labels[:m])

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_memory_order_of_the_prices_changes_nothing(self, layout):
        """Features and graph edges depend on the price values only, not on how
        the caller's array is laid out in memory."""
        dates, tickers, raw = planted_regime_panel(n_tickers=20, n_days=600, seed=7)
        spaced = np.zeros((20, 1200))
        spaced[:, ::2] = raw
        other = np.asfortranarray(raw) if layout == "fortran" else spaced[:, ::2]

        def features_and_edges(prices):
            panel = PricePanel(tickers=tickers, dates=dates, prices=prices)
            assert panel.prices.flags.c_contiguous
            returns = log_returns(panel)
            fp = compute_features(panel)
            snaps = build_snapshots(returns, fp.dates, [None] * len(fp.dates))
            return fp.features.tobytes(), [s.layers["correlation"].tobytes() for s in snaps]
        assert features_and_edges(other) == features_and_edges(raw)


class TestLabels:
    def test_boundary_is_inclusive(self):
        # 75/100 and 0.25 are exact binary fractions, so the forward return
        # lands exactly on -threshold and the <= rule must fire.
        prices = panel_from([100.0, 100.0, 100.0, 75.0, 95.0, 100.0])
        graph, valid = compute_labels(prices, threshold=0.25, horizon=2)
        assert graph.tolist() == [0, 1, 1, 0, 0, 0]
        assert valid.tolist() == [True, True, True, True, False, False]

    def test_just_above_boundary_is_negative(self):
        prices = panel_from([100.0, 90.001, 100.0])
        graph, _ = compute_labels(prices, threshold=0.10, horizon=1)
        assert graph[0] == 0  # single ticker: the portfolio is the ticker

    def test_portfolio_label_catches_joint_drawdown(self):
        # Neither ticker admits a -10% alone... except A; the equal-weight
        # portfolio still crosses because both fall together.
        prices = PricePanel(tickers=["A", "B"], dates=business_days("2020-01-01", 3),
                            prices=np.array([[100.0, 85.0, 100.0],
                                             [100.0, 94.0, 100.0]]))
        graph, valid = compute_labels(prices, threshold=0.10, horizon=2)
        assert valid.tolist() == [True, False, False]
        assert graph[0] == 1  # portfolio (0.85 + 0.94) / 2 = 0.895 -> -10.5%

    def test_portfolio_label_ignores_hedged_crash(self):
        prices = PricePanel(tickers=["A", "B"], dates=business_days("2020-01-01", 3),
                            prices=np.array([[100.0, 80.0, 100.0],
                                             [100.0, 105.0, 100.0]]))
        graph, _ = compute_labels(prices, threshold=0.10, horizon=2)
        assert graph[0] == 0  # portfolio worst point is -7.5%

    def test_renormalizes_at_every_entry_date(self):
        # A long slide: each date loses 4%. From any entry, two days forward
        # is ~ -7.8% (no label at horizon 2), yet from the first date the
        # cumulative fall is far past 10%: entry-relative, not path-relative.
        series = 100.0 * (0.96 ** np.arange(8))
        prices = panel_from(series)
        graph, valid = compute_labels(prices, threshold=0.10, horizon=2)
        assert np.all(graph[valid] == 0)

    def test_attach_aligns_on_feature_dates(self):
        dates, tickers, raw = planted_regime_panel(n_tickers=3, n_days=120, seed=1)
        prices = PricePanel(tickers=tickers, dates=dates, prices=raw)
        fp = compute_features(prices)
        attach_labels(fp, prices, threshold=0.10, horizon=20)
        graph, valid = compute_labels(prices, threshold=0.10, horizon=20)
        offset = len(dates) - len(fp.dates)
        for k in (5, 17, 40):
            assert fp.graph_labels[k] == graph[offset + k]
            assert fp.label_valid[k] == valid[offset + k]

    def test_label_param_validation(self):
        prices = panel_from([100.0, 90.0, 80.0])
        with pytest.raises(DataError):
            compute_labels(prices, threshold=0.0)
        with pytest.raises(DataError):
            compute_labels(prices, horizon=0)


def tiny_panel(values, names=("f0",)):
    """FeaturePanel over one ticker with explicit per-date feature values."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    t, f = values.shape
    return FeaturePanel(tickers=["A"], dates=business_days("2020-01-01", t),
                        features=values[None, :, :], names=list(names))


class TestStandardization:
    def test_two_point_train_maps_to_unit_scores(self):
        panel = tiny_panel([0.0, 2.0, 5.0])
        out = standardize(panel, (panel.dates[0], panel.dates[1]))
        # ddof=0 on train cells {0, 2}: mean 1, std 1
        assert np.allclose(out.features[0, :, 0], [-1.0, 1.0, 4.0], atol=1e-15)
        stats = out.standardization
        assert stats.mean[0] == 1.0 and stats.std[0] == 1.0

    def test_train_cells_have_exact_zero_mean_unit_std(self):
        rng = np.random.default_rng(2)
        panel = tiny_panel(rng.uniform(-3, 3, size=(10, 3)), names=["a", "b", "c"])
        out = standardize(panel, (panel.dates[0], panel.dates[6]))
        cells = out.features[:, :7, :]
        assert np.allclose(cells.mean(axis=(0, 1)), 0.0, atol=1e-12)
        assert np.allclose(cells.std(axis=(0, 1)), 1.0, atol=1e-12)

    def test_zero_variance_feature_warns_and_uses_unit_std(self):
        panel = tiny_panel(np.column_stack([np.ones(4), np.arange(4.0)]),
                           names=["flat", "live"])
        with pytest.warns(UserWarning, match="flat"):
            out = standardize(panel, (panel.dates[0], panel.dates[3]))
        assert out.standardization.degenerate == ["flat"]
        assert out.standardization.std[0] == 1.0
        assert np.all(out.features[0, :, 0] == 0.0)  # (1 - 1) / 1

    def test_apply_matches_fit(self):
        rng = np.random.default_rng(4)
        panel = tiny_panel(rng.uniform(size=(6, 2)), names=["a", "b"])
        fitted = standardize(panel, (panel.dates[0], panel.dates[3]))
        applied = apply_standardization(panel, fitted.standardization)
        assert np.array_equal(fitted.features, applied.features)

    def test_statistics_round_trip(self, tmp_path):
        """The statistics that ``srr features`` writes to standardization.json read back."""
        stats = Standardization(mean=np.array([1.5]), std=np.array([0.25]), degenerate=["x"])
        cli._write_json(str(tmp_path / "s.json"), asdict(stats))
        back = Standardization(**json.loads((tmp_path / "s.json").read_text()))
        assert back.mean.dtype == back.std.dtype == np.float64
        assert np.array_equal(back.mean, stats.mean)
        assert np.array_equal(back.std, stats.std)
        assert back.degenerate == ["x"]

    def test_empty_train_range_errors(self):
        panel = tiny_panel([1.0, 2.0])
        with pytest.raises(DataError, match="no panel dates"):
            standardize(panel, ("1999-01-01", "1999-01-02"))


class TestCsvRoundTrips:
    def _labeled_panel(self):
        dates, tickers, raw = planted_regime_panel(n_tickers=3, n_days=120, seed=9)
        prices = PricePanel(tickers=tickers, dates=dates, prices=raw)
        fp = compute_features(prices)
        return attach_labels(fp, prices, threshold=0.10, horizon=20)

    def test_features_csv_bit_exact(self, tmp_path):
        fp = self._labeled_panel()
        path = str(tmp_path / "features.csv")
        write_features_csv(fp, path)
        back = read_features_csv(path)
        assert back.dates == fp.dates
        assert back.tickers == fp.tickers
        assert back.names == fp.names
        assert np.array_equal(back.features, fp.features)

    def test_features_csv_bytes_equal_the_cell_by_cell_writer(self, tmp_path):
        fp = self._labeled_panel()
        fp.features[:, :3, :] = np.nan  # warm-up rows
        fp.features[1, 5, :2] = -0.0
        fp.features[2, 6, 0] = 1e-320  # subnormal
        fp.features[0, 7, 1] = 123456789.125
        assert not fp.label_valid.all()  # blank labels at the tail
        for panel in (fp, FeaturePanel(tickers=fp.tickers, dates=fp.dates,
                                       features=fp.features, names=fp.names)):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_features_csv(panel, str(got))
            oracles.write_features_csv(panel, str(want))
            assert got.read_bytes() == want.read_bytes()
        assert b",nan," in got.read_bytes() and b",-0.0," in got.read_bytes()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "second_row"])
    def test_features_csv_with_a_non_finite_cell_is_refused(self, tmp_path, value):
        """So is a second row for a (date, ticker) pair, by its line number."""
        fp = self._labeled_panel()
        path = tmp_path / "features.csv"
        write_features_csv(fp, str(path))
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        if value == "second_row":
            lines.append(",".join(cells[:2] + ["1.0"] + cells[3:]))
            refusal = rf"line {len(lines)}: a second row for \({cells[0]}, {cells[1]}\)"
        else:
            lines[2] = ",".join(cells[:2] + [value] + cells[3:])
            refusal = "features.csv: missing .* or non-finite values"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=refusal):
            read_features_csv(str(path))

    def test_graph_labels_csv_round_trip(self, tmp_path):
        fp = self._labeled_panel()
        path = str(tmp_path / "labels.csv")
        write_graph_labels_csv(fp, path)
        dates, labels, valid = oracles.read_graph_labels_csv(path)
        assert dates == fp.dates
        assert np.array_equal(valid, fp.label_valid)
        assert np.array_equal(labels[valid], fp.graph_labels[fp.label_valid])
