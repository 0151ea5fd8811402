"""Rank correlation against an independent oracle, exact threshold behavior,
snapshot/sequence construction, and JSONL round-trips."""

import gc
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from srr.errors import DataError, ShapeError
from srr.features import attach_labels, compute_features
from srr.graphs import (EDGE_DTYPE, GRAPH_FORMAT, GraphSnapshot, average_ranks,
                        build_snapshots, rank_correlation_matrix, read_snapshots_jsonl,
                        write_snapshots_jsonl)
from srr.market_data import PricePanel, ReturnPanel, log_returns
from srr.synthetic import business_days, planted_regime_panel


def oracle_spearman(x, y):
    """Independent route: average ranks, then textbook Pearson on the ranks."""
    rx, ry = average_ranks(x), average_ranks(y)
    cx, cy = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt(cx @ cx) * np.sqrt(cy @ cy)  # two square roots on purpose
    return float(cx @ cy) / denom


class TestRanks:
    def test_average_ranks_with_tie(self):
        assert average_ranks([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_all_tied(self):
        assert average_ranks([7.0, 7.0, 7.0]).tolist() == [2.0, 2.0, 2.0]

    def test_reversed_input(self):
        assert average_ranks([3.0, 2.0, 1.0]).tolist() == [3.0, 2.0, 1.0]

    def test_rank_positions_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 5, size=9).astype(float)
            r = average_ranks(x)
            assert r.sum() == 45.0  # 1 + ... + 9 preserved under tie averaging


class TestSpearman:  # the one-pair oracle of rank_correlation_matrix
    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(3, 12))
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
            rho, degenerate = oracles.spearman(x, y)
            if degenerate:
                assert np.all(x == x[0]) or np.all(y == y[0])
                assert rho == 0.0
            else:
                assert abs(rho - oracle_spearman(x, y)) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(size=7)
            y = rng.normal(size=7)
            rho, _ = oracles.spearman(x, y)
            rho_t, _ = oracles.spearman(np.exp(3.0 * x), y ** 3)
            assert abs(rho - rho_t) < 1e-12

    def test_exact_half(self):
        x = np.arange(1.0, 6.0)
        y = np.array([2.0, 4.0, 1.0, 3.0, 5.0])
        rho, degenerate = oracles.spearman(x, y)
        assert rho == 0.5 and not degenerate  # bit-equal, not approximately

    def test_perfect_and_inverse(self):
        x = np.arange(5.0)
        assert oracles.spearman(x, 2 * x + 1)[0] == 1.0
        assert oracles.spearman(x, -x)[0] == -1.0

    def test_constant_is_degenerate(self):
        assert oracles.spearman(np.ones(5), np.arange(5.0)) == (0.0, True)

    def test_shape_guards(self):
        with pytest.raises(ShapeError):
            oracles.spearman(np.arange(4.0), np.arange(5.0))
        with pytest.raises(ShapeError):
            oracles.spearman(np.arange(2.0), np.arange(2.0))

    def test_matrix_matches_pairwise_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            window = rng.integers(0, 5, size=(6, 7)).astype(float)
            window[2] = 1.0  # one constant row
            corr, degenerate = rank_correlation_matrix(window)
            assert degenerate.tolist() == [False, False, True, False, False, False]
            assert np.all(corr[2] == 0.0) and np.all(corr[:, 2] == 0.0)
            for i in range(6):
                for j in range(6):
                    if i == 2 or j == 2:
                        continue
                    rho, _ = oracles.spearman(window[i], window[j])
                    assert abs(corr[i, j] - rho) < 1e-12
        stack = rng.integers(0, 5, size=(5, 6, 7)).astype(float)  # ties in every row
        stack[3, 1] = 2.0  # a constant row in one window
        corr, degenerate = rank_correlation_matrix(stack)
        assert corr.shape == (5, 6, 6) and degenerate.shape == (5, 6)
        assert degenerate[3, 1] and np.all(corr[3, 1] == 0.0)
        for window, c, d in zip(stack, corr, degenerate):  # the stacked call, window by window
            for want_c, want_d in (rank_correlation_matrix(window),
                                   oracles.rank_correlation_matrix(window)):
                assert c.tobytes() == want_c.tobytes() and d.tolist() == want_d.tolist()


def plain(snapshots):
    """Each snapshot as Python values, a layer as its list of (int, int, float)
    edges, whether it is an edge array or already a tuple list."""
    return [(s.date, s.node_ids, s.graph_label,
             {name: edges.tolist() if isinstance(edges, np.ndarray) else edges
              for name, edges in s.layers.items()})
            for s in snapshots]


def hand_panels(return_rows, tickers):
    """ReturnPanel plus its last date, for snapshot tests."""
    returns = np.asarray(return_rows, dtype=np.float64)
    dates = business_days("2021-01-04", returns.shape[1])
    return ReturnPanel(tickers=list(tickers), dates=dates, returns=returns), dates[-1]


class TestSnapshots:
    def test_threshold_is_inclusive_at_exact_half(self):
        rp, date = hand_panels(
            [[1, 2, 3, 4, 5],        # A
             [2, 4, 1, 3, 5],        # B: rho(A, B) = 0.5 exactly
             [5, 4, 3, 2, 1]],       # C: rho(A, C) = -1, rho(B, C) = -0.5
            "ABC")
        snap = build_snapshots(rp, [date], [None], window=5, tau=0.5)[0]
        edges = {(i, j): w for i, j, w in snap.layers["correlation"]}
        assert edges == {(0, 1): 0.5, (0, 2): -1.0, (1, 2): -0.5}
        # nudge tau past 0.5: the boundary edges must disappear
        snap_hi = build_snapshots(rp, [date], [None], window=5, tau=0.5 + 1e-12)[0]
        assert {(i, j) for i, j, _ in snap_hi.layers["correlation"]} == {(0, 2)}

    def test_constant_node_contributes_no_edges(self):
        rp, date = hand_panels(
            [[1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [7, 7, 7, 7, 7]], "ABC")
        snap = build_snapshots(rp, [date], [None], window=5, tau=0.5)[0]
        assert snap.layers["correlation"].tolist() == [(0, 1, 1.0)]

    def test_sector_layer_links_same_sector_pairs(self):
        rp, date = hand_panels(np.eye(4, 5), "ABCD")
        snap = build_snapshots(rp, [date], [None], window=5, tau=0.99,
                               sector_map={"A": "tech", "B": "energy",
                                           "C": "tech", "D": "tech"})[0]
        assert snap.layers["sector"].tolist() == [(0, 2, 1.0), (0, 3, 1.0), (2, 3, 1.0)]

    def test_sector_map_rejects_unknown_ticker(self):
        rp, date = hand_panels(np.eye(3, 5), "ABC")
        with pytest.raises(DataError, match="ZZZ"):
            build_snapshots(rp, [date], [None], window=5, sector_map={"A": "x", "ZZZ": "x"})

    def test_parameter_validation(self):
        rp, date = hand_panels(np.eye(3, 5), "ABC")
        with pytest.raises(DataError):
            build_snapshots(rp, [date], [None], window=5, tau=0.0)
        with pytest.raises(DataError):
            build_snapshots(rp, [date], [None], window=2)
        with pytest.raises(DataError, match="not a return date"):
            build_snapshots(rp, ["1999-01-01"], [None], window=5)
        with pytest.raises(DataError, match="need 9"):
            build_snapshots(rp, [date], [None], window=9)

    def test_each_date_carries_its_own_label(self):
        rp, date = hand_panels(np.eye(3, 6), "ABC")
        snaps = build_snapshots(rp, rp.dates[-2:], [None, 1], window=5)
        assert [(s.date, s.graph_label) for s in snaps] == [(rp.dates[-2], None), (date, 1)]
        with pytest.raises(DataError, match="2 snapshot dates but 1 graph labels"):
            build_snapshots(rp, rp.dates[-2:], [1], window=5)

    @settings(max_examples=50)
    @given(st.data())
    def test_relabeling_tickers_relabels_the_graph(self, data):
        """The panel's rows permuted and its tickers and sector map renamed:
        every correlation and sector edge maps through the permutation, with a
        bit-equal weight. Ranks are halves, so every Gram entry is exact."""
        n, t = data.draw(st.integers(2, 7)), data.draw(st.integers(3, 12))
        window = data.draw(st.integers(3, t))
        tau = data.draw(st.sampled_from([0.2, 0.5, 1.0]))
        value = st.sampled_from([-0.02, -0.01, 0.0, 0.01, 0.03]) | st.floats(-1.0, 1.0)
        returns = np.reshape(data.draw(st.lists(value, min_size=n * t, max_size=n * t)), (n, t))
        perm = np.array(data.draw(st.permutations(range(n))))
        sectors = data.draw(st.lists(st.none() | st.sampled_from("ab"), min_size=n, max_size=n))
        renamed = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n,
                                     unique=True))
        dates = [f"d{k:02d}" for k in range(t)]

        def snapshots(tickers, rows):
            sector_map = {tk: sectors[r] for tk, r in zip(tickers, rows) if sectors[r]}
            return build_snapshots(ReturnPanel(tickers, dates, returns[rows]), dates[window - 1:],
                                   [None] * (t - window + 1), window, tau, sector_map)

        def edges(layer, node):  # (i, j, weight bits) of each edge, node k renumbered node[k]
            i, j = node[layer["i"]], node[layer["j"]]
            w = np.ascontiguousarray(layer["w"]).view(np.int64)
            return sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist(), w.tolist()))

        same, moved = np.arange(n), np.argsort(perm)  # moved[k]: the new index of old node k
        for old, new in zip(snapshots([f"T{k}" for k in range(n)], same),
                            snapshots(renamed, perm)):
            assert new.node_ids == renamed and old.layers.keys() == new.layers.keys()
            for name, layer in old.layers.items():
                assert edges(new.layers[name], same) == edges(layer, moved)


class TestAgainstPerElementLoops:
    """Exact (==) equality with the per-row, per-date and per-pair loops that
    the vectorized graph path replaced (``oracles``)."""

    def test_average_ranks_on_tied_draws_and_stacks(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x = rng.integers(0, 3, size=int(rng.integers(1, 15))).astype(float)
            assert np.array_equal(average_ranks(x), oracles.average_ranks(x))
        stack = np.round(rng.normal(size=(44, 7)), 1)  # rows x W, ties in most rows
        stack[3] = 0.25  # a constant row
        stack[5, :3] = [0.0, -0.0, np.nan]
        assert np.array_equal(average_ranks(stack),
                              np.stack([oracles.average_ranks(row) for row in stack]))
        cube = rng.integers(0, 4, size=(5, 20, 7)).astype(float)
        assert np.array_equal(average_ranks(cube), np.stack(
            [[oracles.average_ranks(row) for row in rows] for rows in cube]))

    @pytest.mark.parametrize("n", [2, 20, 44])
    def test_build_snapshots_equals_one_date_builder(self, n):
        rng = np.random.default_rng(n)
        days = 60
        returns = np.round(rng.normal(scale=0.01, size=(n, days)), 3)  # coarse grid: ties
        returns[0, 20:35] = 0.0  # constant windows
        returns[-1, 40:] = 0.004
        rp = ReturnPanel(tickers=[f"T{i:02d}" for i in range(n)],
                         dates=business_days("2021-01-04", days), returns=returns)
        dates = rp.dates[6:]
        labels = [None if k % 7 == 0 else int(rng.integers(0, 2)) for k in range(len(dates))]
        sectors = {t: "abc"[i % 3] for i, t in enumerate(rp.tickers) if i % 5}  # T00 has none
        for tau, sector_map in ((0.5, None), (0.3, sectors), (1.0, sectors)):
            got = build_snapshots(rp, dates, labels, window=7, tau=tau, sector_map=sector_map)
            want = oracles.build_snapshots(rp, dates, labels, window=7, tau=tau,
                                           sector_map=sector_map)
            assert plain(got) == plain(want)
            assert repr(plain(got)) == repr(plain(want))  # the same int and float values too

    @pytest.mark.parametrize("dates,kw", [
        (["last"], {"tau": 0.0}), (["last"], {"tau": 1.5}), (["last"], {"window": 2}),
        (["1999-01-01"], {}), (["last"], {"window": 9}),
        (["last"], {"sector_map": {"A": "x", "ZZZ": "x"}}),
        (["last", "1999-01-01"], {}),
    ])
    def test_errors_equal_one_date_builder(self, dates, kw):
        rp, date = hand_panels(np.eye(3, 5), "ABC")
        dates = [date if d == "last" else d for d in dates]
        kw = {"window": 5, **kw}
        with pytest.raises(DataError) as got:
            build_snapshots(rp, dates, [None] * len(dates), **kw)
        with pytest.raises(DataError) as want:
            oracles.build_snapshots(rp, dates, [None] * len(dates), **kw)
        assert str(got.value) == str(want.value)


def labeled_snapshots(n_days=120, seed=2):
    dates, tickers, raw = planted_regime_panel(n_tickers=5, n_days=n_days, seed=seed)
    prices = PricePanel(tickers=tickers, dates=dates, prices=raw)
    returns = log_returns(prices)
    panel = attach_labels(compute_features(prices), prices,
                          threshold=0.10, horizon=20)
    labels = [int(y) if v else None for y, v in zip(panel.graph_labels, panel.label_valid)]
    return build_snapshots(returns, panel.dates, labels, window=7, tau=0.5)


class TestSequences:  # the sequence builder that index rows replaced, kept as the reference
    def test_counts_for_strides(self):
        snaps = labeled_snapshots()
        ten = snaps[:10]
        assert len(oracles.build_sequences(ten, k=5, stride=1)) == 6
        seqs = oracles.build_sequences(ten, k=3, stride=2)  # sampled indices 0,2,4,6,8
        assert [s.date for s in seqs] == [ten[i].date for i in (4, 6, 8)]

    def test_label_comes_from_final_snapshot(self):
        snaps = labeled_snapshots()
        for seq in oracles.build_sequences(snaps, k=5, stride=5):
            assert seq.date == seq.snapshots[-1].date
            assert seq.graph_label == seq.snapshots[-1].graph_label

    def test_parameter_validation(self):
        snaps = labeled_snapshots()[:6]
        with pytest.raises(DataError):
            oracles.build_sequences(snaps, k=0)
        with pytest.raises(DataError):
            oracles.build_sequences(snaps, k=3, stride=0)
        assert oracles.build_sequences(snaps[:2], k=5, stride=1) == []


class TestJsonl:
    def test_round_trip_is_bit_exact(self, tmp_path):
        """Also from the same file in the spaced layout (``json.dumps`` with its
        default separators) that the writer made before records were compact."""
        snaps = labeled_snapshots()
        path = tmp_path / "graphs.jsonl"
        write_snapshots_jsonl(snaps, str(path))
        compact = path.read_text(encoding="utf-8").splitlines()
        spaced = "".join(json.dumps(json.loads(line), sort_keys=True) + "\n" for line in compact)
        assert spaced.startswith('{"format": "srr-graph-v2", "snapshots": ')
        for text in (None, spaced):
            if text is not None:
                path.write_text(text, encoding="utf-8")
            back, header = read_snapshots_jsonl(str(path))
            assert header == {"format": GRAPH_FORMAT, "snapshots": len(snaps)}
            assert len(back) == len(snaps)
            for a, b in zip(snaps, back):
                assert a.date == b.date and a.node_ids == b.node_ids
                assert a.layers.keys() == b.layers.keys()
                for name, edges in a.layers.items():
                    assert b.layers[name].dtype == EDGE_DTYPE
                    assert b.layers[name].tobytes() == edges.tobytes()
                assert a.graph_label == b.graph_label

    def test_records_hold_the_graph_only(self, tmp_path):
        snaps = labeled_snapshots()
        path = tmp_path / "graphs.jsonl"
        write_snapshots_jsonl(snaps, str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert all(sorted(r) == ["date", "graph_label", "layers", "nodes"] for r in records)
        assert [r["graph_label"] for r in records] == [s.graph_label for s in snaps]
        assert None in [r["graph_label"] for r in records]

    def test_rewrite_is_byte_identical(self, tmp_path):
        snaps = labeled_snapshots()
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_snapshots_jsonl(snaps, p1)
        back, _ = read_snapshots_jsonl(p1)
        write_snapshots_jsonl(back, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_every_snapshot_shares_one_node_list(self, tmp_path):
        snaps = labeled_snapshots()
        assert all(s.node_ids is snaps[0].node_ids for s in snaps)
        path = str(tmp_path / "graphs.jsonl")
        write_snapshots_jsonl(snaps, path)
        back, _ = read_snapshots_jsonl(path)
        assert back[0].node_ids == snaps[0].node_ids
        assert all(s.node_ids is back[0].node_ids for s in back)

    @pytest.mark.parametrize("edge", [[-1, 1, 0.5], [2, 2, 0.9], [0, 3, 0.5], [1, 0, 0.5],
                                      [0.5, 1, 0.5]])
    def test_reader_refuses_an_edge_off_the_upper_triangle(self, tmp_path, edge):
        path = tmp_path / "graphs.jsonl"
        good = {"date": "2021-01-04", "graph_label": 0, "nodes": ["A", "B", "C"],
                "layers": {"correlation": [[0, 1, 0.5]]}}
        bad = {**good, "date": "2021-01-05", "layers": {"correlation": [[0, 2, 0.5], edge]}}
        path.write_text("".join(json.dumps(r) + "\n" for r in (
            {"format": GRAPH_FORMAT, "snapshots": 2}, good, bad)))
        with pytest.raises(DataError, match=rf"{path}: line 3: layer 'correlation': edge "
                                            rf"\[{re.escape(str(edge)[1:-1])}\] breaks "
                                            r"0 <= i < j < 3"):
            read_snapshots_jsonl(str(path))

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "something-else", "snapshots": 0}) + "\n")
        with pytest.raises(DataError, match="srr-graph-v2"):
            read_snapshots_jsonl(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_snapshots_jsonl(str(path))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_load_leaves_the_collector_as_it_found_it(self, tmp_path, enabled):
        snaps = labeled_snapshots()
        path = tmp_path / "graphs.jsonl"
        write_snapshots_jsonl(snaps, str(path))
        v1 = tmp_path / "v1.jsonl"
        v1.write_text(json.dumps({"format": "srr-graph-v1", "snapshots": 0}) + "\n")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            back, _ = read_snapshots_jsonl(str(path))
            assert gc.isenabled() is enabled
            with pytest.raises(DataError, match="srr-graph-v1"):
                read_snapshots_jsonl(str(v1))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert plain(back) == plain(snaps)


def planted_returns(n, seed, days=40):
    """Returns on a coarse grid (ties) with a constant stretch in row 0 and
    one in every row (empty correlation layers at any tau); the last five days of rows 0-3 rank as 1..5, (2, 4, 1, 3, 5), 5..1 and 1..5
    again, so at window 5 rho is exactly 0.5, -1, 1, -0.5 and -1 among them."""
    rng = np.random.default_rng(seed)
    returns = np.round(rng.normal(scale=0.01, size=(n, days)), 3)
    returns[0, 10:20] = 0.0
    returns[:, 22:28] = 0.0
    planted = np.array([[1, 2, 3, 4, 5], [2, 4, 1, 3, 5], [5, 4, 3, 2, 1], [2, 4, 6, 8, 10]])
    returns[:min(n, 4), -5:] = planted[:n] * 1e-3
    return ReturnPanel(tickers=[f"T{i:02d}" for i in range(n)],
                       dates=business_days("2021-01-04", days), returns=returns)


class TestArraysAgainstTuplePath:
    """Edge arrays and the edge-array writer against the tuple builder and
    the writer of tuple layers they replaced (``oracles``). The repr of a float
    round-trips, so equal reprs mean bit-equal weights."""

    @pytest.mark.parametrize("n,seed", [(2, 1), (5, 2), (23, 3), (44, 4)])
    def test_edges_and_file_bytes_equal_the_tuple_path(self, n, seed, tmp_path):
        rp = planted_returns(n, seed)
        dates = rp.dates[4:]
        rng = np.random.default_rng(seed)
        labels = [None if k % 3 == 0 else int(rng.integers(0, 2)) for k in range(len(dates))]
        sectors = {t: "ab"[i % 2] for i, t in enumerate(rp.tickers) if i % 3}
        got_path, want_path = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
        for tau, sector_map in ((0.5, None), (0.5, sectors), (0.3, sectors), (1.0, None)):
            got = build_snapshots(rp, dates, labels, window=5, tau=tau, sector_map=sector_map)
            want = oracles.build_tuple_snapshots(rp, dates, labels, window=5, tau=tau,
                                                 sector_map=sector_map)
            assert all(e.dtype == EDGE_DTYPE for s in got for e in s.layers.values())
            assert repr(plain(got)) == repr(plain(want))
            write_snapshots_jsonl(got, str(got_path))
            oracles.write_snapshots_jsonl(want, str(want_path))
            assert got_path.read_bytes() == want_path.read_bytes()
            back, _ = read_snapshots_jsonl(str(got_path))
            for a, b in zip(got, back):
                assert a.layers.keys() == b.layers.keys()
                for name, edges in a.layers.items():
                    assert b.layers[name].dtype == EDGE_DTYPE
                    assert b.layers[name].tobytes() == edges.tobytes()
            assert plain(back) == plain(got)
            assert any(len(s.layers["correlation"]) == 0 for s in got)
        last = build_snapshots(rp, dates[-1:], [None], window=5, tau=0.5)[0]
        planted = {(0, 1): 0.5, (0, 2): -1.0, (0, 3): 1.0, (1, 2): -0.5, (2, 3): -1.0}
        edges = {(i, j): w for i, j, w in last.layers["correlation"].tolist()}
        assert all(edges[p] == w for p, w in planted.items() if max(p) < n)

    def test_writer_bytes_on_hand_made_layers(self, tmp_path):
        edges = [(0, 1, -0.0), (0, 1, 0.0), (0, 2, 5e-324), (0, 2, 1e300), (0, 1, 0.1),
                 (0, 1, 0.1), (1, 2, -1.0), (1, 2, 1 / 3)]
        def hand_made(edges):
            return [GraphSnapshot(date="2021-01-04", node_ids=["Ä", "B\u2028", 'C"\\'],
                                  layers={"zeta": np.array(edges, EDGE_DTYPE),
                                          "correlation": np.array([], EDGE_DTYPE),
                                          "alpha": np.array(edges[::-1], EDGE_DTYPE)},
                                  graph_label=label)
                    for label in (None, 0, 1)]

        snaps = hand_made(edges)
        tuples = [GraphSnapshot(s.date, s.node_ids, {k: v.tolist() for k, v in s.layers.items()},
                                s.graph_label) for s in snaps]
        got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
        write_snapshots_jsonl(snaps, str(got))
        oracles.write_snapshots_jsonl(tuples, str(want))
        assert got.read_bytes() == want.read_bytes()
        back, _ = read_snapshots_jsonl(str(got))  # the same weights, bit for bit
        assert all(b.layers[k].tobytes() == a.layers[k].tobytes()
                   for a, b in zip(snaps, back) for k in a.layers)
        assert plain(back) == plain(snaps)

    @settings(max_examples=50)
    @given(st.data())
    def test_writer_and_reader_agree_on_every_accepted_edge_set(self, data):
        """Any snapshots whose edges ``check_edges`` accepts: the writer gives the
        compact ``json.dumps`` writer's bytes and the reader the same edges, bit
        for bit. The weights come from a small pool, so they repeat within and
        across snapshots."""
        nodes = data.draw(st.lists(st.text(max_size=3), min_size=2, max_size=6, unique=True))
        n = len(nodes)
        pool = [-0.0, 0.0, 5e-324, 1e300] + data.draw(st.lists(st.floats(allow_nan=False),
                                                               max_size=3))
        edge = st.tuples(st.integers(0, n - 2).flatmap(lambda i: st.tuples(
            st.just(i), st.integers(i + 1, n - 1))), st.sampled_from(pool))
        layer = st.lists(edge, max_size=8).map(
            lambda edges: np.array([(i, j, w) for (i, j), w in edges], EDGE_DTYPE))
        snaps = data.draw(st.lists(st.builds(
            GraphSnapshot, date=st.dates().map(str), node_ids=st.just(nodes),
            layers=st.dictionaries(st.text(max_size=3), layer, max_size=3),
            graph_label=st.none() | st.integers(0, 1)), max_size=4))
        tuples = [GraphSnapshot(s.date, s.node_ids, {k: v.tolist() for k, v in s.layers.items()},
                                s.graph_label) for s in snaps]
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got.jsonl"), Path(tmp, "want.jsonl")
            write_snapshots_jsonl(snaps, str(got))
            oracles.write_snapshots_jsonl(tuples, str(want))
            assert got.read_bytes() == want.read_bytes()
            back, _ = read_snapshots_jsonl(str(got))
        assert [(b.date, b.node_ids, b.graph_label) for b in back] == [
            (a.date, a.node_ids, a.graph_label) for a in snaps]
        assert all(a.layers.keys() == b.layers.keys()
                   and all(b.layers[k].tobytes() == v.tobytes() for k, v in a.layers.items())
                   for a, b in zip(snaps, back))

    @pytest.mark.parametrize("edge", [(-1, 1, 0.5), (0, 3, 0.5), (2, 2, 0.5), (1, 0, 0.5)])
    def test_writer_refuses_a_node_index_out_of_range(self, tmp_path, edge):
        """The writer refuses every edge the reader refuses (``check_edges``)."""
        snap = GraphSnapshot("2021-01-04", ["A", "B", "C"],
                             {"correlation": np.array([(0, 1, 0.3), edge], EDGE_DTYPE)})
        with pytest.raises(DataError, match=r"snapshot 2021-01-04: layer 'correlation': edge "
                                            rf"\[{edge[0]}, {edge[1]}, 0\.5\] breaks 0 <= i < j < 3"):
            write_snapshots_jsonl([snap], str(tmp_path / "g.jsonl"))


class TestMemory:
    BOUND = 48  # bytes per edge; an (int, int, float) tuple in a list takes about 100

    @staticmethod
    def peak_bytes(fn):
        """Peak traced allocation while ``fn`` runs, above what was live before it."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_build_and_load_stay_under_the_per_edge_bound(self, tmp_path):
        dates, tickers, raw = planted_regime_panel(n_tickers=30, n_days=400, seed=5)
        returns = log_returns(PricePanel(tickers=tickers, dates=dates, prices=raw))
        days = returns.dates[6:]
        kw = dict(window=7, tau=0.5)  # correlation edges only: each its own tuple in the old path
        path = str(tmp_path / "graphs.jsonl")

        snaps, built = self.peak_bytes(lambda: build_snapshots(returns, days, [None] * len(days),
                                                               **kw))
        n_edges = sum(len(e) for s in snaps for e in s.layers.values())
        assert n_edges > 50_000
        assert built <= self.BOUND * n_edges, built / n_edges
        _, written = self.peak_bytes(lambda: write_snapshots_jsonl(snaps, path))
        assert written <= self.BOUND * n_edges, written / n_edges
        del snaps
        (back, _), loaded = self.peak_bytes(lambda: read_snapshots_jsonl(path))
        assert sum(len(e) for s in back for e in s.layers.values()) == n_edges
        assert loaded <= self.BOUND * n_edges, loaded / n_edges
        # the same measure catches tuples coming back
        _, tuples = self.peak_bytes(lambda: oracles.build_tuple_snapshots(
            returns, days, [None] * len(days), **kw))
        assert tuples > 1.5 * self.BOUND * n_edges, tuples / n_edges

    def test_kept_edges_count_toward_physical_memory(self, monkeypatch):
        """The build's fixed estimate (the pair table and a block's correlations)
        grows by 16 bytes per kept edge and stops at physical memory."""
        rp = planted_returns(6, 0)
        days = rp.dates[4:]  # one correlation block at N = 6

        def build():
            return build_snapshots(rp, days, [None] * len(days), window=5)
        n_edges = sum(len(s.layers["correlation"]) for s in build())
        need = 16 * 6 * 5 + 32 * len(days) * 6 * 6 + 16 * n_edges
        assert n_edges > 0
        monkeypatch.setattr("srr.graphs._physical_memory", lambda: need)
        assert len(build()) == len(days)
        monkeypatch.setattr("srr.graphs._physical_memory", lambda: need - 1)
        with pytest.raises(DataError, match=rf"^{len(days)} graphs of 6 nodes need about "
                                            rf"{need:,} bytes of correlations and edges, "
                                            "beyond physical memory$"):
            build()

    def test_sector_layer_is_one_read_only_array(self):
        rp = planted_returns(6, 0)
        snaps = build_snapshots(rp, rp.dates[4:], [None] * (len(rp.dates) - 4), window=5,
                                sector_map={t: "x" for t in rp.tickers})
        sector = snaps[0].layers["sector"]
        assert len(sector) == 15 and all(s.layers["sector"] is sector for s in snaps)
        with pytest.raises(ValueError, match="read-only"):
            sector["w"][0] = 2.0
        assert sector["w"].tolist() == [1.0] * 15
