"""Ingestion: alignment semantics, validation errors, manifest fields,
round-trips, the universe / macro readers, and the one CSV reader and writer."""

import hashlib
import itertools
import json
import os
import tempfile
from datetime import date
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from srr import cli, synthetic
from srr.errors import DataError
from srr.features import FeaturePanel, write_features_csv, write_graph_labels_csv
from srr.market_data import (PricePanel, ingest_csv, log_returns, read_csv, read_macro_csv,
                             read_universe_csv, write_macro_csv, write_panel_csv)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


BASE = "date,ticker,adj_close\n"


def long_csv(rows):
    return BASE + "".join(f"{d},{t},{p}\n" for d, t, p in rows)


class TestAlignment:
    def test_inner_join_drops_incomplete_dates(self, tmp_path):
        # 3 tickers x 5 dates, ticker C missing one date -> 4 aligned dates.
        days = [f"2020-01-0{i}" for i in range(1, 6)]
        rows = [(d, t, 100 + i) for i, d in enumerate(days) for t in ("A", "B")]
        rows += [(d, "C", 50) for d in days if d != "2020-01-03"]
        path = write(tmp_path, "p.csv", long_csv(rows))
        panel, provenance = ingest_csv(path)
        assert panel.tickers == ["A", "B", "C"]
        assert len(panel.dates) == 4
        assert "2020-01-03" not in panel.dates
        assert provenance == {"rows_read": 14, "dates_dropped": 1}

    def test_dates_sorted_even_if_file_is_not(self, tmp_path):
        rows = [("2020-01-02", "A", 101), ("2020-01-01", "A", 100),
                ("2020-01-02", "B", 11), ("2020-01-01", "B", 10)]
        panel, _ = ingest_csv(write(tmp_path, "p.csv", long_csv(rows)))
        assert panel.dates == ["2020-01-01", "2020-01-02"]
        assert panel.prices[0, 0] == 100.0 and panel.prices[0, 1] == 101.0

    def test_ticker_filter_and_date_range(self, tmp_path):
        days = [f"2020-01-0{i}" for i in range(1, 6)]
        rows = [(d, t, 100) for d in days for t in ("A", "B", "C")]
        path = write(tmp_path, "p.csv", long_csv(rows))
        panel, _ = ingest_csv(path, tickers=["A", "B"], start="2020-01-02", end="2020-01-04")
        assert panel.tickers == ["A", "B"]
        assert panel.dates == ["2020-01-02", "2020-01-03", "2020-01-04"]

    def test_period_bounds_must_be_iso_and_ordered(self, tmp_path):
        # string order of "2015/06/01" against ISO rows would keep only 2016 dates
        rows = [(f"{y}-{m:02d}-01", "A", 100) for y, m in
                [(2015, m) for m in range(1, 13)] + [(2016, 1), (2016, 2)]]
        path = write(tmp_path, "p.csv", long_csv(rows))
        with pytest.raises(DataError, match="start must be a YYYY-MM-DD date.*2015/06/01"):
            ingest_csv(path, start="2015/06/01")
        with pytest.raises(DataError, match="end must be a YYYY-MM-DD date.*20160101"):
            ingest_csv(path, end="20160101")
        with pytest.raises(DataError, match="start 2016-01-01 is after end 2015-06-01"):
            ingest_csv(path, start="2016-01-01", end="2015-06-01")
        panel, _ = ingest_csv(path, start="2015-06-01")
        assert panel.dates[0] == "2015-06-01" and len(panel.dates) == 9

    def test_manifest_hash_is_content_hash(self, tmp_path):
        """The ingest manifest records each source by the hash of its bytes, not of its path."""
        text = long_csv([("2020-01-01", "A", 1), ("2020-01-02", "A", 2)])
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name in ("a.csv", "b.csv"):
            path, out = write(tmp_path, name, text), tmp_path / f"out_{name}"
            config = write(tmp_path, f"{name}.json", json.dumps({"data": {"prices_csv": path}}))
            assert cli.main(["ingest", "--config", config, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest_ingest.json").read_text(encoding="utf-8"))
            assert manifest["inputs"] == {path: digest}

    def test_universe_map_restricted_to_panel(self, tmp_path):
        rows = [("2020-01-01", "A", 1), ("2020-01-02", "A", 2)]
        path = write(tmp_path, "p.csv", long_csv(rows))
        panel, _ = ingest_csv(path, universe={"A": "Tech", "ZZZ": "Energy"})
        assert panel.universe_meta == {"A": "Tech"}


class TestValidation:
    def test_missing_header(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            ingest_csv(write(tmp_path, "p.csv", "a,b,c\n2020-01-01,A,1\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            ingest_csv(write(tmp_path, "p.csv", ""))

    def test_bad_date_reports_line(self, tmp_path):
        with pytest.raises(DataError, match="line 2"):
            ingest_csv(write(tmp_path, "p.csv", BASE + "01/02/2020,A,1\n"))

    def test_ticker_that_cannot_round_trip(self, tmp_path):
        # written back unquoted into prices.csv, "A,B" would become two fields
        rows = BASE + '2020-01-01,"A,B",1\n2020-01-01,C,2\n'
        with pytest.raises(DataError, match="ticker 'A,B' contains a comma"):
            ingest_csv(write(tmp_path, "p.csv", rows))

    def test_bad_price(self, tmp_path):
        with pytest.raises(DataError, match="price"):
            ingest_csv(write(tmp_path, "p.csv", BASE + "2020-01-01,A,oops\n"))

    def test_nonpositive_price(self, tmp_path):
        with pytest.raises(DataError, match="non-positive"):
            ingest_csv(write(tmp_path, "p.csv", BASE + "2020-01-01,A,-3\n"))

    def test_duplicate_observation(self, tmp_path):
        text = BASE + "2020-01-01,A,1\n2020-01-01,A,2\n"
        with pytest.raises(DataError, match="duplicate"):
            ingest_csv(write(tmp_path, "p.csv", text))

    def test_requested_ticker_absent(self, tmp_path):
        path = write(tmp_path, "p.csv", long_csv([("2020-01-01", "A", 1)]))
        with pytest.raises(DataError, match="absent"):
            ingest_csv(path, tickers=["A", "MISSING"])

    def test_empty_calendar_intersection(self, tmp_path):
        rows = [("2020-01-01", "A", 1), ("2020-01-02", "B", 2)]
        with pytest.raises(DataError, match="common dates"):
            ingest_csv(write(tmp_path, "p.csv", long_csv(rows)))

    def test_missing_file(self):
        with pytest.raises(DataError, match="cannot read"):
            ingest_csv("/nonexistent/prices.csv")


class TestReturnsAndRoundTrip:
    def test_log_return_values(self, tmp_path):
        rows = [("2020-01-01", "A", 100), ("2020-01-02", "A", 110),
                ("2020-01-03", "A", 99)]
        panel, _ = ingest_csv(write(tmp_path, "p.csv", long_csv(rows)))
        rets = log_returns(panel)
        assert rets.dates == ["2020-01-02", "2020-01-03"]
        assert abs(rets.returns[0, 0] - np.log(1.1)) < 1e-15
        assert abs(rets.returns[0, 1] - np.log(0.9)) < 1e-15

    def test_returns_need_two_dates(self, tmp_path):
        panel, _ = ingest_csv(write(tmp_path, "p.csv",
                                    long_csv([("2020-01-01", "A", 1)])))
        with pytest.raises(DataError, match=">= 2 dates"):
            log_returns(panel)

    @settings(max_examples=50)
    @given(tickers=st.lists(st.from_regex(r"[A-Z][A-Z0-9.-]{0,5}", fullmatch=True),
                            min_size=2, max_size=5, unique=True),
           dates=st.lists(st.dates(date(1900, 1, 1), date(2099, 12, 31)).map(str),
                          min_size=1, max_size=6, unique=True),
           data=st.data())
    def test_write_then_ingest_is_bit_exact(self, tickers, dates, data):
        tickers, dates = sorted(tickers), sorted(dates)
        prices = data.draw(st.lists(st.floats(1e-300, 1e300), min_size=len(tickers) * len(dates),
                                    max_size=len(tickers) * len(dates)))
        panel = PricePanel(tickers, dates, np.reshape(prices, (len(tickers), len(dates))))
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "echo.csv")
            write_panel_csv(panel, out)
            back, _ = ingest_csv(out)
        assert back.dates == panel.dates
        assert back.tickers == panel.tickers
        assert back.prices.tobytes() == panel.prices.tobytes()


def ingest_outcome(ingest, path, keywords):
    """What an ingest function makes of a file: its exact DataError text, or the
    panel's tickers, dates, sector map, price bits and layout, and the provenance."""
    try:
        panel, provenance = ingest(path, **keywords)
    except DataError as exc:
        return str(exc)
    return (panel.tickers, panel.dates, panel.universe_meta, panel.prices.tobytes(),
            panel.prices.flags.c_contiguous, provenance)


def replace_row(i, row):
    return lambda header, rows, kw: (header, rows[:i] + [row] + rows[i + 1:], kw)


def add_row(row):
    return lambda header, rows, kw: (header, rows + [row], kw)


def keywords(**more):
    return lambda header, rows, kw: (header, rows, {**kw, **more})


GOOD_ROWS = [f"2020-01-0{d},{t},{10 * d + i}" for d in range(1, 5) for i, t in enumerate("ABC")]
FAULTS = {  # name -> (header, rows, ingest keywords) -> the same, broken one way
    "bad-date": replace_row(0, "2020-13-01,A,10"),
    "bad-price-cell": replace_row(1, "2020-01-01,B,abc"),
    "short-row": replace_row(2, "2020-01-01,C"),
    "empty-ticker": replace_row(3, "2020-01-02, ,20"),
    "non-positive-price": replace_row(4, "2020-01-02,B,0"),
    "non-finite-price": replace_row(5, "2020-01-02,C,inf"),
    "duplicate-row": add_row("2020-01-03,A,99"),
    "missing-file": lambda header, rows, kw: (None, rows, kw),
    "empty-file": lambda header, rows, kw: ("", [], kw),
    "bad-header": lambda header, rows, kw: ("date,symbol,adj_close", rows, kw),
    "absent-ticker": keywords(tickers=["A", "Q"]),
    "no-usable-rows": keywords(start="2030-01-01"),
    "unplain-ticker": add_row('2020-01-01,"X,Y",5'),
    "no-common-date": add_row("2021-06-01,D,5"),
    "bound-not-iso": keywords(end="2020/01/03"),
    "start-after-end": keywords(start="2020-01-04", end="2020-01-01"),
}


class TestGridEqualsTheRowLoop:
    """``ingest_csv`` aligns in one ticker x date grid; ``oracles.ingest_csv`` is
    the per-ticker dicts and set folds it replaced."""

    @settings(max_examples=60)
    @given(data=st.data())
    def test_random_long_files(self, data):
        names = data.draw(st.lists(st.from_regex(r"[A-Z]{1,3}", fullmatch=True),
                                   min_size=2, max_size=6, unique=True))
        pool = data.draw(st.lists(st.dates(date(2019, 12, 28), date(2020, 1, 12)).map(str),
                                  min_size=1, max_size=10, unique=True))
        core = data.draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
        rows = []
        for name in names:  # a ragged calendar: the shared core and dates of its own
            extra = data.draw(st.lists(st.sampled_from(pool), unique=True))
            rows += [f"{day},{name},{data.draw(st.floats(1e-300, 1e300))!r}"
                     for day in sorted({*core, *extra})]
        lines = data.draw(st.permutations(rows))
        for at in data.draw(st.lists(st.integers(0, len(lines)), max_size=3)):
            lines.insert(at, data.draw(st.sampled_from(["", "  "])))
        kw = {}
        if data.draw(st.booleans()):
            kw["tickers"] = data.draw(st.lists(st.sampled_from(names + ["Q9"]), unique=True))
        for bound in ("start", "end"):
            if data.draw(st.booleans()):
                kw[bound] = data.draw(st.sampled_from(pool))
        if data.draw(st.booleans()):
            kw["universe"] = {name: f"S{i % 2}" for i, name in enumerate(
                data.draw(st.lists(st.sampled_from(names + ["Z9"]), unique=True)))}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "prices.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join([BASE.strip(), *lines]) + "\n")
            want = ingest_outcome(oracles.ingest_csv, path, kw)
            got = ingest_outcome(ingest_csv, path, kw)
        assert got == want
        assert isinstance(got, str) or got[4]  # prices in C order

    @pytest.mark.parametrize("faults", [
        pair for r in (1, 2) for pair in itertools.combinations(FAULTS, r)], ids="+".join)
    def test_each_broken_rule_raises_the_row_loops_error(self, tmp_path, faults):
        header, rows, kw = BASE.strip(), GOOD_ROWS, {}
        good = write(tmp_path, "good.csv", "\n".join([header, *rows]) + "\n")
        assert not isinstance(ingest_outcome(ingest_csv, good, kw), str)
        for name in faults:
            header, rows, kw = FAULTS[name](header, rows, kw)
        path = tmp_path / "prices.csv"
        if header is not None:
            path.write_text(header and "\n".join([header, *rows]) + "\n", encoding="utf-8")
        want = ingest_outcome(oracles.ingest_csv, str(path), kw)
        assert isinstance(want, str)
        assert ingest_outcome(ingest_csv, str(path), kw) == want


class TestRowErrorsNameTheirFile:
    @pytest.mark.parametrize("reader,what,text,message", [
        (ingest_csv, "price file", BASE + "2020-01-01,A,1\n2020-01-01, ,2\n",
         "line 3: empty ticker"),
        (ingest_csv, "price file", BASE + "2020-01-01,A,-3\n",
         "line 2: non-positive price -3.0 for A"),
        (ingest_csv, "price file", BASE + "2020-01-01,A,1\n2020-01-01,A,2\n",
         "line 3: duplicate observation for (A, 2020-01-01)"),
        (read_universe_csv, "universe file", "ticker,sector\nA,Tech\n,Energy\n",
         "line 3: empty ticker or sector"),
        (read_universe_csv, "universe file", "ticker,sector\nA,Tech\nA,Energy\n",
         "line 3: duplicate ticker A"),
        (read_macro_csv, "macro file", "date,vix\n2020-01-01,15.5\n2020-01-01,16.0\n",
         "line 3: duplicate macro date 2020-01-01"),
        (read_macro_csv, "macro file", "date,vix\n2020-01-01,nan\n",
         "line 2: non-finite macro value"),
    ] + [(reader, what, f"{head}2020-01-01,{row}\n{day},{row}\n",
          f"line 3: expected a YYYY-MM-DD date, got {day!r}")
         for reader, what, head, row in ((ingest_csv, "price file", BASE, "A,1"),
                                         (read_macro_csv, "macro file", "date,vix\n", "15.5"))
         for day in ("20200102", "2020-W01-4")],
        ids=["empty-ticker", "bad-price", "duplicate-observation", "empty-sector",
             "duplicate-ticker", "duplicate-date", "non-finite-macro", "price-basic-date",
             "price-week-date", "macro-basic-date", "macro-week-date"])
    def test_message_is_what_path_line(self, tmp_path, reader, what, text, message):
        path = write(tmp_path, "t.csv", text)
        with pytest.raises(DataError) as err:
            reader(path)
        assert str(err.value) == f"{what} {path}: {message}"


class TestUniverseAndMacro:
    def test_universe_reader(self, tmp_path):
        path = write(tmp_path, "u.csv", "ticker,sector\nA,Tech\nB,Energy\n")
        assert read_universe_csv(path) == {"A": "Tech", "B": "Energy"}

    def test_universe_duplicate(self, tmp_path):
        path = write(tmp_path, "u.csv", "ticker,sector\nA,Tech\nA,Energy\n")
        with pytest.raises(DataError, match="duplicate"):
            read_universe_csv(path)

    def test_universe_bad_header(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            read_universe_csv(write(tmp_path, "u.csv", "symbol,sector\nA,T\n"))

    def test_macro_reader(self, tmp_path):
        path = write(tmp_path, "m.csv",
                     "date,vix,spread\n2020-01-02,15.5,1.2\n2020-01-01,14.0,1.1\n")
        dates, names, values = read_macro_csv(path)
        assert dates == ["2020-01-01", "2020-01-02"]  # sorted on read
        assert names == ["vix", "spread"]
        assert np.array_equal(values, [[14.0, 1.1], [15.5, 1.2]])

    def test_macro_duplicate_date(self, tmp_path):
        path = write(tmp_path, "m.csv",
                     "date,vix\n2020-01-01,15.5\n2020-01-01,16.0\n")
        with pytest.raises(DataError, match="duplicate"):
            read_macro_csv(path)

    def test_macro_name_that_cannot_round_trip(self, tmp_path):
        path = write(tmp_path, "m.csv", 'date,"vix,close",spread\n2020-01-01,15.5,1.2\n')
        with pytest.raises(DataError, match="macro column 'vix,close' contains a comma"):
            read_macro_csv(path)

    def test_macro_ragged_row(self, tmp_path):
        path = write(tmp_path, "m.csv", "date,vix,spread\n2020-01-01,15.5\n")
        with pytest.raises(DataError, match="fields"):
            read_macro_csv(path)


EDGE = [-0.0, 5e-324, 1e300, 0.1, -2.5, 123456789.125]


def bits(values) -> list[int]:
    """Float bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestCsvWriters:
    """Every table goes through ``write_csv``; each writer must write the bytes
    of the loop it replaced (``tests/oracles.py``)."""

    @pytest.fixture
    def fpanel(self):
        dates = ["2020-01-01", "2020-01-02", "2020-01-03"]
        return FeaturePanel(
            tickers=["A", "B"], dates=dates,
            features=np.array(EDGE * 2).reshape(2, 3, 2), names=["f1", "f2"],
            macro=np.array(EDGE).reshape(3, 2), macro_names=["vix", "rate"],
            graph_labels=np.array([1, 0, 1], dtype=np.int8),
            label_valid=np.array([True, True, False]))  # the last date's labels are blank

    def same_bytes(self, tmp_path, write, oracle):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write(str(got))
        oracle(str(want))
        assert got.read_bytes() == want.read_bytes()
        return got.read_text()

    def test_prices(self, tmp_path):
        prices = np.array([[5e-324, 1e300, 0.1], [2.5, 123456789.125, 1.0]])
        panel = PricePanel(tickers=["A", "B"], dates=["2020-01-01", "2020-01-02", "2020-01-03"],
                           prices=prices)  # prices are positive, so no -0.0 here
        text = self.same_bytes(tmp_path, lambda p: write_panel_csv(panel, p),
                               lambda p: oracles.write_panel_csv(panel, p))
        assert "2020-01-01,A,5e-324\n" in text and ",1e+300\n" in text

    def test_synthetic_goes_through_the_panel_writer(self, tmp_path):
        echoes = []
        self.same_bytes(
            tmp_path,
            lambda p: echoes.append(synthetic.write_synthetic_csv(p, n_tickers=3, n_days=40,
                                                                  seed=5)),
            lambda p: echoes.append(oracles.write_synthetic_csv(p, n_tickers=3, n_days=40,
                                                                seed=5)))
        assert echoes[0] == {**echoes[1], "path": echoes[0]["path"]}

    def test_features(self, tmp_path, fpanel):
        text = self.same_bytes(tmp_path, lambda p: write_features_csv(fpanel, p),
                               lambda p: oracles.write_features_csv(fpanel, p))
        assert "2020-01-01,A,-0.0,5e-324\n" in text and text.endswith(",B,-2.5,123456789.125\n")

    def test_graph_labels(self, tmp_path, fpanel):
        text = self.same_bytes(tmp_path, lambda p: write_graph_labels_csv(fpanel, p),
                               lambda p: oracles.write_graph_labels_csv(fpanel, p))
        assert text.endswith("2020-01-03,\n")

    def test_macro(self, tmp_path, fpanel):
        text = self.same_bytes(
            tmp_path,
            lambda p: write_macro_csv(p, fpanel.dates, fpanel.macro_names, fpanel.macro),
            lambda p: oracles._write_macro_csv(SimpleNamespace(path=lambda _: p), fpanel))
        assert text.startswith("date,vix,rate\n2020-01-01,-0.0,5e-324\n")

    def test_timeline(self, tmp_path):
        dates = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04"]
        scores, labels = np.array(EDGE[:4]), np.array([1, 0, 0, 1], dtype=np.int8)
        self.same_bytes(tmp_path, lambda p: cli._write_timeline(p, dates, scores, labels),
                        lambda p: oracles.write_timeline(p, dates, scores, labels))

    def test_macro_round_trip(self, tmp_path, fpanel):
        path = str(tmp_path / "macro.csv")
        write_macro_csv(path, fpanel.dates, fpanel.macro_names, fpanel.macro)
        dates, names, values = read_macro_csv(path)
        assert (dates, names) == (fpanel.dates, fpanel.macro_names)
        assert bits(values) == bits(fpanel.macro)

    def test_timeline_round_trip(self, tmp_path):
        dates = ["2020-01-01", "2020-01-02", "2020-01-03"]
        scores, labels = np.array([-0.0, 5e-324, 0.7]), np.array([1, 0, 1])
        path = str(tmp_path / "timeline.csv")
        cli._write_timeline(path, dates, scores, labels)
        back = cli._read_timeline(path)
        assert back[0] == dates
        assert bits(back[1]) == bits(scores)
        assert back[2].tolist() == labels.tolist()


class TestCsvReader:
    def test_skips_blank_lines_and_numbers_the_rest(self, tmp_path):
        path = write(tmp_path, "t.csv", "a, b \n1,2\n\n  \n3,4\n")
        header, rows = read_csv(path, "test file", "a,b", list)
        assert header == ["a", "b"]
        assert list(rows) == [(2, ["1", "2"]), (5, ["3", "4"])]

    def test_header_pattern(self, tmp_path):
        path = write(tmp_path, "t.csv", "date,x,y,node_label\n")
        assert read_csv(path, "test file", "date,*,node_label", list)[0] == [
            "date", "x", "y", "node_label"]
        with pytest.raises(DataError, match=r"test file .*t\.csv: expected header date,\*"):
            read_csv(path, "test file", "date,*,label", list)

    @pytest.mark.parametrize("text,message", [
        ("a,b\n1,2\n3\n", r"t\.csv: line 3: expected 2 fields, got 1"),
        ("a,b\n1,2\n3,x\n", r"t\.csv: line 3: could not convert string to float: 'x'"),
        ("", r"t\.csv is empty"),
    ])
    def test_errors_name_the_file_and_line(self, tmp_path, text, message):
        path = write(tmp_path, "t.csv", text)
        with pytest.raises(DataError, match=message):
            list(read_csv(path, "test file", "a,b", lambda r: [float(v) for v in r])[1])

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n\xff\xfe,1\n")
        with pytest.raises(DataError, match="cannot read test file"):
            list(read_csv(str(path), "test file", "a,b", list)[1])
