"""Price-panel ingestion and log returns.

Input is a long-format CSV with header ``date,ticker,adj_close``. Tickers
are aligned on their common trading dates (inner join); anything off the
shared calendar is dropped and counted in the provenance manifest.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from datetime import date as _date

import numpy as np

from .errors import DataError

__all__ = [
    "PricePanel",
    "ReturnPanel",
    "ingest_csv",
    "is_iso_date",
    "log_returns",
    "write_panel_csv",
    "read_universe_csv",
    "read_macro_csv",
]


@dataclass
class PricePanel:
    """Aligned adjusted closes: prices[i, t] is tickers[i] on dates[t]."""

    tickers: list[str]
    dates: list[str]
    prices: np.ndarray  # N x T float64, strictly positive
    universe_meta: dict[str, str] | None = None  # ticker -> sector label

    def __post_init__(self):
        self.prices = np.asarray(self.prices, dtype=np.float64)
        n, t = self.prices.shape
        if n != len(self.tickers) or t != len(self.dates):
            raise DataError(
                f"panel shape {self.prices.shape} does not match "
                f"{len(self.tickers)} tickers x {len(self.dates)} dates"
            )
        if list(self.dates) != sorted(set(self.dates)):
            raise DataError("panel dates must be strictly increasing and unique")
        if not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0.0):
            raise DataError("panel prices must be finite and positive")


@dataclass
class ReturnPanel:
    """Daily log returns; column t covers the move into dates[t]."""

    tickers: list[str]
    dates: list[str]  # length T-1: the later date of each price pair
    returns: np.ndarray  # N x (T-1) float64


def is_iso_date(value) -> bool:
    """True for a date string in exactly the YYYY-MM-DD form the panel uses."""
    try:
        return _date.fromisoformat(value).isoformat() == value
    except (TypeError, ValueError):
        return False


def _check_plain(what: str, names, path: str) -> None:
    """The pipeline writes tickers and macro names unquoted into its CSV
    artifacts, which the stages read back; refuse a name that cannot round-trip."""
    bad = [n for n in names if any(c in n for c in ',"\r\n')]
    if bad:
        raise DataError(f"{path}: {what} {bad[0]!r} contains a comma, quote or line break")


def _parse_iso(value: str, line_no: int) -> str:
    try:
        return _date.fromisoformat(value).isoformat()
    except ValueError:
        raise DataError(f"line {line_no}: bad date {value!r} (want YYYY-MM-DD)") from None


def ingest_csv(path: str, *, tickers: list[str] | None = None, start: str | None = None,
               end: str | None = None, universe: dict[str, str] | None = None
               ) -> tuple[PricePanel, dict]:
    """Read a long-format price CSV into an aligned panel.

    tickers restricts the panel to that set (default: every ticker in the
    file); start/end are inclusive ISO date bounds applied before alignment;
    universe is a ticker -> sector map attached to the panel for the sector
    layer. Returns (panel, manifest). The manifest records source path, content
    sha256, rows_read, rows_kept, dates_dropped (dates seen for in-scope
    tickers but off the common calendar), and the final ticker list.
    """
    for name, bound in (("start", start), ("end", end)):
        if bound is not None and not is_iso_date(bound):  # rows are kept by string order
            raise DataError(f"ingest_csv: {name} must be a YYYY-MM-DD date, got {bound!r}")
    if start is not None and end is not None and start > end:
        raise DataError(f"ingest_csv: start {start} is after end {end}")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read price file {path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()

    lines = raw.decode("utf-8").splitlines()
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if [h.strip() for h in header] != ["date", "ticker", "adj_close"]:
        raise DataError(f"{path}: expected header date,ticker,adj_close, got {header!r}")

    wanted = set(tickers) if tickers else None
    per_ticker: dict[str, dict[str, float]] = {}
    rows_read = 0
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise DataError(f"line {line_no}: expected 3 fields, got {len(row)}")
        rows_read += 1
        day = _parse_iso(row[0].strip(), line_no)
        ticker = row[1].strip()
        if not ticker:
            raise DataError(f"line {line_no}: empty ticker")
        try:
            price = float(row[2])
        except ValueError:
            raise DataError(f"line {line_no}: bad price {row[2]!r}") from None
        if not np.isfinite(price) or price <= 0.0:
            raise DataError(f"line {line_no}: non-positive price {price!r} for {ticker}")
        if wanted is not None and ticker not in wanted:
            continue
        if start and day < start:
            continue
        if end and day > end:
            continue
        series = per_ticker.setdefault(ticker, {})
        if day in series:
            raise DataError(f"line {line_no}: duplicate observation for ({ticker}, {day})")
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
    manifest = {
        "source": str(path),
        "sha256": digest,
        "rows_read": rows_read,
        "rows_kept": int(prices.size),
        "dates_dropped": len(all_dates) - len(dates),
        "tickers": tickers,
    }
    return panel, manifest


def log_returns(panel: PricePanel) -> ReturnPanel:
    """Daily log returns ln(p[t] / p[t-1]); needs at least two dates."""
    if len(panel.dates) < 2:
        raise DataError(f"need >= 2 dates for returns, panel has {len(panel.dates)}")
    rets = np.log(panel.prices[:, 1:] / panel.prices[:, :-1])
    if not np.all(np.isfinite(rets)):
        raise DataError("non-finite log returns (zero or negative price slipped through)")
    return ReturnPanel(tickers=list(panel.tickers), dates=list(panel.dates[1:]), returns=rets)


def write_panel_csv(panel: PricePanel, path: str) -> None:
    """Serialize a panel back to the long CSV schema, full float precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,ticker,adj_close\n")
        for t, day in enumerate(panel.dates):
            for i, ticker in enumerate(panel.tickers):
                fh.write(f"{day},{ticker},{float(panel.prices[i, t])!r}\n")


def read_universe_csv(path: str) -> dict[str, str]:
    """Read a ``ticker,sector`` CSV into an ordered ticker -> sector map."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["ticker", "sector"]:
                raise DataError(f"{path}: expected header ticker,sector, got {header!r}")
            universe: dict[str, str] = {}
            for line_no, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise DataError(f"line {line_no}: expected 2 fields, got {len(row)}")
                ticker, sector = row[0].strip(), row[1].strip()
                if not ticker or not sector:
                    raise DataError(f"line {line_no}: empty ticker or sector")
                if ticker in universe:
                    raise DataError(f"line {line_no}: duplicate ticker {ticker}")
                universe[ticker] = sector
    except OSError as exc:
        raise DataError(f"cannot read universe file {path}: {exc}") from None
    if not universe:
        raise DataError(f"{path}: no universe rows")
    return universe


def read_macro_csv(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """Read a wide ``date,<name>...`` CSV of day-level context values.

    Returns (dates, column names, T x M float matrix), dates sorted ascending.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[0].strip() != "date" or len(header) < 2:
                raise DataError(f"{path}: expected header date,<name>,... got {header!r}")
            names = [h.strip() for h in header[1:]]
            rows: dict[str, list[float]] = {}
            for line_no, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"line {line_no}: expected {len(header)} fields, got {len(row)}")
                day = _parse_iso(row[0].strip(), line_no)
                if day in rows:
                    raise DataError(f"line {line_no}: duplicate macro date {day}")
                try:
                    values = [float(v) for v in row[1:]]
                except ValueError:
                    raise DataError(f"line {line_no}: bad macro value in {row[1:]!r}") from None
                if not all(np.isfinite(v) for v in values):
                    raise DataError(f"line {line_no}: non-finite macro value")
                rows[day] = values
    except OSError as exc:
        raise DataError(f"cannot read macro file {path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no macro rows")
    _check_plain("macro column", names, path)
    dates = sorted(rows)
    return dates, names, np.array([rows[d] for d in dates], dtype=np.float64)
