"""Price-panel ingestion, log returns, and the CSV reader and writer of every table.

Input is a long-format CSV with header ``date,ticker,adj_close``. Tickers
are aligned on their common trading dates (inner join); anything off the
shared calendar is dropped and counted in the provenance record.
``read_csv`` and ``write_csv`` are the one path by which every stage reads
and writes its CSV tables.
"""

from __future__ import annotations

import csv
import hashlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from datetime import date as _date
from fnmatch import fnmatchcase

import numpy as np

from .errors import DataError

__all__ = [
    "PricePanel",
    "ReturnPanel",
    "ingest_csv",
    "is_iso_date",
    "sha256_file",
    "log_returns",
    "write_panel_csv",
    "read_universe_csv",
    "read_macro_csv",
    "write_macro_csv",
    "read_csv",
    "write_csv",
]


@dataclass
class PricePanel:
    """Aligned adjusted closes: prices[i, t] is tickers[i] on dates[t]."""

    tickers: list[str]
    dates: list[str]
    prices: np.ndarray  # N x T float64, strictly positive
    universe_meta: dict[str, str] | None = None  # ticker -> sector label

    def __post_init__(self):
        self.prices = np.ascontiguousarray(self.prices, dtype=np.float64)
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


def _row_date(cell: str) -> str:
    """A row's date, which must read back unchanged as YYYY-MM-DD; the other
    forms that some Python versions parse are refused."""
    day = cell.strip()
    if _date.fromisoformat(day).isoformat() != day:
        raise ValueError(f"expected a YYYY-MM-DD date, got {day!r}")
    return day


def sha256_file(path: str) -> str:
    """Hex SHA-256 of a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_plain(what: str, names, path: str) -> None:
    """The pipeline writes tickers and macro names unquoted into its CSV
    artifacts, which the stages read back; refuse a name that cannot round-trip."""
    bad = [n for n in names if any(c in n for c in ',"\r\n')]
    if bad:
        raise DataError(f"{path}: {what} {bad[0]!r} contains a comma, quote or line break")


def read_csv(path: str, what: str, expect: str, parse: Callable[[list[str]], object]
             ) -> tuple[list[str], Iterator[tuple[int, object]]]:
    """Open the CSV table ``what`` at ``path``; returns (header, rows).

    The header, stripped and comma-joined, must match the ``expect`` pattern,
    where ``*`` stands for any names. ``rows`` yields each non-blank line as
    (line_no, parse(fields)). Every failure, a short row or a ValueError from
    ``parse`` included, is a DataError naming the file.
    """
    def lines():
        try:
            with open(path, "r", encoding="utf-8-sig", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None:
                    raise DataError(f"{what} {path} is empty")
                header = [h.strip() for h in header]
                if not fnmatchcase(",".join(header), expect):
                    raise DataError(f"{what} {path}: expected header {expect}, got {header!r}")
                yield header
                for line_no, row in enumerate(reader, start=2):
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    if len(row) != len(header):
                        raise DataError(f"{what} {path}: line {line_no}: expected "
                                        f"{len(header)} fields, got {len(row)}")
                    try:
                        cells = parse(row)
                    except ValueError as exc:
                        raise DataError(f"{what} {path}: line {line_no}: {exc}") from None
                    yield line_no, cells
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"cannot read {what} {path}: {exc}") from None

    rows = lines()
    return next(rows), rows


def write_csv(path: str, header: list[str], rows) -> None:
    """Write a header and rows of str, int and Python float cells; ``str`` of a
    float is its shortest round-trip form, so floats read back bit for bit."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def ingest_csv(path: str, *, tickers: list[str] | None = None, start: str | None = None,
               end: str | None = None, universe: dict[str, str] | None = None
               ) -> tuple[PricePanel, dict]:
    """Read a long-format price CSV into an aligned panel.

    tickers restricts the panel to that set (default: every ticker in the
    file); start/end are inclusive ISO date bounds applied before alignment;
    universe is a ticker -> sector map attached to the panel for the sector
    layer. Returns (panel, provenance): ``rows_read`` and ``dates_dropped``
    (dates seen for in-scope tickers but off the common calendar).
    """
    for name, bound in (("start", start), ("end", end)):
        if bound is not None and not is_iso_date(bound):  # rows are kept by string order
            raise DataError(f"ingest_csv: {name} must be a YYYY-MM-DD date, got {bound!r}")
    if start is not None and end is not None and start > end:
        raise DataError(f"ingest_csv: start {start} is after end {end}")
    _, rows = read_csv(path, "price file", "date,ticker,adj_close", lambda r: (
        _row_date(r[0]), r[1].strip(), float(r[2])))
    wanted = set(tickers) if tickers else None
    cells: dict[tuple[str, str], float] = {}  # (ticker, date) -> price, the rows in scope
    for rows_read, (line_no, (day, ticker, price)) in enumerate(rows, start=1):
        if not ticker:
            raise DataError(f"price file {path}: line {line_no}: empty ticker")
        if not np.isfinite(price) or price <= 0.0:
            raise DataError(f"price file {path}: line {line_no}: non-positive price {price!r} "
                            f"for {ticker}")
        if not (wanted is None or ticker in wanted) or not (start or day) <= day <= (end or day):
            continue
        if (ticker, day) in cells:
            raise DataError(f"price file {path}: line {line_no}: duplicate observation for "
                            f"({ticker}, {day})")
        cells[ticker, day] = price

    tickers = sorted({ticker for ticker, _ in cells})
    missing = sorted(wanted.difference(tickers)) if wanted is not None else []
    if missing:
        raise DataError(f"requested tickers absent from {path}: {', '.join(missing)}")
    if not cells:
        raise DataError(f"{path}: no usable rows")
    _check_plain("ticker", tickers, path)
    row = {ticker: i for i, ticker in enumerate(tickers)}
    all_dates = sorted({day for _, day in cells})
    col = {day: t for t, day in enumerate(all_dates)}
    grid = np.full((len(tickers), len(all_dates)), np.nan)  # no accepted price is NaN
    grid[[row[k] for k, _ in cells], [col[d] for _, d in cells]] = list(cells.values())
    common = ~np.isnan(grid).any(axis=0)
    if not common.any():
        raise DataError("tickers share no common dates; calendar intersection is empty")
    dates = [day for day, kept in zip(all_dates, common) if kept]

    # Only the panel's tickers keep their sector; the sector layer checks the rest.
    meta = None if universe is None else {t: s for t, s in universe.items() if t in row}
    panel = PricePanel(tickers=tickers, dates=dates, prices=grid[:, common], universe_meta=meta)
    return panel, {"rows_read": rows_read, "dates_dropped": len(all_dates) - len(dates)}


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
    write_csv(path, ["date", "ticker", "adj_close"],
              ((day, ticker, price) for day, col in zip(panel.dates, panel.prices.T.tolist())
               for ticker, price in zip(panel.tickers, col)))


def read_universe_csv(path: str) -> dict[str, str]:
    """Read a ``ticker,sector`` CSV into an ordered ticker -> sector map."""
    _, rows = read_csv(path, "universe file", "ticker,sector",
                       lambda r: (r[0].strip(), r[1].strip()))
    universe: dict[str, str] = {}
    for line_no, (ticker, sector) in rows:
        if not ticker or not sector:
            raise DataError(f"universe file {path}: line {line_no}: empty ticker or sector")
        if ticker in universe:
            raise DataError(f"universe file {path}: line {line_no}: duplicate ticker {ticker}")
        universe[ticker] = sector
    if not universe:
        raise DataError(f"{path}: no universe rows")
    return universe


def read_macro_csv(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """Read a wide ``date,<name>...`` CSV of day-level context values.

    Returns (dates, column names, T x M float matrix), dates sorted ascending.
    """
    header, lines = read_csv(path, "macro file", "date,*", lambda r: (
        _row_date(r[0]), [float(v) for v in r[1:]]))
    names = header[1:]
    rows: dict[str, list[float]] = {}
    for line_no, (day, values) in lines:
        if day in rows:
            raise DataError(f"macro file {path}: line {line_no}: duplicate macro date {day}")
        if not all(np.isfinite(v) for v in values):
            raise DataError(f"macro file {path}: line {line_no}: non-finite macro value")
        rows[day] = values
    if not rows:
        raise DataError(f"{path}: no macro rows")
    _check_plain("macro column", names, path)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise DataError(f"macro file {path}: macro column {name!r} appears twice")
    dates = sorted(rows)
    return dates, names, np.array([rows[d] for d in dates], dtype=np.float64)


def write_macro_csv(path: str, dates: list[str], names: list[str], values: np.ndarray) -> None:
    """Write the ``date,<name>...`` CSV that read_macro_csv reads, full float precision."""
    write_csv(path, ["date", *names], ((day, *row) for day, row in zip(dates, values.tolist())))
