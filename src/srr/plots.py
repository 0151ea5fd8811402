"""Self-contained SVG charts, written directly (no plotting dependency).

Every chart is a deterministic function of its inputs: floats are formatted
with fixed precision and a provenance comment (config hash + seed) rides
inside the file, so identical runs emit byte-identical SVGs.
"""

from __future__ import annotations

from html import escape

from .errors import DataError

__all__ = ["line_chart", "grouped_bar_chart", "hbar_chart", "PALETTE"]

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

W, H = 860, 460
PLOT_AREA = (64, 44, W - 20, H - 56)  # x0, y0, x1, y1: the frame inside the margins


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def _frame(title: str, xlabel: str, ylabel: str, provenance: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="Helvetica, Arial, sans-serif">',
        f"<!-- {provenance} -->" if provenance else "<!-- srr chart -->",
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="24" font-size="16" text-anchor="middle">{title}</text>',
        f'<text x="{W / 2:.1f}" y="{H - 10}" font-size="12" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{H / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {H / 2:.1f})">{ylabel}</text>',
    ]


def _axes(parts: list[str], xlim, ylim, x_tick_labels=None) -> tuple:
    x0, y0, x1, y1 = PLOT_AREA

    def sx(v):
        return x0 + (v - xlim[0]) / (xlim[1] - xlim[0]) * (x1 - x0)

    def sy(v):
        return y1 - (v - ylim[0]) / (ylim[1] - ylim[0]) * (y1 - y0)

    parts.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
                 f'fill="none" stroke="#333" stroke-width="1"/>')
    for tv in _ticks(*ylim):
        y = sy(tv)
        parts.append(f'<line x1="{x0 - 4}" y1="{y:.1f}" x2="{x0}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{x0 - 8}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{_fmt(tv)}</text>')
        parts.append(f'<line x1="{x0}" y1="{y:.1f}" x2="{x1}" y2="{y:.1f}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
    ticks = ([(tv, _fmt(tv), 11) for tv in _ticks(*xlim)] if x_tick_labels is None
             else [(pos, label, 10) for pos, label in x_tick_labels])
    for pos, label, size in ticks:
        x = sx(pos)
        parts.append(f'<line x1="{x:.1f}" y1="{y1}" x2="{x:.1f}" y2="{y1 + 4}" stroke="#333"/>')
        parts.append(f'<text x="{x:.1f}" y="{y1 + 18}" font-size="{size}" '
                     f'text-anchor="middle">{label}</text>')
    return sx, sy


def _legend(parts: list[str], names: list[str]) -> None:
    x0, y0, _, _ = PLOT_AREA
    for i, name in enumerate(names):
        color = PALETTE[i % len(PALETTE)]
        x = x0 + 10 + 150 * i
        parts.append(f'<rect x="{x}" y="{y0 + 8}" width="14" height="4" fill="{color}"/>')
        parts.append(f'<text x="{x + 20}" y="{y0 + 14}" font-size="11">{escape(name)}</text>')


def _write_svg(path: str, parts: list[str]) -> None:
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


def line_chart(path: str, title: str, series: list[tuple[str, list[float], list[float]]],
               xlabel: str, ylabel: str, xlim, ylim, x_tick_labels=None,
               shaded: list[tuple[float, float]] | None = None, diagonal: bool = False,
               provenance: str = "") -> None:
    """Multi-series line chart with optional shaded x-bands and a y=x guide."""
    if not series:
        raise DataError("line_chart: no series to draw")
    parts = _frame(title, xlabel, ylabel, provenance)
    sx, sy = _axes(parts, xlim, ylim, x_tick_labels)
    x0, y0, x1, y1 = PLOT_AREA
    for a, b in shaded or []:
        xa, xb = sx(max(a, xlim[0])), sx(min(b, xlim[1]))
        if xb > xa:
            parts.append(f'<rect x="{xa:.1f}" y="{y0}" width="{xb - xa:.1f}" '
                         f'height="{y1 - y0}" fill="#f4c7c3" opacity="0.5"/>')
    if diagonal:
        parts.append(f'<line x1="{sx(xlim[0]):.1f}" y1="{sy(xlim[0]):.1f}" '
                     f'x2="{sx(xlim[1]):.1f}" y2="{sy(xlim[1]):.1f}" '
                     f'stroke="#999" stroke-dasharray="4 3"/>')
    for i, (name, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
    _legend(parts, [name for name, _, _ in series])
    _write_svg(path, parts)


def grouped_bar_chart(path: str, title: str, categories: list[str],
                      series: list[tuple[str, list[float]]], xlabel: str, ylabel: str,
                      provenance: str = "") -> None:
    """Bars grouped by category, one color per series."""
    if not categories or not series:
        raise DataError("grouped_bar_chart: nothing to draw")
    hi = max((max(vals) for _, vals in series), default=1.0)
    ylim = (0.0, hi * 1.15 if hi > 0 else 1.0)
    parts = _frame(title, xlabel, ylabel, provenance)
    sx, sy = _axes(parts, (0.0, float(len(categories))), ylim,
                   x_tick_labels=[(i + 0.5, c) for i, c in enumerate(categories)])
    _, _, _, y1 = PLOT_AREA
    n_series = len(series)
    slot = 0.8 / n_series
    for s_idx, (name, vals) in enumerate(series):
        color = PALETTE[s_idx % len(PALETTE)]
        for c_idx, v in enumerate(vals):
            x_left = sx(c_idx + 0.1 + s_idx * slot)
            x_right = sx(c_idx + 0.1 + (s_idx + 1) * slot)
            y_top = sy(v)
            parts.append(f'<rect x="{x_left:.1f}" y="{y_top:.1f}" '
                         f'width="{max(x_right - x_left - 2, 1):.1f}" '
                         f'height="{max(y1 - y_top, 0):.1f}" fill="{color}"/>')
    _legend(parts, [name for name, _ in series])
    _write_svg(path, parts)


def hbar_chart(path: str, title: str, names: list[str], values: list[float],
               xlabel: str, provenance: str = "") -> None:
    """Horizontal bars, one per name, labeled on the left."""
    if not names or len(names) != len(values):
        raise DataError("hbar_chart: names and values must align and be non-empty")
    hi = max(max(values), 0.0) or 1.0
    parts = _frame(title, xlabel, "", provenance)
    x0, y0, x1, y1 = PLOT_AREA
    left = x0 + 80
    row_h = (y1 - y0) / len(names)
    for tv in _ticks(0.0, hi * 1.1):
        x = left + tv / (hi * 1.1) * (x1 - left)
        parts.append(f'<line x1="{x:.1f}" y1="{y0}" x2="{x:.1f}" y2="{y1}" '
                     f'stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{x:.1f}" y="{y1 + 18}" font-size="11" '
                     f'text-anchor="middle">{tv:.4f}</text>')
    for i, (name, v) in enumerate(zip(names, values)):
        y_top = y0 + i * row_h + 0.2 * row_h
        width = max(v, 0.0) / (hi * 1.1) * (x1 - left)
        parts.append(f'<text x="{left - 6:.1f}" y="{y_top + 0.45 * row_h:.1f}" font-size="11" '
                     f'text-anchor="end">{escape(name)}</text>')
        parts.append(f'<rect x="{left:.1f}" y="{y_top:.1f}" width="{width:.1f}" '
                     f'height="{0.6 * row_h:.1f}" fill="{PALETTE[0]}"/>')
    _write_svg(path, parts)
