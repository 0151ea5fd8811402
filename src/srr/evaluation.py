"""Early-warning evaluation: confusion metrics, AUROC/AUPRC, lead times.

Predicted positive means score strictly above the decision threshold.
Metrics whose denominator is empty (single-class data) are reported as
absent (None), never as NaN or a silent zero.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, ShapeError

__all__ = [
    "compute_metrics",
    "auroc_rank",
    "auprc_step",
    "roc_points",
    "pr_points",
    "crash_windows",
    "lead_times",
    "summary_table",
]


def _check_scored(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.shape != y.shape:
        raise ShapeError(f"scores {s.shape} vs labels {y.shape}")
    if s.size == 0:
        raise DataError("cannot evaluate an empty score set")
    if not np.all(np.isfinite(s)):
        raise DataError("scores contain non-finite values")
    if not np.all((y == 0) | (y == 1)):
        raise DataError("labels must be 0 or 1")
    return s, y.astype(np.int8)


def _tie_block_counts(scores, labels) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Check the scores and labels; return the cumulative (tp, fp) at the end
    of each tie block, scores descending, and the class sizes (n_pos, n_neg).

    Each distinct score is one threshold: tied scores enter as one block.
    """
    s, y = _check_scored(scores, labels)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    ends = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))
    tp = np.cumsum(y[order], dtype=np.int64)[ends]
    n_pos = int(tp[-1])
    return tp, ends + 1 - tp, n_pos, s.size - n_pos


def auroc_rank(scores, labels) -> float | None:
    """AUROC as the Mann-Whitney U over n_pos * n_neg (ties count half).

    Equals the probability a random positive outscores a random negative,
    ties counted half. None when only one class is present.
    """
    tp, fp, n_pos, n_neg = _tie_block_counts(scores, labels)
    if n_pos == 0 or n_neg == 0:
        return None
    # 2U: each positive of a tie block counts the negatives below it twice and
    # the negatives tied with it once; exact in integers
    two_u = int(np.diff(tp, prepend=0) @ (2 * (n_neg - fp) + np.diff(fp, prepend=0)))
    return two_u / (2 * n_pos * n_neg)


def auprc_step(scores, labels) -> float | None:
    """Average precision by step integration of the precision-recall curve.

    Thresholds sweep the distinct score values in descending order; tied
    scores enter as one block. None when no positives exist.
    """
    tp, fp, n_pos, _ = _tie_block_counts(scores, labels)
    if n_pos == 0:
        return None
    steps = np.diff(tp / n_pos, prepend=0.0) * (tp / (tp + fp))
    return float(np.cumsum(steps)[-1])  # a running sum, not np.sum's pairwise order


def roc_points(scores, labels) -> list[tuple[float, float]]:
    """(FPR, TPR) step points from (0,0) to (1,1), tied scores as one step."""
    tp, fp, n_pos, n_neg = _tie_block_counts(scores, labels)
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC undefined for single-class labels")
    return [(0.0, 0.0)] + list(zip((fp / n_neg).tolist(), (tp / n_pos).tolist()))


def pr_points(scores, labels) -> list[tuple[float, float]]:
    """(recall, precision) step points; starts at recall 0 with the first block's precision."""
    tp, fp, n_pos, _ = _tie_block_counts(scores, labels)
    if n_pos == 0:
        raise DataError("PR curve undefined without positives")
    pts = list(zip((tp / n_pos).tolist(), (tp / (tp + fp)).tolist()))
    return [(0.0, pts[0][1])] + pts


def compute_metrics(scores, labels, threshold: float = 0.5) -> dict:
    """Confusion counts at the threshold plus ranking metrics.

    Keys: n, tp/fp/tn/fn, accuracy, and (None when undefined) precision,
    recall, fpr, fnr, auroc, auprc.
    """
    s, y = _check_scored(scores, labels)
    pred = s > threshold
    tp = int(np.count_nonzero(pred & (y == 1)))
    fp = int(np.count_nonzero(pred & (y == 0)))
    tn = int(np.count_nonzero(~pred & (y == 0)))
    fn = int(np.count_nonzero(~pred & (y == 1)))

    def ratio(num: int, den: int) -> float | None:
        return num / den if den > 0 else None

    return {
        "n": int(s.size),
        "tp": tp, "fp": fp, "tn": tn, "fn": fn,
        "accuracy": (tp + tn) / s.size,
        "precision": ratio(tp, tp + fp),
        "recall": ratio(tp, tp + fn),
        "fpr": ratio(fp, fp + tn),
        "fnr": ratio(fn, fn + tp),
        "auroc": auroc_rank(s, y),
        "auprc": auprc_step(s, y),
    }


# -- lead times ---------------------------------------------------------------

def crash_windows(labels: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of label 1 as (onset index, last index) pairs."""
    crash = np.concatenate(([False], np.asarray(labels).reshape(-1) == 1, [False]))
    edges = np.diff(crash.astype(np.int8))  # +1 at an onset, -1 just past a window's end
    return list(zip(np.flatnonzero(edges == 1).tolist(),
                    (np.flatnonzero(edges == -1) - 1).tolist()))


def lead_times(calendar_dates: list[str], daily_labels, scored_dates: list[str],
               scores, gamma: float = 0.5) -> dict:
    """Warning lead times in trading days.

    A warning is a scored date with score > gamma. Each warning that
    precedes the next crash-window onset with no crash day in between
    (the onset day itself counts, lead 0) contributes onset - warning in
    trading-day positions on the calendar. Warnings with no later onset
    are unmatched; warnings inside an ongoing crash window are tallied
    separately as in_crisis.
    """
    y = np.asarray(daily_labels).reshape(-1)
    if len(calendar_dates) != y.size:
        raise ShapeError(f"calendar has {len(calendar_dates)} dates, labels {y.size}")
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if len(scored_dates) != s.size:
        raise ShapeError(f"{len(scored_dates)} scored dates vs {s.size} scores")
    if not np.all(np.isfinite(s)):
        raise DataError("scores contain non-finite values")
    pos_of = {d: i for i, d in enumerate(calendar_dates)}
    warned = [d for d, fired in zip(scored_dates, s > gamma) if fired]
    for date in warned:
        if date not in pos_of:
            raise DataError(f"scored date {date} is not on the evaluation calendar")
    w = np.array([pos_of[d] for d in warned], dtype=np.int64)
    onsets = np.array([o for o, _ in crash_windows(y)], dtype=np.int64)
    nxt = np.searchsorted(onsets, w)  # the first onset on or after each warning
    crisis = (y[w] == 1) & ~np.isin(w, onsets)  # fired mid-crash; predicts nothing upcoming
    matched = ~crisis & (nxt < onsets.size)
    leads = (onsets[nxt[matched]] - w[matched]).tolist()
    return {
        "lead_times": leads,
        "unmatched": int(np.count_nonzero(~crisis & ~matched)),
        "in_crisis": int(np.count_nonzero(crisis)),
        "n_onsets": len(onsets),
    }


# -- report rendering -----------------------------------------------------------

def _fmt(value, width: int = 9) -> str:
    if value is None:
        return "--".rjust(width)
    return f"{value:.3f}".rjust(width)


def summary_table(report: dict) -> str:
    """Aligned text table: one row per model, dashes where a metric is undefined. The
    header names the period of the config echo: its preset, else ``start..end`` with
    ``...`` for a missing bound, else ``full``."""
    cfg = report["config"]
    start, end = cfg["period"].get("start"), cfg["period"].get("end")
    period = cfg["period"].get("preset") or (
        f"{start or '...'}..{end or '...'}" if start or end else "full")
    lines = [
        f"period: {period}    seed: {cfg['seed']}    threshold: {cfg['evaluate']['threshold']}",
        "",
        f"{'model':<10}{'params':>8}{'n':>6}{'auroc':>9}{'auprc':>9}"
        f"{'precision':>11}{'recall':>9}{'accuracy':>10}{'fpr':>9}{'fnr':>9}",
    ]
    for kind in sorted(report["models"]):
        m = report["models"][kind]["metrics"]
        lines.append(
            f"{kind:<10}{report['models'][kind].get('parameter_count', 0):>8}"
            f"{m['n']:>6}{_fmt(m.get('auroc'))}{_fmt(m.get('auprc'))}"
            f"{_fmt(m.get('precision'), 11)}{_fmt(m.get('recall'))}"
            f"{_fmt(m.get('accuracy'), 10)}{_fmt(m.get('fpr'))}{_fmt(m.get('fnr'))}"
        )
        counts = (f"  tp={m['tp']} fp={m['fp']} tn={m['tn']} fn={m['fn']}")
        lt = report["models"][kind].get("lead_times")
        if lt is not None:
            med = (f"median_lead={np.median(lt['lead_times']):g}" if lt["lead_times"]
                   else "median_lead=--")
            counts += (f"  warnings: {len(lt['lead_times'])} matched, {lt['unmatched']}"
                       f" unmatched, {lt['in_crisis']} in-crisis  {med}")
        lines.append(counts)
    single = [k for k in sorted(report["models"])
              if report["models"][k]["metrics"].get("auroc") is None]
    if single:
        lines.append("")
        lines.append(
            "note: AUROC, ROC and PR curves omitted for "
            + ", ".join(single)
            + " (single-class test labels make them undefined)"
        )
    return "\n".join(lines) + "\n"
