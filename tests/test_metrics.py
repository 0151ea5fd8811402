"""Confusion arithmetic on fixed count tuples, ranking metrics against
brute-force oracles, lead-time bookkeeping, and report rendering."""

import json

import numpy as np
import pytest

import oracles
from oracles import auroc_oracle
from srr.cli import _write_json
from srr.errors import DataError, ShapeError
from srr.evaluation import (auprc_step, auroc_rank, compute_metrics, crash_windows,
                            lead_times, pr_points, roc_points, summary_table)


def written(tmp_path, obj) -> str:
    """The text of ``obj`` as the pipeline writes a JSON artifact."""
    path = tmp_path / "written.json"
    _write_json(str(path), obj)
    return path.read_text(encoding="utf-8")


def scored_from_counts(tp, fp, tn, fn):
    """Score/label vectors that realize the given confusion at threshold 0.5."""
    scores = np.array([0.9] * (tp + fp) + [0.1] * (tn + fn))
    labels = np.array([1] * tp + [0] * fp + [0] * tn + [1] * fn)
    return scores, labels


class TestConfusionArithmetic:
    def test_mixed_counts(self):
        m = compute_metrics(*scored_from_counts(164, 63, 65, 21), threshold=0.5)
        assert (m["tp"], m["fp"], m["tn"], m["fn"]) == (164, 63, 65, 21)
        assert abs(m["fpr"] - 63 / 128) < 1e-3 and m["fpr"] == 63 / 128
        assert abs(m["fnr"] - 21 / 185) < 1e-3
        assert m["recall"] == 164 / 185
        assert m["precision"] == 164 / 227
        assert m["accuracy"] == 229 / 313
        assert m["n"] == 313

    def test_second_mixed_counts(self):
        m = compute_metrics(*scored_from_counts(229, 23, 28, 33), threshold=0.5)
        assert abs(m["fpr"] - 23 / 51) < 1e-3
        assert abs(m["fnr"] - 33 / 262) < 1e-3

    def test_all_negatives_predicted_positive(self):
        m = compute_metrics(*scored_from_counts(38, 24, 0, 0), threshold=0.5)
        assert m["fpr"] == 1.0 and m["fnr"] == 0.0 and m["recall"] == 1.0
        assert m["precision"] == 38 / 62

    def test_single_class_metrics_are_absent_not_nan(self, tmp_path):
        scores = np.array([0.9, 0.8, 0.2])
        labels = np.array([1, 1, 1])
        m = compute_metrics(scores, labels)
        assert m["fpr"] is None and m["auroc"] is None
        assert m["recall"] == 2 / 3  # still defined: positives exist
        rendered = json.loads(written(tmp_path, {"metrics": m}))
        assert "fpr" not in rendered["metrics"]
        assert "auroc" not in rendered["metrics"]
        assert rendered["metrics"]["fnr"] == 1 / 3

    def test_positive_means_strictly_above_threshold(self):
        m = compute_metrics(np.array([0.5, 0.500001]), np.array([1, 1]),
                            threshold=0.5)
        assert m["tp"] == 1 and m["fn"] == 1

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            compute_metrics(np.zeros(3), np.zeros(4))
        with pytest.raises(DataError):
            compute_metrics(np.array([]), np.array([]))
        with pytest.raises(DataError, match="non-finite"):
            compute_metrics(np.array([np.nan]), np.array([1]))
        with pytest.raises(DataError, match="0 or 1"):
            compute_metrics(np.array([0.5]), np.array([2]))


class TestAuroc:
    def test_known_three_quarters(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert auroc_rank(scores, labels) == 0.75

    def test_rank_equals_pair_counting_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            assert auroc_rank(scores, labels) == auroc_oracle(scores, labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(size=40)
        labels = rng.integers(0, 2, size=40)
        base = auroc_rank(scores, labels)
        assert abs(auroc_rank(np.exp(5 * scores), labels) - base) < 1e-12

    def test_perfect_and_inverted(self):
        labels = np.array([0, 0, 1, 1])
        assert auroc_rank(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
        assert auroc_rank(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0
        assert auroc_rank(np.array([0.5, 0.5, 0.5, 0.5]), labels) == 0.5

    def test_single_class_is_none(self):
        assert auroc_rank(np.array([0.3, 0.4]), np.array([1, 1])) is None
        assert auroc_oracle(np.array([0.3, 0.4]), np.array([0, 0])) is None

    def test_area_under_roc_steps_matches_rank_statistic(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scores = rng.uniform(size=30)  # continuous: ties improbable
            labels = rng.integers(0, 2, size=30)
            if labels.min() == labels.max():
                continue
            pts = roc_points(scores, labels)
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            area = sum((x1 - x0) * (y0 + y1) / 2
                       for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))
            assert abs(area - auroc_rank(scores, labels)) < 1e-12


def oracle_average_precision(scores, labels):
    """Independent route: mean precision at each positive hit (tie-free only)."""
    order = np.argsort(-scores, kind="stable")
    y = labels[order]
    precisions = []
    tp = 0
    for k, val in enumerate(y, start=1):
        if val == 1:
            tp += 1
            precisions.append(tp / k)
    return float(np.mean(precisions))


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc_step(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0

    def test_known_half(self):
        assert auprc_step(np.array([0.9, 0.1]), np.array([0, 1])) == 0.5

    def test_all_tied_gives_base_rate(self):
        scores = np.full(4, 0.5)
        assert auprc_step(scores, np.array([1, 0, 0, 1])) == 0.5

    def test_matches_oracle_on_continuous_scores(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            scores = rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.max() == 0:
                continue
            ours = auprc_step(scores, labels)
            assert abs(ours - oracle_average_precision(scores, labels)) < 1e-12

    def test_no_positives_is_none(self):
        assert auprc_step(np.array([0.2, 0.4]), np.array([0, 0])) is None


class TestCurvePoints:
    def test_roc_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=25)
        labels = rng.integers(0, 2, size=25)
        pts = roc_points(scores, labels)
        assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            assert x1 >= x0 and y1 >= y0

    def test_pr_starts_at_zero_recall_and_ends_at_full(self):
        scores = np.array([0.9, 0.8, 0.4, 0.2])
        labels = np.array([1, 0, 1, 0])
        pts = pr_points(scores, labels)
        assert pts[0] == (0.0, 1.0)  # first block is a lone positive
        assert pts[-1][0] == 1.0

    def test_single_class_curves_rejected(self):
        with pytest.raises(DataError):
            roc_points(np.array([0.2, 0.4]), np.array([1, 1]))
        with pytest.raises(DataError):
            pr_points(np.array([0.2, 0.4]), np.array([0, 0]))


def threshold_sweep_oracle(scores, labels):
    """ROC points, PR points and AP from predicting score >= t at each distinct t.

    Distinct thresholds come from a set of Python floats, so -0.0 and 0.0 are one.
    """
    n_pos = int(sum(labels))
    n_neg = len(labels) - n_pos
    roc, pr, ap, recall_prev = [(0.0, 0.0)], [], 0.0, 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        roc.append((fp / n_neg if n_neg else None, tp / n_pos if n_pos else None))
        if n_pos:
            pr.append((tp / n_pos, tp / (tp + fp)))
            ap += (tp / n_pos - recall_prev) * (tp / (tp + fp))
            recall_prev = tp / n_pos
    return roc, ([(0.0, pr[0][1])] + pr if pr else None), (ap if n_pos else None)


class TestTieBlocksAgainstThresholdSweep:
    @staticmethod
    def check(scores, labels):
        roc, pr, ap = threshold_sweep_oracle(scores, labels)
        assert auprc_step(scores, labels) == ap
        if pr is not None:
            assert pr_points(scores, labels) == pr
        if 0 < int(labels.sum()) < labels.size:
            assert roc_points(scores, labels) == roc

    def test_integer_scores(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            self.check(rng.integers(0, 3, size=n).astype(np.float64),
                       rng.integers(0, 2, size=n))

    def test_all_equal_scores(self):
        for labels in ([1], [0, 1], [1, 1, 0], [0, 0, 0, 1], [1, 0, 1, 0, 1]):
            labels = np.array(labels)
            self.check(np.full(labels.size, 0.7), labels)
        assert roc_points(np.full(3, 0.7), np.array([1, 0, 1])) == [(0.0, 0.0), (1.0, 1.0)]

    def test_signed_zeros_are_one_tie_block(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            self.check(rng.choice([-0.0, 0.0, 1.0, -1.0], size=n),
                       rng.integers(0, 2, size=n))
        scores = np.array([0.0, -0.0, -0.0, 0.0])
        assert pr_points(scores, np.array([1, 0, 0, 0])) == [(0.0, 0.25), (1.0, 0.25)]


class TestCrashWindows:
    def test_interior_and_trailing_runs(self):
        assert crash_windows(np.array([0, 1, 1, 0, 1])) == [(1, 2), (4, 4)]

    def test_edges(self):
        assert crash_windows(np.zeros(4)) == []
        assert crash_windows(np.ones(3)) == [(0, 2)]
        assert crash_windows(np.array([1, 0, 0, 1])) == [(0, 0), (3, 3)]


class TestLeadTimes:
    CAL = [f"2021-01-{d:02d}" for d in range(1, 9)]
    Y = np.array([0, 0, 0, 1, 1, 0, 0, 1])  # onsets at positions 3 and 7

    def test_matched_in_crisis_and_lead_zero(self):
        scores = np.array([0.9, 0.1, 0.1, 0.8, 0.7, 0.6, 0.2, 0.9])
        out = lead_times(self.CAL, self.Y, self.CAL, scores, gamma=0.5)
        # warnings fire at positions 0, 3, 4, 5, 7
        assert out["lead_times"] == [3, 0, 2, 0]
        assert out["in_crisis"] == 1  # position 4, mid-crash
        assert out["unmatched"] == 0
        assert out["n_onsets"] == 2 and "gamma" not in out  # the config echo holds it

    def test_unmatched_warnings_after_last_onset(self):
        cal = self.CAL[:4]
        y = np.array([0, 1, 0, 0])
        scores = np.array([0.1, 0.2, 0.9, 0.9])
        out = lead_times(cal, y, cal, scores, gamma=0.5)
        assert out["lead_times"] == [] and out["unmatched"] == 2

    def test_gamma_boundary_is_strict(self):
        out = lead_times(self.CAL, self.Y, [self.CAL[0]], np.array([0.5]), gamma=0.5)
        assert out["lead_times"] == [] and out["unmatched"] == 0

    def test_nan_score_is_rejected_not_a_warning(self):
        with pytest.raises(DataError, match="non-finite"):
            lead_times(["2021-01-01", "2021-01-02"], [0, 1], ["2021-01-01"],
                       [float("nan")], gamma=0.5)

    def test_scored_dates_subset_of_calendar_enforced(self):
        with pytest.raises(DataError, match="not on the evaluation calendar"):
            lead_times(self.CAL, self.Y, ["1999-01-01"], np.array([0.9]))
        with pytest.raises(ShapeError):
            lead_times(self.CAL, self.Y[:3], self.CAL, np.ones(8))

    def test_warnings_on_sparse_score_grid(self):
        # scores exist only every other day, as with strided snapshot models
        scored = self.CAL[::2]  # positions 0, 2, 4, 6
        scores = np.array([0.2, 0.9, 0.9, 0.9])
        out = lead_times(self.CAL, self.Y, scored, scores, gamma=0.5)
        assert out["lead_times"] == [1, 1]  # positions 2 and 6
        assert out["in_crisis"] == 1  # position 4


class TestMatchesLoops:
    """AUROC from the tie-block counts, the edge-diff crash windows and the
    searchsorted lead times equal the rank-sum and loop versions they
    replaced (``oracles``) exactly."""

    def test_auroc_on_ties_and_single_class(self):
        rng = np.random.default_rng(21)
        for case in range(300):
            n = int(rng.integers(1, 60))
            scores = (rng.integers(0, 3, size=n) / 2.0 if case % 2
                      else rng.normal(size=n))
            labels = rng.integers(0, 2, size=n) if case % 5 else np.full(n, case % 3 // 2)
            got, want = auroc_rank(scores, labels), oracles.auroc_rank(scores, labels)
            assert (got is None and want is None) or got.hex() == want.hex()

    def test_crash_windows(self):
        rng = np.random.default_rng(22)
        for n in [0, 1, 2, 3] + list(rng.integers(4, 80, size=100)):
            labels = (rng.random(n) < rng.uniform(0.0, 1.0)).astype(np.int8)
            assert crash_windows(labels) == oracles.crash_windows(labels)

    def test_lead_times_on_onsets_crises_and_after_the_last_onset(self):
        rng = np.random.default_rng(23)
        kinds = {"on_onset": 0, "in_crisis": 0, "unmatched": 0}
        for case in range(150):
            n = int(rng.integers(1, 80))
            cal = [f"d{i:03d}" for i in range(n)]
            y = (rng.random(n) < rng.uniform(0.05, 0.6)).astype(np.int8)
            scored = cal[::int(rng.integers(1, 4))]
            scores = rng.choice([0.0, 0.5, 0.7, 1.0], size=len(scored))
            got = lead_times(cal, y, scored, scores, gamma=0.5)
            assert got == oracles.lead_times(cal, y, scored, scores, gamma=0.5)
            kinds["on_onset"] += got["lead_times"].count(0)
            kinds["in_crisis"] += got["in_crisis"]
            kinds["unmatched"] += got["unmatched"]
        assert min(kinds.values()) > 0
        off = ["d000", "nope", "also-not"]
        for fn in (lead_times, oracles.lead_times):
            with pytest.raises(DataError, match="scored date nope is not"):
                fn(cal, y, off, np.array([0.1, 0.9, 0.9]))


class TestRendering:
    def _report(self):
        scores, labels = scored_from_counts(3, 1, 4, 2)
        single = compute_metrics(np.array([0.9, 0.2]), np.array([1, 1]))
        return {
            "config": {"period": {}, "seed": 7, "evaluate": {"threshold": 0.5}},
            "models": {
                "logistic": {
                    "metrics": compute_metrics(scores, labels),
                    "parameter_count": 15,
                    "lead_times": {"lead_times": [3, 0, 2, 0], "unmatched": 1,
                                   "in_crisis": 1, "n_onsets": 2},
                },
                "gcn": {"metrics": single, "parameter_count": 1857},
            },
        }

    def test_json_drops_absent_metrics_and_sorts_keys(self, tmp_path):
        text = written(tmp_path, self._report())
        assert text.endswith("\n")
        data = json.loads(text)
        assert "auroc" not in data["models"]["gcn"]["metrics"]
        assert "fpr" not in data["models"]["gcn"]["metrics"]
        assert "auroc" in data["models"]["logistic"]["metrics"]
        assert list(data["models"]) == sorted(data["models"])
        assert "threshold" not in data["models"]["logistic"]["metrics"]  # the config echo holds it
        assert written(tmp_path, self._report()) == text  # stable bytes

    def test_summary_table_marks_undefined_and_notes_single_class(self):
        text = summary_table(self._report())
        lines = text.splitlines()
        gcn_row = next(l for l in lines if l.startswith("gcn"))
        assert "--" in gcn_row
        assert any("note: AUROC, ROC and PR curves omitted for gcn " in l for l in lines)
        logistic_row = next(l for l in lines if l.startswith("logistic"))
        assert "--" not in logistic_row
        detail = lines[lines.index(logistic_row) + 1]
        assert "tp=3 fp=1 tn=4 fn=2" in detail
        assert "4 matched, 1 unmatched, 1 in-crisis" in detail
        assert "median_lead=1" in detail  # sorted [0,0,2,3] -> (0+2)/2
        assert text.endswith("\n")

    @pytest.mark.parametrize("leads,shown", [
        ([7, 1, 4], "median_lead=4"), ([9], "median_lead=9"),
        ([1, 2], "median_lead=1.5"), ([], "median_lead=--")])
    def test_summary_median_lead_of_odd_and_even_counts(self, leads, shown):
        report = self._report()
        report["models"]["logistic"]["lead_times"]["lead_times"] = leads
        lines = summary_table(report).splitlines()
        detail = lines[lines.index(next(l for l in lines if l.startswith("logistic"))) + 1]
        assert detail.endswith(f"in-crisis  {shown}")
