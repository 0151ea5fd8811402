"""Acceptance suite: one test per shipping criterion, each printing a
single pass/fail line. Tolerances are stated inline; every check runs
against an independent oracle or a hand-derived value."""

import hashlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import auroc_oracle
from srr.cli import _write_json, main
from srr.evaluation import auprc_step, compute_metrics
from srr.features import compute_features
from srr.features import FeaturePanel
from srr.graphs import EDGE_DTYPE, GraphSnapshot, average_ranks, rank_correlation_matrix
from srr.market_data import PricePanel
from srr.models.gcn import gcn_backward, gcn_forward, gcn_normalize, init_gcn
from srr.models.temporal import gru_backward, gru_forward, init_gru, temporal_forward
from srr.synthetic import business_days, planted_regime_panel, write_synthetic_csv
from srr.tensor import bce_loss, focal_loss, sigmoid
from srr.training import DataBundle, _graph_samples, chronological_split


@contextmanager
def criterion(num, title):
    label = f"[criterion {num:02d}] {title}"
    try:
        yield
    except Exception as exc:
        print(f"{label}: FAIL ({exc})", flush=True)
        raise
    print(f"{label}: PASS", flush=True)


ONE = np.zeros((1, 1), dtype=np.intp)  # one sample, reading graph 0 of a one-graph stack


def scored_from_counts(tp, fp, tn, fn):
    scores = np.array([0.9] * (tp + fp) + [0.1] * (tn + fn))
    labels = np.array([1] * tp + [0] * fp + [0] * tn + [1] * fn)
    return scores, labels


def test_criterion_01_confusion_metric_arithmetic(tmp_path):
    with criterion(1, "confusion metric arithmetic on reference count tuples"):
        m = compute_metrics(*scored_from_counts(164, 63, 65, 21), threshold=0.5)
        assert abs(m["fpr"] - 0.492) < 1e-3
        assert abs(m["fnr"] - 0.114) < 1e-3
        m = compute_metrics(*scored_from_counts(229, 23, 28, 33), threshold=0.5)
        assert abs(m["fpr"] - 0.451) < 1e-3
        assert abs(m["fnr"] - 0.126) < 1e-3
        m = compute_metrics(*scored_from_counts(38, 24, 0, 0), threshold=0.5)
        assert abs(m["fpr"] - 1.000) < 1e-3
        # no negatives at all: FPR undefined -> absent from the JSON report
        m = compute_metrics(np.array([0.9, 0.2, 0.8]), np.array([1, 1, 1]))
        assert m["fpr"] is None
        _write_json(str(tmp_path / "report.json"), {"metrics": m})
        rendered = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert "fpr" not in rendered["metrics"]


def test_criterion_02_split_and_sequence_counts():
    with criterion(2, "1,565-date split: 313 test dates, 62 test sequences"):
        dates = business_days("2000-01-03", 1565)
        plan = chronological_split(dates, ratio=0.8, horizon=60)
        assert len(plan.test_dates) == 313
        snaps = [GraphSnapshot(date=d, node_ids=["A"],
                               layers={"correlation": np.zeros(0, EDGE_DTYPE)}, graph_label=0)
                 for d in dates]
        panel = FeaturePanel(tickers=["A"], dates=dates, features=np.zeros((1, len(dates), 1)),
                             names=["f"])
        hyper = {"k": 5, "stride": 5, "layers": ["correlation"], "weighted_adjacency": False}
        samples = _graph_samples(DataBundle(panel, snaps, plan), hyper, "test")
        assert len(samples.labels) == 62


def test_criterion_03_ranking_metric_oracle_equivalence():
    with criterion(3, "AUROC equals pair-counting oracle on 500 tied instances"):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 500:
            n = int(rng.integers(2, 201))
            scores = rng.integers(0, 10, size=n).astype(float)  # heavy ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            ours = compute_metrics(scores, labels)["auroc"]
            assert ours == auroc_oracle(scores, labels)
            if checked % 10 == 0:
                for transform in (lambda v: 3.0 * v + 7.0,
                                  lambda v: np.exp(v / 10.0),
                                  lambda v: v ** 3):
                    moved = compute_metrics(transform(scores), labels)["auroc"]
                    assert abs(moved - ours) < 1e-12
            checked += 1
        # AUPRC against an independent positional-precision oracle (tie-free)
        for _ in range(100):
            n = int(rng.integers(5, 120))
            scores = rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.max() == 0:
                continue
            order = np.argsort(-scores, kind="stable")
            y = labels[order]
            tp, precisions = 0, []
            for k, val in enumerate(y, start=1):
                if val == 1:
                    tp += 1
                    precisions.append(tp / k)
            assert abs(auprc_step(scores, labels) - np.mean(precisions)) < 1e-12


def _fd_suite(fn, params, names, tol):
    """Max relative error of analytic vs central-difference gradients."""
    worst = 0.0
    _, grads = fn(params)
    eps = 1e-6
    for name in names:
        flat = params[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lo_p, _ = fn(params)
            flat[idx] = orig - eps
            lo_m, _ = fn(params)
            flat[idx] = orig
            numeric = (lo_p - lo_m) / (2 * eps)
            analytic = gflat[idx]
            rel = abs(numeric - analytic) / max(1e-6, abs(numeric), abs(analytic))
            worst = max(worst, rel)
            assert rel < tol, f"{name}[{idx}] rel err {rel:.2e}"
    return worst


def test_criterion_04_gradient_suite():
    with criterion(4, "analytic gradients < 1e-4 of finite differences, 20 seeds, < 30 s"):
        t0 = time.monotonic()
        tol = 1e-4
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)

            # GCN: both conv layers, pooling, and the MLP head
            n, f = 4, 3
            adj = np.triu((rng.uniform(size=(n, n)) < 0.5).astype(np.float64), k=1)
            adj = adj + adj.T
            a_hat = gcn_normalize(adj)
            x = rng.normal(size=(n, f))
            gcn_p = init_gcn(rng, n_features=f, hidden=4, mlp_hidden=3)
            for b in ("b1", "b2", "b3", "b4"):
                gcn_p[b] = 0.1 * rng.normal(size=gcn_p[b].shape)
            y = float(rng.integers(0, 2))

            def gcn_fn(p):
                probs, cache = gcn_forward(a_hat[None], (a_hat @ x)[None], ONE, p)
                loss, _ = bce_loss(probs, np.array([y]))
                grads = {name: np.zeros_like(arr) for name, arr in p.items()}
                gcn_backward(probs - y, cache, p, grads)
                return loss, grads

            worst = max(worst, _fd_suite(
                gcn_fn, gcn_p, ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4"), tol))

            # GRU: the recurrence, all gate tensors
            gru_p = init_gru(rng, input_dim=3, hidden=4)
            for gate in ("z", "r", "n"):
                gru_p[f"b{gate}"] = 0.1 * rng.normal(size=4)
            xg, v = rng.normal(size=6), rng.normal(size=4)

            def gru_fn(p):  # two steps from the zero state: the second starts at h1 != 0
                h_new, cache = gru_forward(xg.reshape(2, 1, 3), p)
                grads = {name: np.zeros_like(arr) for name, arr in p.items()}
                gru_backward(v[None], cache, p, grads)
                return float(v @ h_new[0]), grads

            worst = max(worst, _fd_suite(
                gru_fn, gru_p,
                ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn"), tol))

            # logistic regression: mean-BCE gradient in (w, b)
            xs = rng.normal(size=(12, 3))
            ys = rng.integers(0, 2, size=12).astype(float)
            if ys.min() == ys.max():
                ys[0] = 1.0 - ys[0]
            lg_p = {"w": rng.normal(size=3) * 0.5, "b": rng.normal(size=1) * 0.5}

            def logistic_fn(p):
                probs = sigmoid(xs @ p["w"] + p["b"][0])
                loss, dlogits = bce_loss(probs, ys)
                return loss, {"w": xs.T @ dlogits, "b": np.array([dlogits.sum()])}

            worst = max(worst, _fd_suite(logistic_fn, lg_p, ("w", "b"), tol))

            # BCE and focal (gamma 0 and 2) gradients with respect to logits
            logits = rng.uniform(-4.0, 4.0, size=10)
            targets = rng.integers(0, 2, size=10).astype(float)
            for loss_fn in (bce_loss,
                            lambda p_, t_: focal_loss(p_, t_, 0.0),
                            lambda p_, t_: focal_loss(p_, t_, 2.0)):
                def wrapped(p):
                    loss, dlogits = loss_fn(sigmoid(p["z"]), targets)
                    return loss, {"z": dlogits}

                worst = max(worst, _fd_suite(wrapped, {"z": logits.copy()}, ("z",), tol))

        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
        print(f"    20 seeds, worst relative error {worst:.2e}, {elapsed:.1f}s",
              flush=True)


def test_criterion_05_permutation_invariance():
    with criterion(5, "node relabeling leaves model outputs unchanged (1e-12)"):
        rng = np.random.default_rng(44)
        n, f = 44, 7
        adj = np.triu((rng.uniform(size=(n, n)) < 0.08).astype(np.float64), k=1)
        adj = adj + adj.T
        x = rng.normal(size=(n, f))
        gcn_p = init_gcn(rng, n_features=f, hidden=32, mlp_hidden=16)
        a_hat = gcn_normalize(adj)
        prob, _ = gcn_forward(a_hat[None], (a_hat @ x)[None], ONE, gcn_p)

        temporal_p = {k: v for k, v in gcn_p.items() if k in ("w1", "b1", "w2", "b2")}
        temporal_p.update(init_gru(rng, input_dim=32, hidden=64))
        seq_rows = np.arange(3)[None]
        seq_adj, seq_x = [], []
        for _ in range(3):
            a = np.triu((rng.uniform(size=(n, n)) < 0.08).astype(np.float64), k=1)
            seq_adj.append(a + a.T)
            seq_x.append(rng.normal(size=(n, f)))
        seq_a = np.stack([gcn_normalize(a) for a in seq_adj])
        prob_t, _ = temporal_forward(seq_a, seq_a @ np.stack(seq_x), seq_rows, temporal_p)

        for _ in range(10):
            perm = rng.permutation(n)
            a_p = gcn_normalize(adj[np.ix_(perm, perm)])
            prob_p, _ = gcn_forward(a_p[None], (a_p @ x[perm])[None], ONE, gcn_p)
            assert abs(prob[0] - prob_p[0]) < 1e-12
            seq_ap = np.stack([gcn_normalize(a[np.ix_(perm, perm)]) for a in seq_adj])
            seq_xp = np.stack([xv[perm] for xv in seq_x])
            prob_tp, _ = temporal_forward(seq_ap, seq_ap @ seq_xp, seq_rows, temporal_p)
            assert abs(prob_t[0] - prob_tp[0]) < 1e-12


def test_criterion_06_rank_correlation_oracle():
    with criterion(6, "windowed rank correlation matches a second-route oracle (1e-12)"):
        def spearman(x, y):  # the graph builder's rank correlation of one pair of rows
            corr, degenerate = rank_correlation_matrix(np.stack([x, y]))
            return corr[0, 1], bool(degenerate.any())

        rng = np.random.default_rng(99)
        checked = 0
        while checked < 1000:
            if checked % 2 == 0:
                x = rng.integers(0, 4, size=7).astype(float)  # ties likely
                y = rng.integers(0, 4, size=7).astype(float)
            else:
                x = rng.normal(size=7)
                y = rng.normal(size=7)
            rho, degenerate = spearman(x, y)
            if degenerate:
                continue
            rx, ry = average_ranks(x), average_ranks(y)
            oracle = float(np.corrcoef(rx, ry)[0, 1])  # independent Pearson route
            assert abs(rho - oracle) < 1e-12
            if checked % 5 == 0:  # monotone transforms preserve ranks exactly
                rho_m, _ = spearman(np.exp(x), y ** 3)
                assert abs(rho - rho_m) < 1e-12
            checked += 1


def _run_stages(stages, cfg_path):
    for stage in stages:
        assert main([stage, "--config", cfg_path]) == 0, stage


def test_criterion_07_no_lookahead(tmp_path):
    with criterion(7, "training artifacts invariant to test-range price edits"):
        prices_csv = tmp_path / "prices.csv"
        write_synthetic_csv(str(prices_csv), n_tickers=10, n_days=400, seed=31)
        clean_rows = prices_csv.read_text().splitlines()

        cfg = {
            "data": {"prices_csv": str(prices_csv)},
            "labels": {"threshold": 0.10, "horizon": 20},
            "model": {"kinds": ["logistic", "forest", "gcn", "temporal"],
                       "gcn_hidden": 6, "mlp_hidden": 4, "gru_hidden": 6,
                       "sequence_length": 2, "stride": 2, "epochs": 2,
                       "forest_trees": 5, "forest_max_depth": 3,
                       "logistic_epochs": 200},
            "seed": 7,
            "out": str(tmp_path / "outA"),
        }
        cfg_a = tmp_path / "cfgA.json"
        cfg_a.write_text(json.dumps(cfg))
        _run_stages(("ingest", "features", "graphs", "train"), str(cfg_a))

        split = json.loads((tmp_path / "outA" / "split.json").read_text())
        test_start = split["test_dates"][0]

        # arbitrary rescaling of every price on or after the first test date,
        # written back to the same CSV path so the config hash is unchanged
        rng = np.random.default_rng(0)
        edited = [clean_rows[0]]
        n_edited = 0
        for row in clean_rows[1:]:
            date, ticker, price = row.split(",")
            if date >= test_start:
                price = repr(float(price) * rng.uniform(0.7, 1.4))
                n_edited += 1
            edited.append(f"{date},{ticker},{price}")
        assert n_edited > 50
        prices_csv.write_text("\n".join(edited) + "\n")

        cfg["out"] = str(tmp_path / "outB")
        cfg_b = tmp_path / "cfgB.json"
        cfg_b.write_text(json.dumps(cfg))
        _run_stages(("ingest", "features", "graphs", "train"), str(cfg_b))

        # test-side inputs really changed ...
        feats_a = (tmp_path / "outA" / "features.csv").read_bytes()
        feats_b = (tmp_path / "outB" / "features.csv").read_bytes()
        assert feats_a != feats_b
        # ... yet every fitted model and training log is byte-identical
        for kind in ("logistic", "forest", "gcn", "temporal"):
            for name in (f"model_{kind}.srrm", f"training_log_{kind}.json"):
                a = hashlib.sha256((tmp_path / "outA" / name).read_bytes()).hexdigest()
                b = hashlib.sha256((tmp_path / "outB" / name).read_bytes()).hexdigest()
                assert a == b, name

        # feature values at t never depend on data after t
        dates, tickers, raw = planted_regime_panel(n_tickers=5, n_days=200, seed=3)
        full = PricePanel(tickers=tickers, dates=dates, prices=raw)
        cut = PricePanel(tickers=tickers, dates=dates[:140], prices=raw[:, :140])
        f_full = compute_features(full)
        f_cut = compute_features(cut)
        k = len(f_cut.dates)
        assert f_full.dates[:k] == f_cut.dates
        assert np.array_equal(f_full.features[:, :k, :], f_cut.features)


@pytest.fixture(scope="module")
def fixture_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    prices = root / "prices.csv"
    write_synthetic_csv(str(prices), n_tickers=20, n_days=600, seed=7)
    cfg = {
        "data": {"prices_csv": str(prices)},
        "labels": {"threshold": 0.10, "horizon": 20},
        "model": {"kinds": ["logistic", "forest", "gcn", "temporal"],
                   "stride": 1, "epochs": 6, "forest_trees": 10},
        "seed": 7,
    }
    runs = {}
    for name in ("outA", "outB"):
        cfg["out"] = str(root / name)
        cfg_path = root / f"cfg_{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        t0 = time.monotonic()
        assert main(["run-all", "--config", str(cfg_path)]) == 0
        runs[name] = {"out": root / name, "elapsed": time.monotonic() - t0}
    return runs


def test_criterion_08_planted_regime_early_warning(fixture_runs):
    with criterion(8, "synthetic 20x600 fixture: temporal AUROC >= 0.90, "
                      "snapshot GCN >= 0.80, pipeline < 5 min"):
        run = fixture_runs["outA"]
        report = json.loads((run["out"] / "report.json").read_text())
        temporal = report["models"]["temporal"]["metrics"]["auroc"]
        snapshot = report["models"]["gcn"]["metrics"]["auroc"]
        assert temporal >= 0.90, f"temporal AUROC {temporal:.3f}"
        assert snapshot >= 0.80, f"snapshot AUROC {snapshot:.3f}"
        assert run["elapsed"] < 300.0, f"pipeline took {run['elapsed']:.0f}s"
        print(f"    temporal {temporal:.3f}, snapshot {snapshot:.3f}, "
              f"{run['elapsed']:.1f}s", flush=True)


def test_criterion_09_end_to_end_determinism(fixture_runs):
    with criterion(9, "two identical runs produce byte-identical artifacts"):
        compare = (["report.json", "summary.txt", "graphs.jsonl", "features.csv",
                    "roc.svg", "pr.svg", "risk_timeline.svg", "lead_times.svg",
                    "feature_importance.svg"]
                   + [f"model_{k}.srrm" for k in
                      ("logistic", "forest", "gcn", "temporal")]
                   + [f"timeline_{k}.csv" for k in
                      ("logistic", "forest", "gcn", "temporal")])
        for name in compare:
            a = (fixture_runs["outA"]["out"] / name).read_bytes()
            b = (fixture_runs["outB"]["out"] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


def test_criterion_10_normalization_hand_values():
    with criterion(10, "renormalized adjacency reproduces hand-derived entries"):
        path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        a_hat = gcn_normalize(path)
        assert abs(a_hat[0, 1] - 1.0 / math.sqrt(6.0)) < 1e-12
        assert abs(a_hat[0, 1] - 0.40825) < 5e-6
        triangle = np.ones((3, 3)) - np.eye(3)
        assert np.max(np.abs(gcn_normalize(triangle) - 1.0 / 3.0)) < 1e-12
