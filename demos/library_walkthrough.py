#!/usr/bin/env python3
"""End-to-end walkthrough of the srr library API on synthetic data.

Runs the whole early-warning pipeline in-process, narrating each stage:
prices -> log returns -> node features & crash labels -> chronological
split -> standardization -> rolling correlation graphs -> four models ->
ranking metrics and warning lead times. Finishes in a few seconds.

    python3 demos/library_walkthrough.py
"""

import numpy as np

from srr.config import Config, ModelConfig
from srr.evaluation import compute_metrics, lead_times
from srr.features import attach_labels, compute_features, standardize
from srr.graphs import build_snapshots
from srr.market_data import PricePanel, log_returns
from srr.models.state import parameter_count
from srr.synthetic import planted_regime_panel
from srr.training import DataBundle, chronological_split, predict_scores, train

SEED = 7
THRESHOLD = 0.10   # a crash = a 10% drawdown ...
HORIZON = 20       # ... within the next 20 trading days


def section(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main():
    section("1. Synthetic price panel with planted crash regimes")
    dates, tickers, prices = planted_regime_panel(n_tickers=20, n_days=600, seed=SEED)
    panel = PricePanel(tickers=tickers, dates=dates, prices=prices)
    print(f"{len(tickers)} tickers x {len(dates)} trading days "
          f"({dates[0]} .. {dates[-1]})")
    print(f"price range: {prices.min():.2f} .. {prices.max():.2f}")

    section("2. Log returns and per-node features")
    returns = log_returns(panel)
    feats = compute_features(panel)
    print(f"features: {feats.names}")
    print(f"{feats.features.shape[1]} feature dates after the "
          f"{len(dates) - feats.features.shape[1]}-day warm-up")

    section("3. Forward-drawdown crash labels")
    feats = attach_labels(feats, panel, threshold=THRESHOLD, horizon=HORIZON)
    valid = feats.label_valid
    rate = feats.graph_labels[valid].mean()
    print(f"graph-level crash label: portfolio loses >= {THRESHOLD:.0%} within "
          f"{HORIZON} days")
    print(f"{valid.sum()} labelable dates, base crash rate {rate:.1%}")

    section("4. Chronological split with embargo")
    split = chronological_split(feats.dates, ratio=0.8, horizon=HORIZON)
    print(f"train: {len(split.train_dates)} days ({split.train_dates[0]} .. "
          f"{split.train_dates[-1]})")
    print(f"test:  {len(split.test_dates)} days ({split.test_dates[0]} .. "
          f"{split.test_dates[-1]})")
    print(f"a {HORIZON}-day gap before the test range keeps train labels from "
          "peeking across the boundary")

    section("5. Standardization fitted on the train range only")
    feats = standardize(feats, (split.train_dates[0], split.train_dates[-1]))
    print("per-feature z-scores; train-range mean ~0, std ~1 by construction")

    section("6. Rolling rank-correlation graphs")
    labels = [int(y) if v else None for y, v in zip(feats.graph_labels, valid)]
    snapshots = build_snapshots(returns, feats.dates, labels, window=7, tau=0.5)
    edge_counts = [len(s.layers["correlation"]) for s in snapshots]
    print(f"{len(snapshots)} daily snapshots; |rho| >= 0.5 over a 7-day window "
          "makes an edge")
    print(f"edges per day: min {min(edge_counts)}, median "
          f"{int(np.median(edge_counts))}, max {max(edge_counts)}")
    print("the temporal model reads windows of 5 consecutive snapshots on the stride grid")

    section("7. Training four model families")
    bundle = DataBundle(panel=feats, snapshots=snapshots, split=split)
    cfg = Config(model=ModelConfig(stride=1, epochs=6, forest_trees=10), seed=SEED)
    states = {}
    for kind in ("logistic", "forest", "gcn", "temporal"):
        state, log = train(kind, bundle, cfg)
        states[kind] = state
        extra = (f", best epoch {log['best_epoch']}" if log.get("epoch_loss") else "")
        print(f"  {kind:<9} {parameter_count(state):>6} parameters, "
              f"{log['samples']} train samples{extra}")

    section("8. Early-warning evaluation on the held-out range")
    print(f"{'model':<10}{'AUROC':>7}{'AUPRC':>7}{'recall':>7}{'FPR':>7}")
    scored = {}
    for kind, state in states.items():
        dates_s, scores, labels = predict_scores(state, bundle, side="test")
        scored[kind] = (dates_s, scores)
        m = compute_metrics(scores, labels)
        fmt = lambda v: "   --" if v is None else f"{v:7.3f}"
        print(f"{kind:<10}{fmt(m['auroc'])}{fmt(m['auprc'])}"
              f"{fmt(m['recall'])}{fmt(m['fpr'])}")

    section("9. How far ahead of each crash do warnings fire?")
    calendar = feats.dates
    daily = feats.graph_labels
    for kind in ("gcn", "temporal"):
        dates_s, scores = scored[kind]
        lt = lead_times(calendar, daily, dates_s, scores, gamma=0.5)
        leads = lt["lead_times"]
        med = f"{int(np.median(leads))}d" if leads else "--"
        print(f"  {kind:<9} {lt['n_onsets']} crash onsets; {len(leads)} matched "
              f"warnings (median lead {med}), {lt['unmatched']} unmatched, "
              f"{lt['in_crisis']} during ongoing crashes")

    print("\nDone. The `srr` CLI packages these same stages with manifests, "
          "reports, and SVG charts;\nsee demos/cli_pipeline.py.")


if __name__ == "__main__":
    main()
