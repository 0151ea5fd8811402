"""Systemic-risk radar: rolling-correlation market graphs and crash early warning.

The toolkit turns a panel of daily prices into a sequence of correlation
graphs, trains graph (GCN) and temporal (GCN+GRU) classifiers alongside
logistic-regression and random-forest baselines to flag upcoming drawdowns,
and scores everything with chronological, leakage-free evaluation.
"""

from .config import Config, PRESETS, config_hash, load_config
from .errors import ConfigError, DataError, NumericalError, ShapeError, SrrError
from .evaluation import (auprc_step, auroc_rank, compute_metrics, crash_windows,
                         lead_times, pr_points, report_to_json, roc_points,
                         summary_table)
from .features import (FeaturePanel, Standardization, apply_standardization,
                       attach_labels, compute_features, compute_labels,
                       feature_names, standardize)
from .graphs import (GraphSequence, GraphSnapshot, average_ranks, build_sequences,
                     build_snapshot, build_snapshots, rank_correlation_matrix,
                     read_snapshots_jsonl, spearman, write_snapshots_jsonl)
from .market_data import (IngestConfig, PricePanel, ReturnPanel, ingest_csv,
                          log_returns, read_macro_csv, read_universe_csv,
                          write_panel_csv)
from .models import (ModelState, adjacency_from_snapshot, day_feature_names,
                     deserialize, forest_fit, forest_predict, gcn_forward,
                     gcn_normalize, init_gcn, init_gru, logistic_fit,
                     logistic_predict, parameter_count, serialize,
                     temporal_forward)
from .synthetic import RegimeParams, planted_regime_panel, write_synthetic_csv
from .training import DataBundle, SplitPlan, chronological_split, predict_scores, train

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SrrError", "ConfigError", "DataError", "NumericalError", "ShapeError",
    # data
    "PricePanel", "ReturnPanel", "IngestConfig", "ingest_csv", "log_returns",
    "write_panel_csv", "read_universe_csv", "read_macro_csv",
    # features & labels
    "FeaturePanel", "Standardization", "feature_names", "compute_features",
    "compute_labels", "attach_labels", "standardize", "apply_standardization",
    # graphs
    "GraphSnapshot", "GraphSequence", "average_ranks", "spearman",
    "rank_correlation_matrix", "build_snapshot", "build_snapshots",
    "build_sequences", "write_snapshots_jsonl", "read_snapshots_jsonl",
    # models
    "ModelState", "serialize", "deserialize", "parameter_count", "gcn_normalize",
    "adjacency_from_snapshot", "init_gcn", "gcn_forward", "init_gru",
    "temporal_forward", "logistic_fit", "logistic_predict", "forest_fit",
    "forest_predict", "day_feature_names",
    # training & evaluation
    "SplitPlan", "chronological_split", "DataBundle", "train",
    "predict_scores", "compute_metrics", "auroc_rank",
    "auprc_step", "roc_points", "pr_points", "crash_windows", "lead_times",
    "report_to_json", "summary_table",
    # synthetic fixture & config
    "RegimeParams", "planted_regime_panel", "write_synthetic_csv",
    "Config", "load_config", "config_hash", "PRESETS",
]
