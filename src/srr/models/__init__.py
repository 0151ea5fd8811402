"""Model zoo: snapshot GCN, temporal GCN+GRU, and day-feature baselines."""

from .state import ModelState, MODEL_FORMAT, serialize, deserialize, parameter_count
from .gcn import (
    gcn_normalize,
    adjacency_from_snapshot,
    init_gcn,
    gcn_forward,
    gcn_backward,
    gcn_embed,
    gcn_embed_backward,
)
from .temporal import init_gru, gru_step, temporal_forward, temporal_backward
from .baselines import (
    day_feature_matrix,
    day_feature_names,
    logistic_fit,
    logistic_predict,
    forest_fit,
    forest_predict,
    gini,
)

__all__ = [
    "ModelState", "MODEL_FORMAT", "serialize", "deserialize", "parameter_count",
    "gcn_normalize", "adjacency_from_snapshot", "init_gcn", "gcn_forward",
    "gcn_backward", "gcn_embed", "gcn_embed_backward",
    "init_gru", "gru_step", "temporal_forward", "temporal_backward",
    "day_feature_matrix", "day_feature_names",
    "logistic_fit", "logistic_predict", "forest_fit", "forest_predict", "gini",
]
