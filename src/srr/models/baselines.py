"""Day-level baseline models: logistic regression and a random forest.

Both consume one vector per trading day: the cross-sectional mean and
sample standard deviation (ddof=1) of each node feature, interleaved as
(mean_f, std_f) per feature, plus the macro overlay when configured.
Targets are the graph-level crash labels.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError, NumericalError
from .. import tensor as tz
from ..features import FeaturePanel

__all__ = [
    "day_feature_names",
    "day_feature_matrix",
    "logistic_fit",
    "logistic_predict",
    "gini",
    "forest_fit",
    "forest_predict",
]


# -- day features ----------------------------------------------------------

def day_feature_names(panel: FeaturePanel) -> list[str]:
    names = []
    for n in panel.names:
        names.extend([f"mean_{n}", f"std_{n}"])
    names.extend(panel.macro_names)
    return names


def day_feature_matrix(panel: FeaturePanel, date_indices: list[int] | np.ndarray) -> np.ndarray:
    """Baseline inputs, one row per date index: interleaved cross-sectional
    (mean, std) of each feature, then the macro columns."""
    x = panel.features[:, date_indices, :]  # N x D x F
    if x.shape[0] < 2:
        raise DataError("day features need >= 2 tickers for a cross-sectional std")
    out = np.empty((x.shape[1], 2 * x.shape[2]))
    out[:, 0::2] = x.mean(axis=0)
    out[:, 1::2] = x.std(axis=0, ddof=1)
    if panel.macro is not None:
        out = np.hstack([out, panel.macro[date_indices]])
    return out


# -- logistic regression ---------------------------------------------------

def logistic_fit(x: np.ndarray, y: np.ndarray, lr: float = 0.05, max_epochs: int = 2000,
                 tol: float = 1e-6) -> dict[str, np.ndarray]:
    """Full-batch Adam on mean BCE from a zero start.

    Stops at max_epochs or when the gradient norm drops below tol.
    Returns the model file's tensors: weights ``w`` and the one-element bias ``b``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DataError(f"logistic_fit: X {x.shape} does not match y of length {y.size}")
    theta, params = tz.flatten({"w": np.zeros(x.shape[1]), "b": np.zeros(1)})
    w, b = params["w"], params["b"]
    grad = np.empty_like(theta)
    grad_w = grad[:-1]
    state = tz.AdamState({"w": w.size, "b": 1}, lr=lr)
    tz._check_loss_args(y, y)  # the targets, checked once: 0 or 1, not empty
    for _ in range(max_epochs):
        dlogits = tz.sigmoid(x @ w + b[0])
        dlogits -= y
        dlogits /= y.size  # the mean BCE's gradient in the logits, (p - y) / n
        np.matmul(x.T, dlogits, out=grad_w)
        grad[-1] = dlogits.sum()
        if float(np.sqrt(grad_w @ grad_w + grad[-1] * grad[-1])) < tol:
            break
        tz.adam_step(theta, grad, state)
    return params


def logistic_predict(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    w, x = params["w"], np.asarray(x, dtype=np.float64)
    if x.shape[1] != w.size:
        raise DataError(f"logistic_predict: X has {x.shape[1]} features, model has {w.size}")
    return tz.sigmoid(x @ w + params["b"][0])


# -- random forest ---------------------------------------------------------

def _gini_of(p1):
    """Gini impurity 1 - p0^2 - p1^2 from the class-1 share, elementwise."""
    return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)


def gini(labels: np.ndarray) -> float:
    """Gini impurity of a binary label vector."""
    y = np.asarray(labels)
    return 0.0 if y.size == 0 else _gini_of(float(np.count_nonzero(y)) / y.size)


def _grow_tree(x: np.ndarray, y: np.ndarray, rng: np.random.Generator, max_depth: int,
               min_leaf: int, n_root: int, importance: np.ndarray) -> list[list[float]]:
    """CART with per-node random feature subsets; returns the node table.

    Node row layout: [is_leaf, feature, threshold, left, right, p0, p1].
    Samples with value <= threshold go left. Ties in impurity are broken
    toward the lowest feature index, then the lowest threshold, so a tree
    is a pure function of (data, rng draws).
    """
    n_features = x.shape[1]
    m_try = max(1, int(np.sqrt(n_features)))
    nodes: list[list[float]] = []

    def leaf(idx: np.ndarray) -> int:
        p1 = float(np.count_nonzero(y[idx])) / idx.size
        nodes.append([1.0, -1.0, 0.0, -1.0, -1.0, 1.0 - p1, p1])
        return len(nodes) - 1

    def best_split(idx: np.ndarray) -> tuple[int, float, float] | None:
        node_gini = gini(y[idx])
        if node_gini == 0.0:
            return None
        candidates = np.sort(rng.choice(n_features, size=m_try, replace=False))
        n_node = idx.size
        total_pos = int(np.count_nonzero(y[idx]))
        vals = x[np.ix_(idx, candidates)]
        order = np.argsort(vals, axis=0, kind="stable")
        sv = np.take_along_axis(vals, order, axis=0)
        # row s of each column: the boundary between sorted values s and s + 1
        pos_left = np.cumsum(y[idx][order], axis=0, dtype=np.int64)[:-1]
        n_l = np.arange(1, n_node)[:, None]
        n_r = n_node - n_l
        weighted = (n_l * _gini_of(pos_left / n_l)
                    + n_r * _gini_of((total_pos - pos_left) / n_r)) / n_node
        # no boundary between tied values, no leaf below min_leaf
        ok = (sv[:-1] != sv[1:]) & (n_l >= min_leaf) & (n_r >= min_leaf)
        # feature-major, so argmin's first minimum is the lowest feature, then threshold
        flat = np.where(ok, weighted, np.inf).T.ravel()
        best = int(np.argmin(flat))
        if not flat[best] < node_gini:
            return None
        f, s = divmod(best, n_node - 1)
        return (int(candidates[f]), float(0.5 * (sv[s, f] + sv[s + 1, f])),
                node_gini - float(flat[best]))

    def grow(idx: np.ndarray, depth: int) -> int:
        if depth >= max_depth or idx.size < 2 * min_leaf:
            return leaf(idx)
        found = best_split(idx)
        if found is None:
            return leaf(idx)
        feature, threshold, decrease = found
        importance[feature] += (idx.size / n_root) * decrease
        mask = x[idx, feature] <= threshold
        pos = len(nodes)
        nodes.append([0.0, float(feature), threshold, -1.0, -1.0, 0.0, 0.0])
        nodes[pos][3] = float(grow(idx[mask], depth + 1))
        nodes[pos][4] = float(grow(idx[~mask], depth + 1))
        return pos

    grow(np.arange(x.shape[0]), 0)
    return nodes


def forest_fit(x: np.ndarray, y: np.ndarray, n_trees: int = 50, max_depth: int = 6,
               min_leaf: int = 2, seed: int = 0) -> dict[str, np.ndarray]:
    """Bagged CART ensemble; returns the packed parameter dict.

    Tree t draws its bootstrap resample and feature subsets from the
    derived stream (seed, tree index), so the whole forest is a pure
    function of (data, seed). ``feature_importance`` holds the mean
    impurity decrease per input feature across trees.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int8).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DataError(f"forest_fit: X {x.shape} does not match y of length {y.size}")
    if x.shape[0] < 2:
        raise DataError("forest_fit: need at least 2 samples")
    if n_trees < 1:
        raise DataError(f"forest_fit: n_trees must be >= 1, got {n_trees}")
    params: dict[str, np.ndarray] = {}
    importance = np.zeros(x.shape[1])
    for t in range(n_trees):
        rng = tz.seeded_rng(seed, t)
        idx = rng.integers(0, x.shape[0], size=x.shape[0])
        tree_importance = np.zeros(x.shape[1])
        nodes = _grow_tree(x[idx], y[idx], rng, max_depth, min_leaf, idx.size, tree_importance)
        params[f"tree_{t:04d}"] = np.asarray(nodes, dtype=np.float64)
        importance += tree_importance
    params["feature_importance"] = importance / n_trees
    return params


def forest_predict(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Mean leaf class-1 probability across trees, per row of X.

    All rows descend each tree together, one level per step."""
    x = np.asarray(x, dtype=np.float64)
    trees = [params[k] for k in sorted(params) if k.startswith("tree_")]
    if not trees:
        raise DataError("forest_predict: parameter dict holds no trees")
    rows = np.arange(x.shape[0])
    out = np.zeros(x.shape[0])
    for nodes in trees:
        at = np.zeros(x.shape[0], dtype=np.intp)
        for _ in range(nodes.shape[0] + 1):
            node = nodes[at]
            inner = node[:, 0] != 1.0
            if not inner.any():
                break
            go_left = x[rows, node[:, 1].astype(np.intp)] <= node[:, 2]
            at = np.where(inner, np.where(go_left, node[:, 3], node[:, 4]), at).astype(np.intp)
        else:
            raise NumericalError("malformed tree: traversal did not reach a leaf")
        out += node[:, 6]
    return out / len(trees)
