"""Snapshot graph-convolutional classifier with explicit backward pass.

Forward, for one graph:
    A_hat = D^{-1/2} (A + I) D^{-1/2}        (D = degree matrix of A + I)
    H1 = relu(A_hat X W1 + b1)               (F -> hidden)
    H2 = relu(A_hat H1 W2 + b2)              (hidden -> hidden)
    z  = mean over nodes of H2               (global mean pooling)
    h3 = relu(z W3 + b3)                     (hidden -> mlp_hidden)
    logit = h3 W4 + b4, prob = sigmoid(logit)

The adjacency fed to the model is binary with no self-loops (they are added
by the normalization); an optional weighted mode uses |rho| edge weights.
Gradients are composed by hand in reverse order; no autodiff tape exists
anywhere in the package.

Both graph models share one call signature, ``forward(a_hat, ax, rows,
params) -> (probs, cache)`` and ``backward(dlogits, cache, params, grads)``,
which writes the gradients into ``grads``: ``a_hat`` (G, N, N) and ``ax`` =
A_hat X (G, N, F) stack distinct graphs, each encoded once, and the (S, k)
integer ``rows`` name the graphs each sample reads, oldest first (here
k = 1). A_hat X does not depend on the parameters, so a caller computes it
once per snapshot. Every GEMM is per graph, and the weight gradients are
the per-graph products summed over the batch (see ``tensor``). An encoder
layer is one GEMM [input | 1] @ [W; b] and an in-place ReLU, whose mask
h > 0 is all its backward keeps; mean pooling is (1/N) 1^T H2. The backward
pass uses A_hat as its own transpose: ``gcn_normalize`` makes it exactly
symmetric. Nothing here scans for NaN/Inf; the loss, ``adam_step`` and the
scored probabilities raise ``NumericalError`` on non-finite values.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .. import tensor as tz
from ..graphs import GraphSnapshot, check_edges

__all__ = [
    "gcn_normalize",
    "adjacency_from_snapshot",
    "init_gcn",
    "gcn_embed",
    "gcn_embed_backward",
    "gcn_forward",
    "gcn_backward",
]

def gcn_normalize(adj: np.ndarray) -> np.ndarray:
    """Symmetric renormalized adjacency D^{-1/2}(A+I)D^{-1/2} of every matrix
    in a (..., N, N) stack.

    Each matrix must be square and symmetric with a zero diagonal and
    non-negative weights. The empty graph maps to the identity.
    """
    a = np.asarray(adj, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise ShapeError(f"adjacency of shape {a.shape} is not symmetric")
    if np.any(np.diagonal(a, axis1=-2, axis2=-1) != 0.0):
        raise ShapeError("adjacency must have a zero diagonal (self-loops are added here)")
    if np.any(a < 0.0):
        raise ShapeError("adjacency weights must be non-negative")
    a_hat = a + np.eye(a.shape[-1])
    inv_sqrt_deg = 1.0 / np.sqrt(a_hat.sum(axis=-1))
    return a_hat * (inv_sqrt_deg[..., :, None] * inv_sqrt_deg[..., None, :])


def adjacency_from_snapshot(snapshot: GraphSnapshot, layers: tuple[str, ...] = ("correlation",),
                            weighted: bool = False) -> np.ndarray:
    """Union of the requested layers as a dense symmetric matrix.

    Binary by default; in weighted mode a correlation edge carries |rho|
    (sector edges stay at 1), and a pair present in several layers takes
    the maximum weight.
    """
    n = len(snapshot.node_ids)
    adj = np.zeros((n, n), dtype=np.float64)
    for name in layers:
        if name not in snapshot.layers:
            raise ShapeError(f"snapshot {snapshot.date} has no layer {name!r}")
        edges = snapshot.layers[name]
        check_edges(edges, n, f"snapshot {snapshot.date}: layer {name!r}")
        i, j = edges["i"], edges["j"]
        w = np.abs(edges["w"]) if weighted else np.ones(len(edges))
        np.maximum.at(adj, (np.r_[i, j], np.r_[j, i]), np.r_[w, w])
    return adj


def init_gcn(rng: np.random.Generator, n_features: int, hidden: int = 32,
             mlp_hidden: int = 16) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, in a fixed draw order."""
    return {
        "w1": tz.glorot_uniform(rng, n_features, hidden),
        "b1": np.zeros(hidden),
        "w2": tz.glorot_uniform(rng, hidden, hidden),
        "b2": np.zeros(hidden),
        "w3": tz.glorot_uniform(rng, hidden, mlp_hidden),
        "b3": np.zeros(mlp_hidden),
        "w4": tz.glorot_uniform(rng, mlp_hidden, 1),
        "b4": np.zeros(1),
    }


def gcn_embed(a_hat: np.ndarray, ax: np.ndarray, params: dict) -> tuple[np.ndarray, dict]:
    """Two convolutions + mean pooling of every graph in the batch.

    ``a_hat`` is (..., N, N) and ``ax`` = ``a_hat @ x`` (..., N, F) with the
    same leading axes; returns (embeddings (..., hidden), cache).
    """
    if a_hat.shape[:-1] != ax.shape[:-1]:
        raise ShapeError(f"adjacency {a_hat.shape} vs features {ax.shape}: "
                         "batch or node axes differ")
    ax1 = np.empty(ax.shape[:-1] + (ax.shape[-1] + 1,))
    ax1[..., :-1], ax1[..., -1] = ax, 1.0
    h1 = ax1 @ np.vstack((params["w1"], params["b1"]))
    np.maximum(h1, 0.0, out=h1)
    ah1 = np.empty(h1.shape[:-1] + (h1.shape[-1] + 1,))
    np.matmul(a_hat, h1, out=ah1[..., :-1])
    ah1[..., -1] = 1.0
    h2 = ah1 @ np.vstack((params["w2"], params["b2"]))
    np.maximum(h2, 0.0, out=h2)
    z = np.full(h2.shape[-2], 1.0 / h2.shape[-2]) @ h2  # mean pooling, (1/N) 1^T H2
    cache = {"a_hat": a_hat, "ax1": ax1, "ah1": ah1, "on1": h1 > 0.0, "on2": h2 > 0.0}
    return z, cache


def gcn_embed_backward(dz: np.ndarray, cache: dict, params: dict, grads: dict) -> None:
    """Encoder weight gradients, summed over the batch, given d loss / d
    embeddings; written into ``grads`` (see ``gcn_backward``)."""
    on2 = cache["on2"]
    d = on2 * (dz / on2.shape[-2])[..., None, :]  # mean-pool and ReLU backward
    dwb = tz.weight_grad(cache["ah1"], d)
    grads["w2"][...], grads["b2"][...] = dwb[:-1], dwb[-1]
    np.matmul(cache["a_hat"], d @ np.ascontiguousarray(params["w2"].T), out=d)
    d *= cache["on1"]  # d loss / d layer-1 pre-activations, in the same memory
    dwb = tz.weight_grad(cache["ax1"], d)
    grads["w1"][...], grads["b1"][...] = dwb[:-1], dwb[-1]


def gcn_forward(a_hat: np.ndarray, ax: np.ndarray, rows: np.ndarray,
                params: dict) -> tuple[np.ndarray, dict]:
    """Probabilities of the snapshot samples ``rows`` (S x 1) of the graph
    stacks ``a_hat`` and ``ax`` = ``a_hat @ x``: each graph is encoded once
    and sample s reads graph ``rows[s, 0]``. Returns (probs (S,), cache)."""
    emb, enc_cache = gcn_embed(a_hat, ax, params)
    read = rows[:, 0]
    z = emb[read]
    h3 = np.maximum(z @ params["w3"] + params["b3"], 0.0)
    logit = (h3 @ params["w4"] + params["b4"])[:, 0]
    cache = {"enc": enc_cache, "z": z, "h3": h3, "read": read, "n_emb": len(emb)}
    return tz.sigmoid(logit), cache


def gcn_backward(dlogit: np.ndarray, cache: dict, params: dict, grads: dict) -> None:
    """Gradients for all eight tensors, summed over the batch, given d loss /
    d logits; written into ``grads``, arrays shaped like ``params``."""
    d = np.asarray(dlogit, dtype=np.float64)[..., None]
    tz.linear_grads(cache["h3"], d, grads["w4"], grads["b4"])
    dpre3 = (d @ params["w4"].T) * (cache["h3"] > 0.0)
    tz.linear_grads(cache["z"], dpre3, grads["w3"], grads["b3"])
    dz = tz.scatter_rows(dpre3 @ params["w3"].T, cache["read"], cache["n_emb"])
    gcn_embed_backward(dz, cache["enc"], params, grads)
