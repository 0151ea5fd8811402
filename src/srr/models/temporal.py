"""Temporal classifier: shared GCN encoder -> GRU -> logistic head.

Each snapshot in a sequence is encoded to its pooled embedding (pre-MLP) by
one shared set of GCN weights; the GRU consumes the embeddings oldest
first from a zero initial hidden state; a linear head on the final hidden
state gives the crash probability.

Gate equations (x = embedding, h = previous hidden):

    z = sigmoid(x Wz + h Uz + bz)        update gate
    r = sigmoid(x Wr + h Ur + br)        reset gate
    n = tanh(x Wn + (r * h) Un + bn)     candidate state
    h' = (1 - z) * n + z * h

Training is end to end: the backward pass runs through time and through
every snapshot encoder, accumulating into one shared set of GCN gradients.

The call signature is the snapshot GCN's (see ``gcn``): a batch of S
sequences is the distinct snapshots they read, A_hat (G, N, N) and A_hat X
(G, N, F), with (S, k) ``rows`` naming each sequence's snapshots, oldest
first. The encoder runs once over the G graphs and each GRU step once over
the (S, hidden) state, and one parameter dict holds both the encoder and
the GRU tensors. Nothing here scans for NaN/Inf; the loss, ``adam_step``
and the scored probabilities raise ``NumericalError`` on non-finite values.
"""

from __future__ import annotations

import numpy as np

from .. import tensor as tz
from .gcn import gcn_embed, gcn_embed_backward

__all__ = ["init_gru", "gru_step", "gru_step_backward", "temporal_forward", "temporal_backward"]

GRU_TENSORS = ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn", "w_out", "b_out")


def init_gru(rng: np.random.Generator, input_dim: int, hidden: int = 64) -> dict[str, np.ndarray]:
    params = {}
    for gate in ("z", "r", "n"):
        params[f"w{gate}"] = tz.glorot_uniform(rng, input_dim, hidden)
        params[f"u{gate}"] = tz.glorot_uniform(rng, hidden, hidden)
        params[f"b{gate}"] = np.zeros(hidden)
    params["w_out"] = tz.glorot_uniform(rng, hidden, 1)
    params["b_out"] = np.zeros(1)
    return params


def gru_step(x: np.ndarray, h: np.ndarray, params: dict) -> tuple[np.ndarray, dict]:
    """One recurrence step; ``x`` (..., input) and ``h`` (..., hidden) share
    their leading (batch) axes."""
    z = tz.sigmoid(x @ params["wz"] + h @ params["uz"] + params["bz"])
    r = tz.sigmoid(x @ params["wr"] + h @ params["ur"] + params["br"])
    rh = r * h
    n = tz.tanh(x @ params["wn"] + rh @ params["un"] + params["bn"])
    h_new = (1.0 - z) * n + z * h
    return h_new, {"x": x, "h": h, "z": z, "r": r, "rh": rh, "n": n}


def gru_step_backward(dh_new: np.ndarray, cache: dict, params: dict,
                      grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """Backward through one step. Accumulates the batch's summed weight
    gradients into ``grads``; returns (dx, dh)."""
    x, h, z, r, n = cache["x"], cache["h"], cache["z"], cache["r"], cache["n"]
    dpre_n = dh_new * (1.0 - z) * (1.0 - n * n)
    drh = dpre_n @ params["un"].T
    dpre_z = dh_new * (h - n) * z * (1.0 - z)
    dpre_r = drh * h * r * (1.0 - r)
    for gate, dpre, h_in in (("n", dpre_n, cache["rh"]), ("z", dpre_z, h), ("r", dpre_r, h)):
        dw, db = tz.linear_grads(x, dpre)
        grads[f"w{gate}"] += dw
        grads[f"u{gate}"] += tz.linear_grads(h_in, dpre)[0]
        grads[f"b{gate}"] += db
    dx = dpre_n @ params["wn"].T + dpre_z @ params["wz"].T + dpre_r @ params["wr"].T
    dh = dh_new * z + drh * r + dpre_z @ params["uz"].T + dpre_r @ params["ur"].T
    return dx, dh


def temporal_forward(a_hat: np.ndarray, ax: np.ndarray, rows: np.ndarray,
                     params: dict) -> tuple[np.ndarray, dict]:
    """Probabilities of the sequences ``rows`` (S x k) of the graph stacks
    ``a_hat`` and ``ax`` = ``a_hat @ x``: each graph is encoded once and
    sequence s reads graphs ``rows[s]``, oldest first. Returns (probs (S,), cache)."""
    emb, enc_cache = gcn_embed(a_hat, ax, params)
    seq = emb[rows]
    h = np.zeros((len(seq), params["w_out"].shape[0]))
    step_caches = []
    for t in range(seq.shape[1]):
        h, step_cache = gru_step(seq[:, t], h, params)
        step_caches.append(step_cache)
    logit = h @ params["w_out"][:, 0] + params["b_out"][0]
    cache = {"enc": enc_cache, "steps": step_caches, "h_final": h, "rows": rows,
             "n_emb": len(emb)}
    return tz.sigmoid(logit), cache


def temporal_backward(dlogit: np.ndarray, cache: dict, params: dict) -> dict[str, np.ndarray]:
    """Backward through head, time, and every shared encoder: the gradients
    of the encoder and GRU tensors, summed over the batch, in one dict."""
    grads = {name: np.zeros_like(params[name]) for name in GRU_TENSORS}
    d = np.asarray(dlogit, dtype=np.float64)[..., None]
    grads["w_out"], grads["b_out"] = tz.linear_grads(cache["h_final"], d)
    dh = d * params["w_out"][:, 0]
    dseq = np.empty(cache["rows"].shape + params["wz"].shape[:1])  # (S, k, embedding)
    for t in reversed(range(len(cache["steps"]))):
        dseq[:, t], dh = gru_step_backward(dh, cache["steps"][t], params, grads)
    dseq = tz.scatter_rows(dseq, cache["rows"], cache["n_emb"])
    grads.update(gcn_embed_backward(dseq, cache["enc"], params))
    return grads
