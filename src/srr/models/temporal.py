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

A mini-batch of B sequences of k snapshots is A_hat (B, k, N, N) and
A_hat X (B, k, N, F), the encoder's input (see ``gcn``): the encoder runs
once over all B*k graphs and each GRU step once over the (B, hidden) state;
an unbatched sequence has no leading axes. Scoring passes each distinct
snapshot once, as (G, N, N) and (G, N, F), with (S, k) ``rows`` naming each
sequence's snapshots. Nothing here scans for NaN/Inf; the loss,
``adam_step`` and the scored probabilities raise ``NumericalError`` on
non-finite values.
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


def temporal_forward(a_hat: np.ndarray, ax: np.ndarray, gcn_params: dict, gru_params: dict,
                     rows: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Probabilities of a batch of snapshot sequences, oldest snapshot first.

    Without ``rows``, ``a_hat`` is (..., k, N, N) and ``ax`` = ``a_hat @ x``
    (..., k, N, F): one sequence per leading index. With ``rows`` (S x k
    integers), ``a_hat`` (G, N, N) and ``ax`` (G, N, F) hold distinct
    snapshots, each encoded once, and sequence s reads snapshots ``rows[s]``.
    """
    emb, enc_cache = gcn_embed(a_hat, ax, gcn_params)
    seq = emb if rows is None else emb[rows]
    h = np.zeros(seq.shape[:-2] + (gru_params["w_out"].shape[0],))
    step_caches = []
    for t in range(seq.shape[-2]):
        h, step_cache = gru_step(seq[..., t, :], h, gru_params)
        step_caches.append(step_cache)
    logit = h @ gru_params["w_out"][:, 0] + gru_params["b_out"][0]
    cache = {"enc": enc_cache, "steps": step_caches, "h_final": h, "rows": rows,
             "seq_shape": seq.shape, "n_emb": len(emb)}
    return tz.sigmoid(logit), cache


def temporal_backward(dlogit, cache: dict, gcn_params: dict,
                      gru_params: dict) -> tuple[dict, dict]:
    """Backward through head, time, and every shared encoder.

    Returns (gcn_grads, gru_grads), summed over the batch. The two parameter
    dicts may be one dict holding both groups.
    """
    gru_grads = {name: np.zeros_like(gru_params[name]) for name in GRU_TENSORS}
    d = np.asarray(dlogit, dtype=np.float64)[..., None]
    gru_grads["w_out"], gru_grads["b_out"] = tz.linear_grads(cache["h_final"], d)
    dh = d * gru_params["w_out"][:, 0]
    dseq = np.empty(cache["seq_shape"])
    for t in reversed(range(len(cache["steps"]))):
        dseq[..., t, :], dh = gru_step_backward(dh, cache["steps"][t], gru_params, gru_grads)
    if cache["rows"] is not None:
        dseq = tz.scatter_rows(dseq, cache["rows"], cache["n_emb"])
    return gcn_embed_backward(dseq, cache["enc"], gcn_params), gru_grads
