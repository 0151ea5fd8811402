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
    """One recurrence step on 1-D arrays (single sequence)."""
    pre_z = x @ params["wz"] + h @ params["uz"] + params["bz"]
    z = tz.sigmoid(pre_z)
    pre_r = x @ params["wr"] + h @ params["ur"] + params["br"]
    r = tz.sigmoid(pre_r)
    rh = r * h
    pre_n = x @ params["wn"] + rh @ params["un"] + params["bn"]
    n = tz.tanh(pre_n)
    h_new = (1.0 - z) * n + z * h
    cache = {"x": x, "h": h, "z": z, "r": r, "rh": rh, "n": n,
             "pre_z": pre_z, "pre_r": pre_r, "pre_n": pre_n}
    return h_new, cache


def gru_step_backward(dh_new: np.ndarray, cache: dict, params: dict,
                      grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """Backward through one step. Accumulates into ``grads``; returns (dx, dh)."""
    x, h, z, r, n = cache["x"], cache["h"], cache["z"], cache["r"], cache["n"]
    dz = dh_new * (h - n)
    dn = dh_new * (1.0 - z)
    dh = dh_new * z

    dpre_n = dn * (1.0 - n * n)
    grads["wn"] += np.outer(x, dpre_n)
    grads["un"] += np.outer(cache["rh"], dpre_n)
    grads["bn"] += dpre_n
    dx = dpre_n @ params["wn"].T
    drh = dpre_n @ params["un"].T
    dr = drh * h
    dh += drh * r

    dpre_z = dz * z * (1.0 - z)
    grads["wz"] += np.outer(x, dpre_z)
    grads["uz"] += np.outer(h, dpre_z)
    grads["bz"] += dpre_z
    dx += dpre_z @ params["wz"].T
    dh += dpre_z @ params["uz"].T

    dpre_r = dr * r * (1.0 - r)
    grads["wr"] += np.outer(x, dpre_r)
    grads["ur"] += np.outer(h, dpre_r)
    grads["br"] += dpre_r
    dx += dpre_r @ params["wr"].T
    dh += dpre_r @ params["ur"].T
    return dx, dh


def temporal_forward(graph_inputs: list[tuple[np.ndarray, np.ndarray]], gcn_params: dict,
                     gru_params: dict) -> tuple[float, dict]:
    """Probability for one sequence of (normalized adjacency, features) pairs."""
    hidden = gru_params["w_out"].shape[0]
    h = np.zeros(hidden)
    enc_caches, step_caches, embeddings = [], [], []
    for a_hat, x in graph_inputs:
        z_emb, enc_cache = gcn_embed(a_hat, x, gcn_params)
        h, step_cache = gru_step(z_emb, h, gru_params)
        embeddings.append(z_emb)
        enc_caches.append(enc_cache)
        step_caches.append(step_cache)
    logit = float(h @ gru_params["w_out"][:, 0] + gru_params["b_out"][0])
    prob = float(tz.sigmoid(np.array([logit]))[0])
    cache = {"enc": enc_caches, "steps": step_caches, "h_final": h,
             "embeddings": embeddings, "logit": logit}
    return prob, cache


def temporal_backward(dlogit: float, cache: dict, gcn_params: dict,
                      gru_params: dict) -> tuple[dict, dict]:
    """Backward through head, time, and every shared encoder.

    Returns (gcn_grads, gru_grads) for one sequence. The two parameter
    dicts may be one dict holding both groups.
    """
    gru_grads = {name: np.zeros_like(gru_params[name]) for name in GRU_TENSORS}
    gcn_grads = {name: np.zeros_like(gcn_params[name])
                 for name in ("w1", "b1", "w2", "b2")}

    h_final = cache["h_final"]
    gru_grads["w_out"] = dlogit * h_final[:, None]
    gru_grads["b_out"] = np.array([dlogit])
    dh = dlogit * gru_params["w_out"][:, 0]

    for enc_cache, step_cache in zip(reversed(cache["enc"]), reversed(cache["steps"])):
        dx, dh = gru_step_backward(dh, step_cache, gru_params, gru_grads)
        step_grads = gcn_embed_backward(dx, enc_cache, gcn_params)
        for name, g in step_grads.items():
            gcn_grads[name] += g
    return gcn_grads, gru_grads
