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
first. The encoder runs once over the G graphs. The GRU stacks its gates:
one GEMM x [Wz|Wr|Wn] projects the inputs of all k steps, each step adds
h [Uz|Ur] and (r * h) Un in preallocated (k, S, .) arrays, and the gate
tensors' gradients are GEMMs over all k steps after the backward time loop.
Nothing here scans for NaN/Inf; the loss, ``adam_step`` and the scored
probabilities raise ``NumericalError`` on non-finite values.
"""

from __future__ import annotations

import numpy as np

from .. import tensor as tz
from .gcn import gcn_embed, gcn_embed_backward

__all__ = ["init_gru", "gru_forward", "gru_backward", "gru_step", "gru_step_backward",
           "temporal_forward", "temporal_backward"]


def init_gru(rng: np.random.Generator, input_dim: int, hidden: int = 64) -> dict[str, np.ndarray]:
    params = {}
    for gate in ("z", "r", "n"):
        params[f"w{gate}"] = tz.glorot_uniform(rng, input_dim, hidden)
        params[f"u{gate}"] = tz.glorot_uniform(rng, hidden, hidden)
        params[f"b{gate}"] = np.zeros(hidden)
    params["w_out"] = tz.glorot_uniform(rng, hidden, 1)
    params["b_out"] = np.zeros(1)
    return params


def gru_step(xw: np.ndarray, h: np.ndarray, u_zr: np.ndarray, un: np.ndarray,
             gates: np.ndarray, rh: np.ndarray, h_new: np.ndarray) -> None:
    """One recurrence step of S sequences. ``xw`` (S, 3 hidden) is the step's
    input projection x [Wz|Wr|Wn] + [bz|br|bn] and ``h`` (S, hidden) the state
    before it; fills ``gates`` with z | r | n, ``rh`` with r * h and ``h_new``
    with the state after it."""
    hid = h.shape[-1]
    zr, n = gates[:, :2 * hid], gates[:, 2 * hid:]
    np.matmul(h, u_zr, out=zr)
    zr += xw[:, :2 * hid]
    tz.sigmoid(zr, out=zr)
    z, r = zr[:, :hid], zr[:, hid:]
    np.multiply(r, h, out=rh)
    np.matmul(rh, un, out=n)
    n += xw[:, 2 * hid:]
    np.tanh(n, out=n)
    np.multiply(1.0 - z, n, out=h_new)
    h_new += z * h


def gru_step_backward(dh_new: np.ndarray, h: np.ndarray, gates: np.ndarray,
                      u_zr: np.ndarray, un: np.ndarray, dpre: np.ndarray) -> np.ndarray:
    """Backward through one step, given d loss / d new state: fills ``dpre``
    (S, 3 hidden) with d loss / d the pre-activations of z | r | n and
    returns d loss / d ``h``."""
    hid = h.shape[-1]
    z, r, n = gates[:, :hid], gates[:, hid:2 * hid], gates[:, 2 * hid:]
    dpre_n = dpre[:, 2 * hid:]
    np.multiply(dh_new * (1.0 - z), 1.0 - n * n, out=dpre_n)
    drh = dpre_n @ un.T
    np.multiply(dh_new * (h - n) * z, 1.0 - z, out=dpre[:, :hid])
    np.multiply(drh * h * r, 1.0 - r, out=dpre[:, hid:2 * hid])
    return dh_new * z + drh * r + dpre[:, :2 * hid] @ u_zr.T


def gru_forward(x: np.ndarray, params: dict) -> tuple[np.ndarray, dict]:
    """Run the GRU over ``x`` (k, S, input), step t reading ``x[t]``, from a
    zero state; returns (final state (S, hidden), cache)."""
    k, s, e = x.shape
    hid = params["un"].shape[0]
    w = np.concatenate((params["wz"], params["wr"], params["wn"]), axis=1)
    b = np.concatenate((params["bz"], params["br"], params["bn"]))
    u_zr = np.concatenate((params["uz"], params["ur"]), axis=1)
    xw = (x.reshape(-1, e) @ w + b).reshape(k, s, 3 * hid)
    hs = np.zeros((k + 1, s, hid))  # hs[t]: the state before step t
    gates, rh = np.empty((k, s, 3 * hid)), np.empty((k, s, hid))
    for t in range(k):
        gru_step(xw[t], hs[t], u_zr, params["un"], gates[t], rh[t], hs[t + 1])
    return hs[k], {"x": x, "w": w, "u_zr": u_zr, "hs": hs, "gates": gates, "rh": rh}


def gru_backward(dh: np.ndarray, cache: dict, params: dict, grads: dict) -> np.ndarray:
    """Backward through time, given d loss / d final state: writes the nine
    gate tensors' gradients, summed over the batch, into ``grads`` and
    returns d loss / d ``x`` (k, S, input)."""
    x, hs, gates = cache["x"], cache["hs"], cache["gates"]
    k, s, e = x.shape
    hid = hs.shape[-1]
    dpre = np.empty((k, s, 3 * hid))
    for t in reversed(range(k)):
        dh = gru_step_backward(dh, hs[t], gates[t], cache["u_zr"], params["un"], dpre[t])
    xs, dp = x.reshape(-1, e), dpre.reshape(-1, 3 * hid)
    for g, (gate, h_in) in enumerate(zip("zrn", (hs[:k], hs[:k], cache["rh"]))):
        dp_g = dp[:, g * hid:(g + 1) * hid]
        tz.linear_grads(xs, dp_g, grads[f"w{gate}"], grads[f"b{gate}"])
        np.matmul(h_in.reshape(-1, hid).T, dp_g, out=grads[f"u{gate}"])
    return (dp @ cache["w"].T).reshape(k, s, e)


def temporal_forward(a_hat: np.ndarray, ax: np.ndarray, rows: np.ndarray,
                     params: dict) -> tuple[np.ndarray, dict]:
    """Probabilities of the sequences ``rows`` (S x k) of the graph stacks
    ``a_hat`` and ``ax`` = ``a_hat @ x``: each graph is encoded once and
    sequence s reads graphs ``rows[s]``, oldest first. Returns (probs (S,), cache)."""
    emb, enc_cache = gcn_embed(a_hat, ax, params)
    h, gru_cache = gru_forward(emb[rows.T], params)
    logit = h @ params["w_out"][:, 0] + params["b_out"][0]
    cache = {"enc": enc_cache, "gru": gru_cache, "h_final": h, "rows": rows, "n_emb": len(emb)}
    return tz.sigmoid(logit), cache


def temporal_backward(dlogit: np.ndarray, cache: dict, params: dict, grads: dict) -> None:
    """Backward through head, time, and every shared encoder: the gradients
    of the encoder and GRU tensors, summed over the batch, written into
    ``grads`` (see ``gcn_backward``)."""
    d = np.asarray(dlogit, dtype=np.float64)[..., None]
    tz.linear_grads(cache["h_final"], d, grads["w_out"], grads["b_out"])
    dx = gru_backward(d * params["w_out"][:, 0], cache["gru"], params, grads)
    dz = tz.scatter_rows(dx, cache["rows"].T, cache["n_emb"])
    gcn_embed_backward(dz, cache["enc"], params, grads)
