"""Dense float64 kernel: batched linear maps, activations, losses, Adam, seeded RNG.

The feature axis is last and every axis before it is a batch axis, e.g.
B x k x N x F node features: :func:`linear` and :func:`linear_grads` run one
GEMM over all of them, and an unbatched call has no leading axes. Nothing on
this hot path scans for NaN/Inf; non-finite values raise NumericalError at
the losses, :func:`adam_step` and ``training.predict_scores``. The checked
2-D :func:`matmul` and :func:`add` have no caller in the models.

All randomness in the toolkit flows through :func:`seeded_rng`, which is
backed by the counter-based Philox generator, so any consumer that records
its seed (and stream labels) is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError

# Probabilities are clamped to this range inside the losses before any log.
PROB_EPS = 1e-7

__all__ = [
    "as_matrix",
    "matmul",
    "add",
    "linear",
    "linear_grads",
    "scatter_rows",
    "relu",
    "relu_grad",
    "sigmoid",
    "tanh",
    "bce_loss",
    "focal_loss",
    "AdamState",
    "adam_step",
    "seeded_rng",
    "glorot_uniform",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D C-contiguous float64 array, rejecting other ranks."""
    arr = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got array of shape {arr.shape}")
    return arr


def _finite(name: str, out: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"{name} produced non-finite values")
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    return _finite("matmul", a @ b)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum; shapes must conform under broadcasting rules."""
    a, b = as_matrix(a), as_matrix(b)
    try:
        out = a + b
    except ValueError:
        raise ShapeError(f"add: shapes do not conform, {a.shape} + {b.shape}") from None
    return _finite("add", out)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``x @ w (+ b)`` over the last axis of ``x`` (..., F) -> (..., H), as one GEMM."""
    out = x.reshape(-1, x.shape[-1]) @ w
    if b is not None:
        out += b
    return out.reshape(x.shape[:-1] + (w.shape[1],))


def linear_grads(x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dW, db) of :func:`linear` given d loss / d output, summed over every
    leading axis by one reshape-and-matmul."""
    d = dy.reshape(-1, dy.shape[-1])
    return x.reshape(-1, x.shape[-1]).T @ d, d.sum(axis=0)


def scatter_rows(d: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Backward of the gather ``a[rows]`` for an ``a`` with ``n`` rows: each
    gathered row's gradient is added into its source row."""
    out = np.zeros((n,) + d.shape[rows.ndim:])
    np.add.at(out, rows, d)
    return out


# -- activations --------------------------------------------------------

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative w.r.t. the pre-activation; the kink at 0 takes the 0 branch."""
    return (np.asarray(x, dtype=np.float64) > 0.0).astype(np.float64)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: exp only ever sees -|x|, so it never
    overflows. Like any float64 form it returns 0.0 for finite x <= -746, where
    exp(x) underflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(np.asarray(x, dtype=np.float64))


# -- losses --------------------------------------------------------------

def _check_loss_args(probs, targets) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if p.shape != y.shape:
        raise ShapeError(f"loss: predictions {p.shape} vs targets {y.shape}")
    if p.size == 0:
        raise ShapeError("loss: empty batch")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise NumericalError("loss: targets must be exactly 0 or 1")
    if not np.all(np.isfinite(p)):
        raise NumericalError("loss: non-finite predictions")
    return p, y


def bce_loss(probs, targets) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over the batch.

    Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before the logs.
    Returns (loss, gradient w.r.t. the pre-sigmoid logits), the gradient
    being (p - y) / batch.
    """
    p, y = _check_loss_args(probs, targets)
    pc = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    loss = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
    dlogits = (p - y) / p.size
    return _finite("bce_loss", np.asarray(loss)).item(), dlogits


def focal_loss(probs, targets, gamma: float = 2.0) -> tuple[float, np.ndarray]:
    """Mean focal loss with the symmetric negative-class term.

    loss_i = -(1-p)^gamma * y * log(p) - p^gamma * (1-y) * log(1-p)

    gamma = 0 recovers bce_loss exactly. Returns (loss, gradient w.r.t.
    the pre-sigmoid logits).
    """
    if gamma < 0:
        raise NumericalError(f"focal_loss: gamma must be >= 0, got {gamma}")
    p, y = _check_loss_args(probs, targets)
    pc = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    n = p.size
    loss = float(
        np.mean(
            -((1.0 - pc) ** gamma) * y * np.log(pc)
            - (pc ** gamma) * (1.0 - y) * np.log(1.0 - pc)
        )
    )
    # d/dlogit of each term, written with non-negative exponents only so the
    # clamped endpoints stay finite for every gamma >= 0.
    if gamma == 0.0:
        dlogits = (pc - y) / n
    else:
        pos = gamma * pc * (1.0 - pc) ** gamma * np.log(pc) - (1.0 - pc) ** (gamma + 1.0)
        neg = -gamma * (pc ** gamma) * (1.0 - pc) * np.log(1.0 - pc) + pc ** (gamma + 1.0)
        dlogits = (y * pos + (1.0 - y) * neg) / n
    _finite("focal_loss", dlogits)
    return loss, dlogits


# -- Adam ----------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moments, flat over a parameter dict's tensors in key order."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """One Adam update of a dict of named float64 arrays, made on their concatenation.

    Returns new parameter arrays (inputs are not mutated); the moment
    estimates inside ``state`` advance in place. Uses the bias-corrected
    update theta -= lr * m_hat / (sqrt(v_hat) + eps).
    """
    missing = set(params) ^ set(grads)
    if missing:
        raise ShapeError(f"adam_step: params/grads key mismatch: {sorted(missing)}")
    for name in params:
        if params[name].shape != grads[name].shape:
            raise ShapeError(f"adam_step: gradient shape {grads[name].shape} does not match "
                             f"parameter {name} of shape {params[name].shape}")
    theta = np.concatenate([np.ravel(params[k]) for k in params])
    g = np.concatenate([np.ravel(grads[k]) for k in params])
    if state.m is None:
        state.m = state.v = np.zeros_like(theta)  # both are rebound, never written in place
    elif state.m.shape != theta.shape:
        raise ShapeError(f"adam_step: {theta.size} parameters, moments hold {state.m.size}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    state.m = b1 * state.m + (1.0 - b1) * g
    state.v = b2 * state.v + (1.0 - b2) * (g * g)
    m_hat = state.m / (1.0 - b1 ** state.t)
    v_hat = state.v / (1.0 - b2 ** state.t)
    new = theta - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    ends = np.cumsum([params[k].size for k in params])
    bad = np.flatnonzero(~np.isfinite(new))
    if bad.size:
        name = list(params)[np.searchsorted(ends, bad[0], side="right")]
        raise NumericalError(f"adam_step[{name}] produced non-finite values")
    return {k: part.reshape(params[k].shape)
            for k, part in zip(params, np.split(new, ends[:-1]))}


# -- randomness ----------------------------------------------------------

def seeded_rng(seed: int, *streams: int) -> np.random.Generator:
    """Deterministic counter-based generator for (seed, stream...) labels.

    Distinct stream labels give independent, reproducible streams; the same
    labels always give the same stream.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, streams)])))


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Fan-based uniform init on [-a, a], a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-a, a, size=shape)
