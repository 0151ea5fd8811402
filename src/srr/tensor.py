"""Dense float64 kernel: linear-map gradients, sigmoid, losses, Adam, seeded RNG.

The feature axis is last and every axis before it is a batch axis, e.g.
G x N x F node-feature stacks; an unbatched call has no leading axes. The
models write a linear map as ``x @ w + b``, which NumPy runs as one GEMM per
N x F matrix of a stack, and :func:`linear_grads` does the same: never one
GEMM over the stack reshaped to (G*N) x F. OpenBLAS hands a
GEMM of more than 2^18 multiply-adds to its thread pool, and at mini-batch
sizes waking the pool costs more than the arithmetic (reshaped, temporal
training on 44 tickers burned 1.7-1.9 CPU seconds per wall second on two
cores, and took longer). Gradients can be written into the views of one
flat vector (:func:`flatten`), which :func:`adam_step` reads to update one
flat parameter vector in place. Nothing on this hot path scans for NaN/Inf;
non-finite values raise NumericalError at the losses, :func:`adam_step`
and ``training.predict_scores``. The checked 2-D :func:`matmul` and
:func:`add` have no caller in the models.

All randomness in the toolkit flows through :func:`seeded_rng`, which is
backed by the counter-based Philox generator, so any consumer that records
its seed (and stream labels) is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError

# Probabilities are clamped to this range inside the losses before any log.
PROB_EPS = 1e-7

__all__ = [
    "as_matrix",
    "matmul",
    "add",
    "weight_grad",
    "linear_grads",
    "scatter_rows",
    "sigmoid",
    "bce_loss",
    "focal_loss",
    "flatten",
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


def weight_grad(x: np.ndarray, dy: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d loss / dW of ``x @ W`` given d loss / d output, summed over every
    leading axis: ``x^T dy`` for a matrix; for a stack, one ``x_g^T dy_g``
    GEMM per matrix g, then a sum over g. Written into ``out`` when given."""
    if x.ndim <= 2:
        return np.matmul(x.reshape(-1, x.shape[-1]).T, dy.reshape(-1, dy.shape[-1]), out=out)
    xs = x.reshape((-1,) + x.shape[-2:])
    return np.sum(np.swapaxes(xs, -1, -2) @ dy.reshape(xs.shape[:-1] + (-1,)), axis=0, out=out)


def linear_grads(x: np.ndarray, dy: np.ndarray, dw: np.ndarray | None = None,
                 db: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(dW, db) of ``x @ W + b`` given d loss / d output, summed over every
    leading axis (see :func:`weight_grad`). Written into ``dw`` and ``db``
    when given."""
    return weight_grad(x, dy, dw), np.sum(dy.reshape(-1, dy.shape[-1]), axis=0, out=db)


def scatter_rows(d: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Backward of the gather ``a[rows]`` for an ``a`` with ``n`` rows: each
    gathered row's gradient is added into its source row."""
    out = np.zeros((n,) + d.shape[rows.ndim:])
    np.add.at(out, rows, d)
    return out


# -- activations --------------------------------------------------------

def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, 1 / (1 + e) for x >= 0 and
    e / (1 + e) below, e = exp(-|x|): exp never overflows. Like any float64
    form it returns 0.0 for finite x <= -746, where exp(x) underflows.
    Written into ``out`` when given, which may be ``x`` itself."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0.0, 1.0, e), 1.0 + e, out=out)


# -- losses --------------------------------------------------------------

def _check_loss_args(probs, targets) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if p.shape != y.shape:
        raise ShapeError(f"loss: predictions {p.shape} vs targets {y.shape}")
    if p.size == 0:
        raise ShapeError("loss: empty batch")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise NumericalError("loss: targets must be exactly 0 or 1")
    if not np.isfinite(p).all():
        raise NumericalError("loss: non-finite predictions")
    return p, y


def bce_loss(probs, targets) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over the batch.

    Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before the logs.
    Returns (loss, gradient w.r.t. the pre-sigmoid logits), the gradient
    being (p - y) / batch.
    """
    p, y = _check_loss_args(probs, targets)
    pc = np.minimum(np.maximum(p, PROB_EPS), 1.0 - PROB_EPS)
    loss = -float((y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).sum() / p.size)
    if not math.isfinite(loss):
        raise NumericalError("bce_loss produced non-finite values")
    return loss, (p - y) / p.size


def focal_loss(probs, targets, gamma: float = 2.0) -> tuple[float, np.ndarray]:
    """Mean focal loss with the symmetric negative-class term.

    loss_i = -(1-p)^gamma * y * log(p) - p^gamma * (1-y) * log(1-p)

    gamma = 0 recovers bce_loss, its gradient bit for bit inside the clamp.
    Returns (loss, gradient w.r.t. the pre-sigmoid logits).
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
    pos = gamma * pc * (1.0 - pc) ** gamma * np.log(pc) - (1.0 - pc) ** (gamma + 1.0)
    neg = -gamma * (pc ** gamma) * (1.0 - pc) * np.log(1.0 - pc) + pc ** (gamma + 1.0)
    dlogits = (y * pos + (1.0 - y) * neg) / n
    _finite("focal_loss", dlogits)
    return loss, dlogits


# -- Adam ----------------------------------------------------------------

def flatten(params: dict) -> tuple[np.ndarray, dict]:
    """Copy a dict of named float64 arrays into one vector, in key order;
    returns (vector, dict of views into it with the same names and shapes)."""
    theta = np.concatenate([np.ravel(v) for v in params.values()])
    views, start = {}, 0
    for name, v in params.items():
        views[name] = theta[start:start + v.size].reshape(v.shape)
        start += v.size
    return theta, views


@dataclass
class AdamState:
    """Step count, moments and scratch for one flat parameter vector made of
    the named tensors ``sizes`` (name -> element count, in vector order)."""

    sizes: dict[str, int]
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0

    def __post_init__(self):
        n = sum(self.sizes.values())
        self.m, self.v, self.scratch = np.zeros(n), np.zeros(n), np.empty((2, n))


def adam_step(theta: np.ndarray, g: np.ndarray, state: AdamState) -> None:
    """One Adam update of the flat vector ``theta``, in place, given its gradient ``g``.

    Uses the bias-corrected update theta -= lr * m_hat / (sqrt(v_hat) + eps);
    the moments inside ``state`` advance in place. A non-finite update raises
    NumericalError naming the first tensor it hits, before ``theta`` changes.
    """
    if theta.shape != g.shape or theta.shape != state.m.shape:
        raise ShapeError(f"adam_step: parameters {theta.shape}, gradient {g.shape}, "
                         f"moments {state.m.shape}")
    state.t += 1
    b1, b2, m, v = state.beta1, state.beta2, state.m, state.v
    step, s = state.scratch
    m *= b1
    np.multiply(g, 1.0 - b1, out=s)
    m += s
    v *= b2
    np.multiply(g, g, out=s)
    s *= 1.0 - b2
    v += s
    np.divide(m, 1.0 - b1 ** state.t, out=step)  # m_hat
    step *= state.lr
    np.divide(v, 1.0 - b2 ** state.t, out=s)  # v_hat
    np.sqrt(s, out=s)
    s += state.eps
    step /= s
    np.subtract(theta, step, out=s)
    if not np.isfinite(s).all():
        first = np.flatnonzero(~np.isfinite(s))[0]
        ends = np.cumsum(list(state.sizes.values()))
        name = list(state.sizes)[np.searchsorted(ends, first, side="right")]
        raise NumericalError(f"adam_step[{name}] produced non-finite values")
    theta[...] = s


# -- randomness ----------------------------------------------------------

def seeded_rng(seed: int, *streams: int) -> np.random.Generator:
    """Deterministic counter-based generator for (seed, stream...) labels.

    Distinct stream labels give independent, reproducible streams; the same
    labels always give the same stream.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, streams)])))


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Fan-based uniform init on [-a, a], a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))
