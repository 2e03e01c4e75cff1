"""Masked mean-squared-error loss and the Adam optimizer.

Both are pure value-in/value-out transformations; the caller owns the
sequencing of optimizer steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .network import NetworkParams

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam defaults, Kingma & Ba 1412.6980


class NonFiniteGradientError(ArithmeticError):
    """A gradient leaf contains NaN or infinity; the message names it."""


def mse_loss(pred, target, mask):
    """Masked MSE over real timesteps; returns (loss, dloss/dpred).

    loss = sum(mask * (pred - target)^2) / sum(mask); padded cells get a
    zero gradient and do not dilute the average. The sum runs over the
    extracted masked-in cells so its value does not depend on how much
    padding surrounds them. A complex pred, a complex-step probe, stays
    complex and so does the loss; real inputs are cast to float64.
    """
    pred = np.asarray(pred, dtype=np.complex128 if np.iscomplexobj(pred)
                      else np.float64)
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, "
                         f"target {target.shape}, mask {mask.shape}")
    selected = mask != 0.0
    if np.any(mask[selected] != 1.0):
        raise ValueError("mask entries must be 0 or 1")
    count = int(np.count_nonzero(selected))
    if count == 0:
        raise ValueError("mask must select at least one element")
    diff = pred - target
    picked = diff[selected]
    loss = (np.sum(picked * picked) / count).item()
    grad = 2.0 * mask * diff / count
    return loss, grad


@dataclass
class AdamState:
    """First/second-moment vectors plus the step counter."""

    m: np.ndarray  # shaped like the parameter vector
    v: np.ndarray
    t: int = 0
    lr: float = 0.01


def init_adam(params: NetworkParams, lr: float = 0.01) -> AdamState:
    return AdamState(m=np.zeros_like(params.vector),
                     v=np.zeros_like(params.vector), t=0, lr=lr)


def adam_step(state: AdamState, params: NetworkParams, grads: NetworkParams):
    """One Adam update; returns (new state, new params), inputs untouched.

    params and grads are NetworkParams of one layout; the update is a few
    ufuncs on the whole vector.
    """
    if not (isinstance(grads, NetworkParams) and grads.layout == params.layout):
        raise ValueError("gradients do not have the parameters' layout")
    g = grads.vector
    # a finite sum of squares proves every entry finite; only a NaN, an
    # infinity or an overflow of the sum sends the scan through the leaves
    if not np.isfinite(np.vdot(g, g)):
        for path, leaf in grads.leaves:
            if not np.isfinite(leaf).all():
                raise NonFiniteGradientError(f"non-finite gradient at {path}")
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * g
    v = BETA2 * state.v + (1.0 - BETA2) * g * g
    bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    p = params.vector - state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return replace(state, m=m, v=v, t=t), NetworkParams(params.layout, p)
