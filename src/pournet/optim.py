"""Masked mean-squared-error loss and the Adam optimizer.

Both are pure value-in/value-out transformations; the caller owns the
sequencing of optimizer steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .network import tree_leaves, tree_map, zeros_like_params


class NonFiniteGradientError(ArithmeticError):
    """A gradient leaf contains NaN or infinity; the message names it."""


def mse_loss(pred, target, mask):
    """Masked MSE over real timesteps; returns (loss, dloss/dpred).

    loss = sum(mask * (pred - target)^2) / sum(mask); padded cells get a
    zero gradient and do not dilute the average. The sum runs over the
    extracted masked-in cells so its value does not depend on how much
    padding surrounds them.
    """
    pred = np.asarray(pred, dtype=np.float64)
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
    loss = float(np.sum(picked * picked) / count)
    grad = 2.0 * mask * diff / count
    return loss, grad


@dataclass
class AdamState:
    """First/second-moment accumulators plus the step counter."""

    m: object  # same tree structure as the parameters
    v: object
    t: int = 0
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params, lr: float = 0.01, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(m=zeros_like_params(params), v=zeros_like_params(params),
                     t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, params, grads):
    """One Adam update; returns (new state, new params), inputs untouched."""
    for path, g in tree_leaves(grads):
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(f"non-finite gradient at {path}")
    t_new = state.t + 1
    b1, b2 = state.beta1, state.beta2
    m_new = tree_map(lambda m, g: b1 * m + (1.0 - b1) * g, state.m, grads)
    v_new = tree_map(lambda v, g: b2 * v + (1.0 - b2) * g * g, state.v, grads)
    bc1 = 1.0 - b1 ** t_new
    bc2 = 1.0 - b2 ** t_new
    lr, eps = state.lr, state.eps
    params_new = tree_map(
        lambda p, m, v: p - lr * (m / bc1) / (np.sqrt(v / bc2) + eps),
        params, m_new, v_new)
    return replace(state, m=m_new, v=v_new, t=t_new), params_new
