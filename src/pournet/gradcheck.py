"""Complex-step verification harness for the recurrent stack.

Builds a small random network and batch, runs exact BPTT against the
complex-step oracle, and reports the worst elementwise relative error.
The oracle differentiates mse_loss itself, the loss training uses,
which keeps a complex probe's imaginary part. This is the primary
correctness check for the backward pass.

At full scale (the default 4x16 stack, a padded [50, 32] batch, train
mode) one probe per parameter is too slow, so the check there compares
the gradient along one direction d per layer, each with one complex
forward: Im loss(p + i h d) / h = vdot(grad, d) (Squire & Trapp, SIAM
Review 40(1), 1998). Both sides are linear in d, so the layers' checks
also check any direction of the whole arena.
"""

from __future__ import annotations

import numpy as np

from .data import PaddedBatch
from .network import (COMPLEX_STEP, NetworkConfig, NetworkParams, init_params,
                      network_backward, network_forward, numerical_gradient)
from .optim import mse_loss

ERROR_FLOOR = 1e-8  # least denominator of a relative gradient error
LAYER_WIDTHS, INPUT_WIDTH = (3, 3), 3  # check_network_gradients' toy stack
NUM_STEPS, BATCH_SIZE = 4, 2  # and its batch: 2 sequences of at most 4 steps


def max_relative_error(analytic, numeric) -> float:
    """Worst |a - n| / max(|a|, |n|, ERROR_FLOOR) over all parameter entries."""
    a, n = analytic.vector, numeric.vector
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), ERROR_FLOOR)
    return float(np.max(np.abs(a - n) / denom))


def random_batch(rng, num_steps: int, batch_size: int, num_features: int,
                 lengths=None) -> PaddedBatch:
    """Random normalized-looking batch with a genuine padding pattern."""
    if lengths is None:
        lengths = rng.integers(max(1, num_steps - 2), num_steps + 1,
                               size=batch_size)
        lengths[rng.integers(batch_size)] = num_steps  # keep T_max honest
    lengths = np.asarray(lengths, dtype=np.int64)
    real = np.arange(num_steps)[:, None] < lengths
    inputs = rng.standard_normal((num_steps, batch_size, num_features))
    targets = rng.standard_normal((num_steps, batch_size))
    inputs *= real[:, :, None]
    targets *= real
    return PaddedBatch(inputs=inputs, targets=targets, lengths=lengths)


def check_network_gradients(cell_kind, output_activation: str, seed: int,
                            epsilon: float = COMPLEX_STEP) -> float:
    """Max relative BPTT-vs-complex-step error for one variant on the toy
    stack, over a random batch and over the same lengths under two
    trailing all-padding steps."""
    config = NetworkConfig(cell_kind=cell_kind, layer_widths=LAYER_WIDTHS,
                           dropout_rate=0.0, dropout_after_layers=(),
                           output_activation=output_activation,
                           input_width=INPUT_WIDTH)
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, NUM_STEPS, BATCH_SIZE, INPUT_WIDTH)
    padded = random_batch(rng, NUM_STEPS + 2, BATCH_SIZE, INPUT_WIDTH,
                          lengths=batch.lengths)
    params = init_params(config, seed)
    worst = 0.0
    for b in (batch, padded):
        preds, cache = network_forward(params, config, b, mode="train")
        _, dpred = mse_loss(preds, b.targets, b.mask)
        analytic = network_backward(params, config, cache, dpred, b.mask)
        numeric = numerical_gradient(
            params, lambda p: mse_loss(network_forward(p, config, b)[0],
                                       b.targets, b.mask)[0], epsilon)
        worst = max(worst, max_relative_error(analytic, numeric))
    return worst


def directional_gradient_error(params, loss_fn, grads, direction,
                               epsilon: float = COMPLEX_STEP) -> float:
    """Relative error of vdot(grads, direction) against the complex-step
    directional derivative Im loss_fn(params + i epsilon direction) /
    epsilon, over max(|both|, ERROR_FLOOR) as in max_relative_error. params
    is not modified."""
    probe = NetworkParams(params.layout,
                          params.vector + 1j * epsilon * direction)
    numeric = float(np.imag(loss_fn(probe))) / epsilon
    analytic = float(np.vdot(grads.vector, direction))
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric),
                                         ERROR_FLOOR)


def _layer_of(leaf: str) -> str:
    """"layers[i]" for a recurrent layer's leaf, "head" for w_out and b_out."""
    return leaf.split(".")[0] if leaf.startswith("layers") else "head"


def full_scale_gradient_errors(cell_kind, output_activation: str, seed: int,
                               epsilon: float = COMPLEX_STEP) -> dict:
    """Directional BPTT-vs-complex-step errors on the default stack.

    The stack is NetworkConfig's default (4 layers of 16, dropout after
    layers 2 and 4), its weights moved off init by N(0, 0.05^2) noise, in
    train mode under dropout masks fixed by a fresh rng per forward. The
    batch is [50, 32] with lengths 20-48, so it has padded steps and two
    all-padding ones. Returns {"layers[i]" or "head": the error along one
    random direction within that layer's parameters}.
    """
    config = NetworkConfig(cell_kind=cell_kind,
                           output_activation=output_activation)
    rng = np.random.default_rng(seed)
    params = init_params(config, seed)
    params.vector += rng.normal(0.0, 0.05, params.vector.size)
    lengths = rng.integers(20, 49, size=32)
    lengths[0] = 48
    batch = random_batch(rng, 50, 32, config.input_width, lengths=lengths)

    def forward(p):
        return network_forward(p, config, batch, mode="train",
                               rng=np.random.default_rng(seed))

    def loss(p):
        return mse_loss(forward(p)[0], batch.targets, batch.mask)[0]

    preds, cache = forward(params)
    _, dpred = mse_loss(preds, batch.targets, batch.mask)
    grads = network_backward(params, config, cache, dpred, batch.mask)
    errors = {}
    for layer in dict.fromkeys(_layer_of(name) for name, _ in params.layout):
        direction = NetworkParams(params.layout)
        for name, view in direction.leaves:
            if _layer_of(name) == layer:
                view[...] = rng.standard_normal(view.shape)
        errors[layer] = directional_gradient_error(params, loss, grads,
                                                   direction.vector, epsilon)
    return errors
