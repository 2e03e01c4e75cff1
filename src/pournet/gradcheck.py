"""Complex-step verification harness for the recurrent stack.

Builds a small random network and batch, runs exact BPTT against the
complex-step oracle, and reports the worst elementwise relative error.
The oracle differentiates mse_loss itself, the loss training uses,
which keeps a complex probe's imaginary part. This is the primary
correctness check for the backward pass.
"""

from __future__ import annotations

import numpy as np

from .data import PaddedBatch
from .network import (NetworkConfig, init_params, network_backward,
                      network_forward, numerical_gradient)
from .optim import mse_loss


def max_relative_error(analytic, numeric, floor: float = 1e-8) -> float:
    """Worst |a - n| / max(|a|, |n|, floor) over all parameter entries."""
    a, n = analytic.vector, numeric.vector
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def random_batch(rng, num_steps: int, batch_size: int, num_features: int,
                 lengths=None) -> PaddedBatch:
    """Random normalized-looking batch with a genuine padding pattern."""
    if lengths is None:
        lengths = rng.integers(max(1, num_steps - 2), num_steps + 1,
                               size=batch_size)
        lengths[rng.integers(batch_size)] = num_steps  # keep T_max honest
    lengths = np.asarray(lengths, dtype=np.int64)
    mask = (np.arange(num_steps)[:, None] < lengths[None, :]).astype(np.float64)
    inputs = rng.standard_normal((num_steps, batch_size, num_features))
    targets = rng.standard_normal((num_steps, batch_size))
    inputs *= mask[:, :, None]
    targets *= mask
    return PaddedBatch(inputs=inputs, targets=targets, mask=mask,
                       lengths=lengths)


def check_network_gradients(cell_kind, output_activation: str, seed: int,
                            epsilon: float = 1e-30, layer_widths=(3, 3),
                            num_steps: int = 4, batch_size: int = 2,
                            input_width: int = 3) -> float:
    """Max relative BPTT-vs-complex-step error for one variant, over
    a random batch and over the same lengths under two trailing
    all-padding steps."""
    config = NetworkConfig(cell_kind=cell_kind, layer_widths=layer_widths,
                           dropout_rate=0.0, dropout_after_layers=(),
                           output_activation=output_activation,
                           input_width=input_width)
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, num_steps, batch_size, input_width)
    padded = random_batch(rng, num_steps + 2, batch_size, input_width,
                          lengths=batch.lengths)
    params = init_params(config, seed)
    worst = 0.0
    for b in (batch, padded):
        preds, cache = network_forward(params, config, b, mode="eval")
        _, dpred = mse_loss(preds, b.targets, b.mask)
        analytic = network_backward(params, config, cache, dpred, b.mask)
        numeric = numerical_gradient(
            params, lambda p: mse_loss(network_forward(p, config, b)[0],
                                       b.targets, b.mask)[0], epsilon)
        worst = max(worst, max_relative_error(analytic, numeric))
    return worst
