"""Masked MSE loss and Adam update behavior."""

import numpy as np
import pytest

from pournet.gradcheck import random_batch
from pournet.network import NetworkConfig, NetworkParams, init_params
from pournet.optim import (BETA1, BETA2, EPS, NonFiniteGradientError,
                           adam_step, init_adam, mse_loss)


def arena(values):
    """A copy of values as the vector of a head-only arena (w_out, b_out),
    the smallest layout NetworkParams holds."""
    values = np.array(values, dtype=np.float64)
    return NetworkParams((("w_out", (1, values.size - 1)), ("b_out", (1,))),
                         values)


class TestMSELoss:
    def test_perfect_prediction(self):
        loss, grad = mse_loss([1.0, 2.0], [1.0, 2.0], [1.0, 1.0])
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_single_element(self):
        loss, grad = mse_loss([0.0], [2.0], [1.0])
        assert loss == 4.0
        assert grad.tolist() == [-4.0]

    def test_padded_cell_ignored(self):
        loss, grad = mse_loss([0.0, 9.0], [2.0, 0.0], [1.0, 0.0])
        assert loss == 4.0
        assert grad[1] == 0.0

    def test_all_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            mse_loss([1.0], [2.0], [0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(4))

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValueError):
            mse_loss([1.0], [0.0], [0.5])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        pred = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 3))
        mask = (rng.random((4, 3)) < 0.7).astype(np.float64)
        mask[0, 0] = 1.0
        _, grad = mse_loss(pred, target, mask)
        eps = 1e-6
        for idx in np.ndindex(pred.shape):
            bumped = pred.copy()
            bumped[idx] += eps
            up = mse_loss(bumped, target, mask)[0]
            bumped[idx] -= 2 * eps
            down = mse_loss(bumped, target, mask)[0]
            assert abs((up - down) / (2 * eps) - grad[idx]) < 1e-8

    def test_complex_step_recovers_directional_derivative(self):
        """On a padded batch, Im loss(pred + i h d) / h is the gradient's
        dot product with d, so the complex-step oracle differentiates
        this very loss."""
        rng = np.random.default_rng(3)
        batch = random_batch(rng, 7, 5, 2)
        assert not batch.mask.all()
        pred = rng.standard_normal(batch.targets.shape)
        direction = rng.standard_normal(pred.shape)
        loss, grad = mse_loss(pred, batch.targets, batch.mask)
        probe, _ = mse_loss(pred + 1e-30j * direction, batch.targets,
                            batch.mask)
        assert type(loss) is float and type(probe) is complex
        assert probe.real == loss
        assert probe.imag / 1e-30 == pytest.approx(np.vdot(grad, direction),
                                                   rel=1e-12, abs=1e-12)

    def test_residual_scaling_by_two_is_exact(self):
        rng = np.random.default_rng(1)
        target = rng.standard_normal(16)
        resid = rng.standard_normal(16)
        mask = np.ones(16)
        base, _ = mse_loss(target + resid, target, mask)
        scaled, _ = mse_loss(target + 2.0 * resid, target, mask)
        assert scaled == 4.0 * base

    def test_residual_scaling_general(self):
        rng = np.random.default_rng(2)
        target = rng.standard_normal(16)
        resid = rng.standard_normal(16)
        mask = np.ones(16)
        base, _ = mse_loss(target + resid, target, mask)
        scaled, _ = mse_loss(target + 3.0 * resid, target, mask)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)


class TestAdamStep:
    def test_first_step_closed_form(self):
        params = arena(np.zeros(1))
        state = init_adam(params, lr=0.01)
        grads = arena([0.5])
        state2, params2 = adam_step(state, params, grads)
        # single step collapses to -lr * g / (|g| + eps)
        expected = -0.01 * 0.5 / (0.5 + 1e-8)
        assert params2.vector[0] == pytest.approx(expected, rel=1e-15)
        assert params2.vector[0] == pytest.approx(-0.009999999800000003,
                                                  rel=1e-15)
        assert state2.t == 1

    def test_zero_gradient_keeps_params(self):
        params = arena([1.5, -2.5])
        state = init_adam(params)
        _, params2 = adam_step(state, params, arena(np.zeros(2)))
        assert np.array_equal(params2.vector, params.vector)

    def test_constant_gradient_update_approaches_lr(self):
        params = arena(np.zeros(3))
        state = init_adam(params, lr=0.01)
        grads = arena(np.full(3, 0.3))
        previous = params.vector
        for _ in range(400):
            state, params = adam_step(state, params, grads)
            step = params.vector - previous
            previous = params.vector
        assert np.allclose(np.abs(step), 0.01, rtol=1e-3)

    def test_inputs_untouched(self):
        params = arena([1.0, 2.0])
        state = init_adam(params)
        grads = arena([0.1, -0.2])
        adam_step(state, params, grads)
        assert np.array_equal(params.vector, np.array([1.0, 2.0]))
        assert np.array_equal(grads.vector, np.array([0.1, -0.2]))
        assert np.all(state.m == 0.0) and state.t == 0

    def test_update_opposes_gradient_sign(self):
        rng = np.random.default_rng(3)
        params = arena(rng.standard_normal(32))
        grads = arena(rng.standard_normal(32))
        grads.vector[np.abs(grads.vector) < 1e-3] = 1.0
        state = init_adam(params)
        _, params2 = adam_step(state, params, grads)
        assert np.all(np.sign(params2.vector - params.vector)
                      == -np.sign(grads.vector))

    def test_finite_outputs_for_rough_inputs(self):
        rng = np.random.default_rng(4)
        params = arena(rng.standard_normal(64) * 1e6)
        state = init_adam(params, lr=0.5)
        for k in range(50):
            grads = arena(rng.standard_normal(64) * 10.0 ** rng.integers(-8, 8))
            state, params = adam_step(state, params, grads)
            assert np.all(np.isfinite(params.vector))
            assert np.all(state.v >= 0.0)

    def test_non_finite_gradient_names_path(self):
        config = NetworkConfig(cell_kind="lstm", layer_widths=(3, 3),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="linear", input_width=2)
        params = init_params(config, 0)
        state = init_adam(params)
        grads = NetworkParams(params.layout)
        grads.layers[1].u[0, 9] = np.nan  # candidate block (hidden 3)
        with pytest.raises(NonFiniteGradientError,
                           match=r"layers\[1\]\.u"):
            adam_step(state, params, grads)

    def test_structural_mismatch_rejected(self):
        params = init_params(NetworkConfig(cell_kind="gru",
                                           layer_widths=(3,),
                                           dropout_rate=0.0,
                                           dropout_after_layers=(),
                                           output_activation="linear",
                                           input_width=2), 0)
        other = init_params(NetworkConfig(cell_kind="lstm",
                                          layer_widths=(3,),
                                          dropout_rate=0.0,
                                          dropout_after_layers=(),
                                          output_activation="linear",
                                          input_width=2), 0)
        state = init_adam(params)
        with pytest.raises(ValueError):
            adam_step(state, params, NetworkParams(other.layout))

    def test_other_layout_of_equal_size_rejected(self):
        """88 parameters each: without the layout check the two vectors
        would broadcast and the step would pass silently."""
        params = init_params(NetworkConfig(cell_kind="gru",
                                           layer_widths=(2, 3),
                                           dropout_rate=0.0,
                                           dropout_after_layers=(),
                                           output_activation="linear",
                                           input_width=2), 0)
        other = init_params(NetworkConfig(cell_kind="lstm",
                                          layer_widths=(3,),
                                          dropout_rate=0.0,
                                          dropout_after_layers=(),
                                          output_activation="linear",
                                          input_width=3), 0)
        assert params.vector.size == other.vector.size == 88
        state = init_adam(params)
        with pytest.raises(ValueError):
            adam_step(state, params, NetworkParams(other.layout))

    def test_works_on_full_network_tree(self):
        config = NetworkConfig(cell_kind="gru")
        params = init_params(config, 1)
        state = init_adam(params, lr=0.01)
        grads = NetworkParams(params.layout, np.full_like(params.vector, 0.01))
        state2, params2 = adam_step(state, params, grads)
        assert state2.t == 1
        for (_, before), (_, after) in zip(params.leaves, params2.leaves):
            assert before.shape == after.shape
            assert np.all(np.isfinite(after))


class TestAdamState:
    def test_defaults(self):
        state = init_adam(arena(np.zeros(2)))
        assert (state.lr, BETA1, BETA2, EPS) == (0.01, 0.9, 0.999, 1e-8)
        assert state.t == 0
