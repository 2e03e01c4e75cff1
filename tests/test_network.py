"""Recurrent core: cells, stacked forward, BPTT, dropout, checkpoints."""

import dataclasses
import io
import json
import tracemalloc
import zipfile

import numpy as np
import pytest

from oracles import textbook_stack_forward
from pournet.data import HEADS, NormalizationSpec, PaddedBatch
from pournet.gradcheck import (check_network_gradients,
                               directional_gradient_error,
                               full_scale_gradient_errors, max_relative_error,
                               random_batch)
from pournet.network import (CellKind, ForwardCache, NetworkConfig,
                             NetworkParams, _HEADS, _gru_steps, _lstm_steps,
                             _open_checkpoint,
                             init_params, load_checkpoint, network_backward,
                             network_forward, numerical_gradient,
                             param_layout, save_checkpoint, sigmoid)
from pournet.optim import mse_loss


# column blocks of the fused gate arrays
LSTM_I, LSTM_F, LSTM_O, LSTM_G = range(4)
GRU_Z, GRU_R, GRU_H = range(3)


def block(a, k, hidden):
    """View of gate k's column block in a fused [..., G*hidden] array."""
    return a[..., k * hidden:(k + 1) * hidden]


def trees_equal(a, b):
    def arrays(p):
        return (p.vector,) if isinstance(p, NetworkParams) else (p.w, p.u, p.b)
    return all(np.array_equal(x, y) for x, y in zip(arrays(a), arrays(b)))


class TestNetworkConfig:
    def test_string_cell_kind_coerced(self):
        assert NetworkConfig(cell_kind="lstm").cell_kind is CellKind.LSTM

    def test_default_architecture(self):
        config = NetworkConfig(cell_kind="gru")
        assert config.layer_widths == (16, 16, 16, 16)
        assert config.dropout_rate == 0.5
        assert config.dropout_after_layers == (2, 4)
        assert config.input_width == 9

    @pytest.mark.parametrize("kwargs", [
        {"layer_widths": ()},
        {"layer_widths": (16, 0)},
        {"dropout_rate": 1.0},
        {"dropout_rate": -0.1},
        {"dropout_after_layers": (5,)},
        {"dropout_after_layers": (0,)},
        {"output_activation": "relu"},
        {"layer_widths": (16.7, 16)},
        {"layer_widths": (True, 16)},
        {"layer_widths": "abc"},
        {"dropout_after_layers": (2.0,)},
        {"dropout_after_layers": (True,)},
        {"input_width": 9.0},
        {"input_width": True},
        {"dropout_rate": False},
        {"dropout_rate": "0.5"},
        {"dropout_rate": None},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(cell_kind="lstm", **kwargs)

    @pytest.mark.parametrize("rate", [0, np.float32(0.25), np.int64(0)])
    def test_real_dropout_rate_stored_as_float(self, rate):
        config = NetworkConfig(cell_kind="gru", dropout_rate=rate)
        assert type(config.dropout_rate) is float
        assert config.dropout_rate == rate

    def test_every_head_has_one_table_entry(self):
        assert tuple(_HEADS) == HEADS == ("sigmoid", "linear", "tanh")

    @pytest.mark.parametrize("kind", [5, None, "rnn"])
    def test_unknown_cell_kind_rejected(self, kind):
        with pytest.raises(ValueError):
            NetworkConfig(cell_kind=kind)

    def test_numpy_integers_accepted_as_ints(self):
        config = NetworkConfig(cell_kind="gru", layer_widths=np.array([4, 3]),
                               dropout_after_layers=(np.int64(2),),
                               input_width=np.int32(5))
        assert config.layer_widths == (4, 3)
        assert config.dropout_after_layers == (2,)
        assert config.input_width == 5
        values = (*config.layer_widths, *config.dropout_after_layers,
                  config.input_width)
        assert all(type(v) is int for v in values)


class TestInitParams:
    def test_deterministic(self):
        config = NetworkConfig(cell_kind="lstm")
        assert trees_equal(init_params(config, 4), init_params(config, 4))
        assert not trees_equal(init_params(config, 4), init_params(config, 5))

    def test_first_layer_shapes(self):
        config = NetworkConfig(cell_kind="lstm")
        params = init_params(config, 0)
        first = params.layers[0]
        assert first.w.shape == (9, 4 * 16)
        assert first.u.shape == (16, 4 * 16)
        assert first.b.shape == (4 * 16,)

    def test_forget_bias_is_one(self):
        params = init_params(NetworkConfig(cell_kind="lstm"), 2)
        for layer in params.layers:
            assert np.all(block(layer.b, LSTM_F, 16) == 1.0)
            assert np.all(block(layer.b, LSTM_I, 16) == 0.0)
            assert np.all(block(layer.b, LSTM_G, 16) == 0.0)
            assert np.all(block(layer.b, LSTM_O, 16) == 0.0)

    def test_gates_drawn_in_per_gate_order(self):
        """Each gate's (w, u) pair is drawn in turn, LSTM i, f, g, o, and
        stored transposed in the fused column order i, f, o, g."""
        config = NetworkConfig(cell_kind="lstm", layer_widths=(3,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               input_width=2)
        layer = init_params(config, 9).layers[0]
        rng = np.random.default_rng(9)
        limit = np.sqrt(6.0 / (3 + 2))
        for k in (LSTM_I, LSTM_F, LSTM_G, LSTM_O):
            w = rng.uniform(-limit, limit, size=(3, 2))
            q, r = np.linalg.qr(rng.standard_normal((3, 3)))
            assert np.array_equal(block(layer.w, k, 3), w.T)
            assert np.array_equal(block(layer.u, k, 3),
                                  (q * np.sign(np.diag(r))).T)

    def test_recurrent_weights_orthogonal(self):
        params = init_params(NetworkConfig(cell_kind="gru"), 3)
        for layer in params.layers:
            for k in (GRU_Z, GRU_R, GRU_H):
                u = block(layer.u, k, 16)
                assert np.allclose(u @ u.T, np.eye(u.shape[0]), atol=1e-10)

    def test_input_weights_within_glorot_bound(self):
        config = NetworkConfig(cell_kind="gru", layer_widths=(8, 8),
                               dropout_after_layers=(2,), input_width=4)
        params = init_params(config, 1)
        limit = np.sqrt(6.0 / (8 + 4))
        assert np.all(np.abs(block(params.layers[0].w, GRU_Z, 8)) <= limit)


class TestParamArena:
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_leaves_are_views_of_one_vector_in_checkpoint_order(
            self, cell, tmp_path):
        config = NetworkConfig(cell_kind=cell, layer_widths=(4, 3),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="tanh", input_width=9)
        params = init_params(config, 31)
        batch = random_batch(np.random.default_rng(31), 5, 3, 9)
        preds, cache = network_forward(params, config, batch, mode="train")
        _, dpred = mse_loss(preds, batch.targets, batch.mask)
        grads = network_backward(params, config, cache, dpred, batch.mask)
        path = tmp_path / "model.npz"
        norm = NormalizationSpec(mode="tanh", target_min=0.0, target_max=1.0,
                                 input_mean=np.zeros(9), input_std=np.ones(9))
        save_checkpoint(path, params, config, norm)
        with zipfile.ZipFile(path) as zf:
            entries = [n[:-4] for n in zf.namelist() if n.endswith(".npy")]
        assert entries[2:] == [name for name, _ in params.leaves]
        for arena in (params, grads):
            vector = arena.vector
            assert vector.dtype == np.float64 and vector.ndim == 1
            assert vector.flags.c_contiguous
            assert arena.layout == params.layout
            named = [a for layer in arena.layers
                     for a in (layer.w, layer.u, layer.b)]
            assert all(view is leaf for view, (_, leaf) in
                       zip(named + [arena.w_out, arena.b_out], arena.leaves,
                           strict=True))
            offset = 0
            for _, leaf in arena.leaves:
                assert leaf.base is vector
                assert np.shares_memory(leaf, vector[offset:offset + leaf.size])
                offset += leaf.size
            assert offset == vector.size

    def test_write_through_layer_view_changes_vector(self):
        params = init_params(NetworkConfig(cell_kind="gru"), 32)
        before = params.vector.copy()
        params.layers[1].u[2, 5] = 7.5
        changed = np.flatnonzero(params.vector != before)
        assert changed.size == 1 and params.vector[changed[0]] == 7.5


class TestSigmoid:
    def test_open_interval_on_representable_range(self):
        x = np.linspace(-30.0, 30.0, 2001)
        s = sigmoid(x)
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_saturation_stays_in_closed_range(self):
        x = np.array([-1e6, -800.0, 800.0, 1e6])
        s = sigmoid(x)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)

    def test_monotone(self):
        x = np.linspace(-50.0, 50.0, 5001)
        assert np.all(np.diff(sigmoid(x)) >= 0.0)


# The cell tests run one step: they hand-set the gate pre-activations
# a = x W + b [G, B, H], passed as a one-step sequence a[None], and keep U
# zero, so each gate's value is known. As in _forward_layer,
# the sigmoid gates' rows hold half the pre-activation: a row of 5.0 is
# sigmoid(10).

class TestLSTMCell:
    def test_zero_params_give_zero_state(self):
        h_prev = np.random.default_rng(0).standard_normal((2, 4))
        h, c = _lstm_steps(np.zeros((4, 4, 4)), np.zeros((1, 4, 2, 4)),
                           h_prev, np.zeros((2, 4)), np.empty((1, 2, 4)),
                           np.empty((1, 2, 4)), np.empty((1, 2, 4)))
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_forget_open_input_shut_preserves_cell(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 5, 4))
        a[LSTM_F], a[LSTM_I] = 5.0, -5.0
        c_prev = rng.uniform(-1.0, 1.0, size=(5, 4))
        _, c = _lstm_steps(np.zeros((4, 4, 4)), a[None], np.zeros((5, 4)),
                           c_prev, np.empty((1, 5, 4)), np.empty((1, 5, 4)),
                           np.empty((1, 5, 4)))
        assert np.max(np.abs(c - c_prev)) < 1e-4

    def test_gate_ranges(self):
        config = NetworkConfig(cell_kind="lstm", layer_widths=(4,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="linear", input_width=3)
        params = init_params(config, 5)
        batch = random_batch(np.random.default_rng(5), 6, 3, 3)
        _, cache = network_forward(params, config, batch, mode="train")
        act = cache.layers[0]["act"]
        for k in (LSTM_I, LSTM_F, LSTM_O):
            assert np.all(act[:, k] > 0.0) and np.all(act[:, k] < 1.0)
        assert np.all(act[:, LSTM_G] > -1.0) and np.all(act[:, LSTM_G] < 1.0)


class TestGRUCell:
    def test_zero_params_halve_ones(self):
        h = _gru_steps(np.zeros((3, 4, 4)), np.zeros((1, 3, 2, 4)),
                       np.ones((2, 4)), np.empty((1, 2, 4)))
        assert np.all(h == 0.5)

    def test_zero_params_zero_state(self):
        h = _gru_steps(np.zeros((3, 4, 4)), np.zeros((1, 3, 2, 4)),
                       np.zeros((2, 4)), np.empty((1, 2, 4)))
        assert np.all(h == 0.0)

    def test_open_update_gate_preserves_state(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 5, 4))
        a[GRU_Z] = 5.0
        h_prev = rng.uniform(-1.0, 1.0, size=(5, 4))
        h = _gru_steps(np.zeros((3, 4, 4)), a[None], h_prev,
                       np.empty((1, 5, 4)))
        assert np.max(np.abs(h - h_prev)) < 1e-4


class TestNetworkForward:
    def small_config(self, cell="gru", head="sigmoid", rate=0.0):
        after = (1, 2) if rate > 0 else ()
        return NetworkConfig(cell_kind=cell, layer_widths=(4, 4),
                             dropout_rate=rate, dropout_after_layers=after,
                             output_activation=head, input_width=3)

    def test_eval_deterministic(self):
        config = self.small_config()
        params = init_params(config, 1)
        batch = random_batch(np.random.default_rng(1), 5, 3, 3)
        p1, _ = network_forward(params, config, batch, mode="eval")
        p2, _ = network_forward(params, config, batch, mode="eval")
        assert np.array_equal(p1, p2)

    @pytest.mark.parametrize("head,lo,hi", [("sigmoid", 0.0, 1.0),
                                            ("tanh", -1.0, 1.0)])
    def test_head_ranges(self, head, lo, hi):
        config = self.small_config(head=head)
        params = init_params(config, 2)
        batch = random_batch(np.random.default_rng(2), 7, 4, 3)
        preds, _ = network_forward(params, config, batch, mode="eval")
        assert np.all(preds > lo) and np.all(preds < hi)

    def test_padding_extension_preserves_real_predictions(self):
        config = self.small_config(cell="lstm")
        params = init_params(config, 3)
        batch = random_batch(np.random.default_rng(3), 5, 3, 3)
        extended = PaddedBatch(
            inputs=np.concatenate([batch.inputs, np.zeros((4, 3, 3))]),
            targets=np.concatenate([batch.targets, np.zeros((4, 3))]),
            lengths=batch.lengths)
        p1, _ = network_forward(params, config, batch, mode="eval")
        p2, _ = network_forward(params, config, extended, mode="eval")
        assert np.array_equal(p1, p2[:5])

    def test_one_step_sequence_ignores_trailing_padding(self):
        """A lone one-step sequence gets the same prediction and gradients,
        bit for bit, under trailing padding steps. Its projection is a
        one-row product, which BLAS computes on a matrix-vector path, so
        padding rows must not join the real rows' GEMM."""
        for cell in ("lstm", "gru"):
            config = self.small_config(cell=cell)
            params = init_params(config, 19)
            batch = random_batch(np.random.default_rng(19), 1, 1, 3)
            padded = PaddedBatch(
                inputs=np.concatenate([batch.inputs, np.zeros((3, 1, 3))]),
                targets=np.concatenate([batch.targets, np.zeros((3, 1))]),
                lengths=batch.lengths)
            runs = []
            for b in (batch, padded):
                preds, cache = network_forward(params, config, b, mode="train")
                _, dpred = mse_loss(preds, b.targets, b.mask)
                runs.append((preds[:1], network_backward(params, config, cache,
                                                         dpred, b.mask)))
            assert np.array_equal(runs[0][0], runs[1][0])
            assert trees_equal(runs[0][1], runs[1][1])

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("head", ["sigmoid", "linear", "tanh"])
    def test_matches_textbook_per_gate_forward(self, cell, head):
        """Eval predictions and every layer's hidden sequence equal a
        per-gate, per-step forward written from the cell equations, over
        two layers of different widths and a batch whose trailing steps
        are all padding. Every parameter is random, so a gate block read
        from the wrong columns shows here even when BPTT shares the
        mistake and gradcheck passes."""
        config = NetworkConfig(cell_kind=cell, layer_widths=(5, 3),
                               dropout_rate=0.5, dropout_after_layers=(1,),
                               output_activation=head, input_width=4)
        params = init_params(config, 23)
        rng = np.random.default_rng(23)
        for _, leaf in params.leaves:
            leaf[...] = rng.normal(scale=0.7, size=leaf.shape)
        batch = random_batch(rng, 9, 4, 4, lengths=np.array([7, 2, 5, 1]))
        preds, _ = network_forward(params, config, batch, mode="eval")
        _, cache = network_forward(params, dataclasses.replace(
            config, dropout_rate=0.0), batch, mode="train")
        expected, hidden = textbook_stack_forward(
            cell, [(p.w, p.u, p.b) for p in params.layers], params.w_out,
            params.b_out, head, batch.inputs)
        assert np.max(np.abs(preds - expected)) <= 1e-12
        for record, want in zip(cache.layers, hidden, strict=True):
            assert np.max(np.abs(record["h"] - want)) <= 1e-12

    @pytest.mark.parametrize("cell,gates", [("lstm", 4), ("gru", 3)])
    def test_gate_buffers_are_time_major(self, cell, gates):
        """Each step's gates are one contiguous [G, B, H] slab."""
        config = NetworkConfig(cell_kind=cell, layer_widths=(5, 3),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="linear", input_width=4)
        params = init_params(config, 6)
        batch = random_batch(np.random.default_rng(6), 7, 2, 4,
                             lengths=np.array([6, 3]))
        _, cache = network_forward(params, config, batch, mode="train")
        for store, hidden in zip(cache.layers, config.layer_widths):
            act = store["act"]
            assert act.shape == (7, gates, 2, hidden)
            assert act.flags.c_contiguous
            if cell == "lstm":
                for key in ("c", "tc"):
                    assert store[key].shape == (7, 2, hidden)
                    assert store[key].flags.c_contiguous
            else:
                assert "c" not in store and "tc" not in store

    def test_lstm_cache_keeps_tanh_of_cell_state(self):
        config = NetworkConfig(cell_kind="lstm", output_activation="tanh")
        params = init_params(config, 8)
        rng = np.random.default_rng(8)
        params.vector += rng.normal(0.0, 0.3, params.vector.size)
        batch = random_batch(rng, 12, 5, 9, lengths=np.array([9, 3, 12, 7, 1]))
        _, cache = network_forward(params, config, batch, mode="train",
                                   rng=np.random.default_rng(1))
        for store in cache.layers:
            assert np.array_equal(store["tc"], np.tanh(store["c"]))

    def test_train_mode_deterministic_under_fixed_rng(self):
        config = self.small_config(rate=0.5)
        params = init_params(config, 18)
        batch = random_batch(np.random.default_rng(18), 5, 3, 3)
        runs = []
        for _ in range(2):
            preds, cache = network_forward(params, config, batch, mode="train",
                                           rng=np.random.default_rng(500))
            _, dpred = mse_loss(preds, batch.targets, batch.mask)
            grads = network_backward(params, config, cache, dpred, batch.mask)
            runs.append((preds, grads))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert trees_equal(runs[0][1], runs[1][1])

    def test_batch_members_independent(self):
        """A sequence's predictions on its real steps do not depend on
        which other sequences share the batch."""
        config = self.small_config(cell="gru")
        params = init_params(config, 8)
        rng = np.random.default_rng(8)
        base = random_batch(rng, 5, 2, 3, lengths=np.array([3, 5]))
        other = random_batch(rng, 7, 2, 3, lengths=np.array([3, 7]))
        other.inputs[:3, 0, :] = base.inputs[:3, 0, :]
        other.targets[:3, 0] = base.targets[:3, 0]
        p1, _ = network_forward(params, config, base, mode="eval")
        p2, _ = network_forward(params, config, other, mode="eval")
        assert np.array_equal(p1[:3, 0], p2[:3, 0])

    def test_train_without_rng_rejected_when_dropout_active(self):
        config = self.small_config(rate=0.5)
        params = init_params(config, 4)
        batch = random_batch(np.random.default_rng(4), 4, 2, 3)
        with pytest.raises(ValueError):
            network_forward(params, config, batch, mode="train")

    def test_bad_mode_rejected(self):
        config = self.small_config()
        params = init_params(config, 4)
        batch = random_batch(np.random.default_rng(4), 4, 2, 3)
        with pytest.raises(ValueError):
            network_forward(params, config, batch, mode="predict")

    def test_feature_width_mismatch_rejected(self):
        config = self.small_config()
        params = init_params(config, 4)
        batch = random_batch(np.random.default_rng(4), 4, 2, 5)
        with pytest.raises(ValueError):
            network_forward(params, config, batch, mode="eval")


class TestDropout:
    def test_mask_values(self):
        config = NetworkConfig(cell_kind="gru", layer_widths=(4, 4),
                               dropout_rate=0.25, dropout_after_layers=(1, 2),
                               output_activation="linear", input_width=3)
        params = init_params(config, 6)
        batch = random_batch(np.random.default_rng(6), 6, 3, 3)
        _, cache = network_forward(params, config, batch, mode="train",
                                   rng=np.random.default_rng(0))
        for record in cache.layers:
            assert set(np.unique(record["mask"])) <= {0.0, 1.0 / 0.75}

    def test_eval_has_no_masks(self):
        config = NetworkConfig(cell_kind="gru", layer_widths=(4,),
                               dropout_rate=0.5, dropout_after_layers=(1,),
                               output_activation="linear", input_width=3)
        params = init_params(config, 6)
        batch = random_batch(np.random.default_rng(6), 4, 2, 3)
        _, cache = network_forward(params, config, batch, mode="eval")
        assert cache is None

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("head", ["sigmoid", "linear", "tanh"])
    def test_rate_zero_train_equals_eval(self, cell, head):
        config = NetworkConfig(cell_kind=cell, layer_widths=(4, 4),
                               dropout_rate=0.0, dropout_after_layers=(1, 2),
                               output_activation=head, input_width=3)
        params = init_params(config, 7)
        batch = random_batch(np.random.default_rng(7), 5, 3, 3)
        p_train, _ = network_forward(params, config, batch, mode="train",
                                     rng=np.random.default_rng(0))
        p_eval, _ = network_forward(params, config, batch, mode="eval")
        assert np.array_equal(p_train, p_eval)

    def test_expectation_matches_eval_output(self):
        """The masked layer output is unbiased: averaged over many mask
        draws it approaches the unmasked activations."""
        config = NetworkConfig(cell_kind="gru", layer_widths=(4,),
                               dropout_rate=0.5, dropout_after_layers=(1,),
                               output_activation="linear", input_width=3)
        params = init_params(config, 8)
        batch = random_batch(np.random.default_rng(8), 2, 1, 3)
        _, eval_cache = network_forward(params, dataclasses.replace(
            config, dropout_rate=0.0), batch, mode="train")
        reference = eval_cache.layers[0]["h"]

        draws = 10_000
        rng = np.random.default_rng(123)
        total = np.zeros_like(reference)
        for _ in range(draws):
            _, cache = network_forward(params, config, batch, mode="train",
                                       rng=rng)
            total += cache.head_input
        mean = total / draws
        # with rate 0.5 the mask has unit variance, so se = |h| / sqrt(n)
        se = np.abs(reference) / np.sqrt(draws)
        assert np.all(np.abs(mean - reference) <= 4.0 * se + 1e-12)
        global_se = np.sqrt(np.sum(reference ** 2)) / np.sqrt(draws)
        assert abs(np.sum(mean - reference)) <= 3.0 * global_se


def dropout_mask_gradient_error(cell, head, seed):
    """Max relative BPTT-vs-complex-step error under fixed dropout masks.

    Every train-mode forward draws from a fresh rng with one seed, so the
    masks are the same on every call and the loss is a smooth function
    of the parameters. Masks zero half of the units, so some gradient
    entries are tiny.
    """
    config = NetworkConfig(cell_kind=cell, layer_widths=(3, 3),
                           dropout_rate=0.5, dropout_after_layers=(1, 2),
                           output_activation=head, input_width=3)
    params = init_params(config, seed)
    batch = random_batch(np.random.default_rng(seed), 4, 2, 3)

    def forward(p):
        return network_forward(p, config, batch, mode="train",
                               rng=np.random.default_rng(99))

    preds, cache = forward(params)
    assert any(np.any(record["mask"] == 0.0) for record in cache.layers)
    _, dpred = mse_loss(preds, batch.targets, batch.mask)
    analytic = network_backward(params, config, cache, dpred, batch.mask)
    numeric = numerical_gradient(
        params,
        lambda p: mse_loss(forward(p)[0], batch.targets, batch.mask)[0])
    return max_relative_error(analytic, numeric)


class TestNetworkBackward:
    def test_zero_upstream_zero_grads(self):
        config = NetworkConfig(cell_kind="lstm", layer_widths=(4, 4),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="tanh", input_width=3)
        params = init_params(config, 9)
        batch = random_batch(np.random.default_rng(9), 5, 3, 3)
        _, cache = network_forward(params, config, batch, mode="train")
        grads = network_backward(params, config, cache,
                                 np.zeros_like(batch.targets), batch.mask)
        assert trees_equal(grads, NetworkParams(params.layout))

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_matches_finite_differences(self, cell):
        err = check_network_gradients(cell, "tanh", seed=3)
        assert err < 1e-4

    @pytest.mark.parametrize("head", ["sigmoid", "linear", "tanh"])
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_matches_finite_differences_under_fixed_dropout_masks(self, cell,
                                                                  head):
        assert dropout_mask_gradient_error(cell, head, seed=0) <= 1e-4

    def test_cell_kind_mismatch_rejected(self):
        config = NetworkConfig(cell_kind="gru", layer_widths=(4,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="linear", input_width=3)
        params = init_params(config, 1)
        batch = random_batch(np.random.default_rng(1), 4, 2, 3)
        _, cache = network_forward(params, config, batch, mode="train")
        other = NetworkConfig(cell_kind="lstm", layer_widths=(4,),
                              dropout_rate=0.0, dropout_after_layers=(),
                              output_activation="linear", input_width=3)
        lstm_params = init_params(other, 1)
        with pytest.raises(ValueError):
            network_backward(lstm_params, other, cache,
                             np.zeros_like(batch.targets), batch.mask)

    def test_layers_above_ignore_masked_units(self):
        """Layer-2 and head gradients read the post-dropout activations,
        so values hidden behind a zero mask cannot influence them."""
        config = NetworkConfig(cell_kind="gru", layer_widths=(3, 3),
                               dropout_rate=0.5, dropout_after_layers=(1,),
                               output_activation="sigmoid", input_width=2)
        params = init_params(config, 10)
        batch = random_batch(np.random.default_rng(10), 5, 2, 2)
        preds, cache = network_forward(params, config, batch, mode="train",
                                       rng=np.random.default_rng(55))
        mask = cache.layers[0]["mask"]
        assert np.any(mask == 0.0)
        _, dpred = mse_loss(preds, batch.targets, batch.mask)
        grads = network_backward(params, config, cache, dpred, batch.mask)

        bottom = dict(cache.layers[0], h=cache.layers[0]["h"].copy())
        bottom["h"][mask == 0.0] += 7.0
        tampered = ForwardCache(cell_kind=cache.cell_kind,
                                layers=[bottom, cache.layers[1]],
                                head_input=cache.head_input,
                                predictions=cache.predictions)
        grads2 = network_backward(params, config, tampered, dpred, batch.mask)
        assert trees_equal(grads.layers[1], grads2.layers[1])
        assert np.array_equal(grads.w_out, grads2.w_out)
        assert np.array_equal(grads.b_out, grads2.b_out)
        assert not trees_equal(grads.layers[0], grads2.layers[0])


class TestNumericalGradient:
    def test_quadratic_loss_recovered(self):
        """With a linear head every prediction is ... + b_out, so the loss
        sum(preds ** 2) has dloss/db_out = 2 * sum(preds)."""
        config = NetworkConfig(cell_kind="gru", layer_widths=(2,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="linear", input_width=2)
        params = init_params(config, 11)
        batch = random_batch(np.random.default_rng(11), 3, 2, 2)
        preds, _ = network_forward(params, config, batch)
        grads = numerical_gradient(
            params, lambda p: np.sum(network_forward(p, config, batch)[0] ** 2))
        assert grads.b_out[0] == pytest.approx(2.0 * np.sum(preds), rel=1e-12)

    def test_restores_parameters(self):
        config = NetworkConfig(cell_kind="lstm", layer_widths=(2,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="linear", input_width=2)
        params = init_params(config, 12)
        snapshot = NetworkParams(params.layout, params.vector.copy())
        batch = random_batch(np.random.default_rng(12), 3, 2, 2)
        numerical_gradient(
            params, lambda p: np.sum(network_forward(p, config, batch)[0]),
            1e-5)
        assert trees_equal(params, snapshot)

    def test_zero_at_stationary_point(self):
        config = NetworkConfig(cell_kind="lstm", layer_widths=(2,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="linear", input_width=2)
        params = NetworkParams(init_params(config, 13).layout)
        batch = random_batch(np.random.default_rng(13), 3, 2, 2)
        batch.targets[:] = 0.0
        grads = numerical_gradient(
            params, lambda p: mse_loss(network_forward(p, config, batch)[0],
                                       batch.targets, batch.mask)[0], 1e-5)
        # recurrent/output weights sit at a symmetric stationary point
        assert max_relative_error(grads, NetworkParams(params.layout)) == 0.0

    def test_bad_epsilon_rejected(self):
        config = NetworkConfig(cell_kind="gru", layer_widths=(2,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="linear", input_width=2)
        params = init_params(config, 14)
        with pytest.raises(ValueError):
            numerical_gradient(params, lambda p: 0.0, 0.0)


class TestComplexStepOracle:
    """Central differences at epsilon 1e-5 exceed 1e-4 on these seeds,
    where a gradient entry is near 1e-8; the complex step has no
    subtraction to round."""

    @pytest.mark.parametrize("head", ["sigmoid", "linear", "tanh"])
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("seed", [9, 13, 21, 24, 26])
    def test_plain_and_padded_batches_within_1e_9(self, seed, cell, head):
        assert check_network_gradients(cell, head, seed=seed) <= 1e-9

    @pytest.mark.parametrize("head", ["sigmoid", "linear", "tanh"])
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("seed", [3, 9])
    def test_fixed_dropout_masks_within_1e_9(self, seed, cell, head):
        assert dropout_mask_gradient_error(cell, head, seed) <= 1e-9


class TestFullScaleGradient:
    """Directional complex-step checks on the default 4x16 stack in train
    mode, one direction within each layer's parameters, so a failure
    names the layer."""

    @pytest.mark.parametrize("head", ["sigmoid", "linear", "tanh"])
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_every_slice_within_1e_10(self, cell, head):
        errors = full_scale_gradient_errors(cell, head, seed=0)
        assert list(errors) == ["layers[0]", "layers[1]", "layers[2]",
                                "layers[3]", "head"]
        for name, err in errors.items():
            assert err <= 1e-10, f"{cell}-{head} {name}: {err:.3e}"

    def test_flags_a_wrong_gradient_entry(self):
        config = NetworkConfig(cell_kind="gru", layer_widths=(3, 3),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="tanh", input_width=3)
        params = init_params(config, 2)
        batch = random_batch(np.random.default_rng(2), 5, 2, 3)

        def loss(p):
            return mse_loss(network_forward(p, config, batch)[0],
                            batch.targets, batch.mask)[0]

        preds, cache = network_forward(params, config, batch, mode="train")
        _, dpred = mse_loss(preds, batch.targets, batch.mask)
        grads = network_backward(params, config, cache, dpred, batch.mask)
        direction = np.random.default_rng(3).standard_normal(params.vector.size)
        assert directional_gradient_error(params, loss, grads, direction) <= 1e-12
        grads.layers[1].u[0, 0] += 1e-3
        assert directional_gradient_error(params, loss, grads, direction) > 1e-6


class TestCheckpoint:
    def make_norm(self):
        return NormalizationSpec(mode="tanh", target_min=0.2, target_max=1.7,
                                 input_mean=np.arange(9, dtype=np.float64),
                                 input_std=np.ones(9))

    def test_round_trip(self, tmp_path):
        config = NetworkConfig(cell_kind="lstm", layer_widths=(5, 3),
                               dropout_rate=0.25, dropout_after_layers=(2,),
                               output_activation="tanh", input_width=9)
        params = init_params(config, 21)
        norm = self.make_norm()
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, config, norm)
        params2, config2, norm2 = load_checkpoint(path)
        assert config2 == config
        assert trees_equal(params, params2)
        assert norm2.mode == norm.mode
        assert norm2.target_min == norm.target_min
        assert norm2.target_max == norm.target_max
        assert np.array_equal(norm2.input_mean, norm.input_mean)
        assert np.array_equal(norm2.input_std, norm.input_std)

    def test_byte_identical_writes(self, tmp_path):
        config = NetworkConfig(cell_kind="gru", output_activation="tanh")
        params = init_params(config, 22)
        norm = self.make_norm()
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_checkpoint(p1, params, config, norm)
        save_checkpoint(p2, params, config, norm)
        assert p1.read_bytes() == p2.read_bytes()

    def test_head_mismatch_refused_before_writing(self, tmp_path):
        config = NetworkConfig(cell_kind="gru", output_activation="sigmoid")
        path = tmp_path / "model.npz"
        with pytest.raises(ValueError) as err:
            save_checkpoint(path, init_params(config, 26), config,
                            self.make_norm())
        assert "'tanh'" in str(err.value) and "'sigmoid'" in str(err.value)
        assert not path.exists()

    def test_non_finite_weight_refused_before_writing(self, tmp_path):
        """save_checkpoint reads the file back in memory, so it refuses
        what load_checkpoint refuses before the file exists."""
        config = NetworkConfig(cell_kind="gru", layer_widths=(4,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="tanh", input_width=9)
        params = init_params(config, 27)
        params.layers[0].u[1, 2] = np.nan
        path = tmp_path / "model.npz"
        with pytest.raises(ValueError) as err:
            save_checkpoint(path, params, config, self.make_norm())
        assert str(err.value).startswith(f"{path}: ")
        assert "layers[0].u" in str(err.value)
        assert not path.exists()

    def test_meta_keys_are_the_v2_format(self, tmp_path):
        """A NetworkConfig field added later changes these keys, and with
        them the checkpoint format."""
        config = NetworkConfig(cell_kind="gru", output_activation="tanh")
        path = tmp_path / "model.npz"
        save_checkpoint(path, init_params(config, 25), config, self.make_norm())
        with zipfile.ZipFile(path) as zf:
            meta = json.loads(zf.read("meta.json"))
        assert meta == {
            "format": "pournet-checkpoint-v2", "cell_kind": "gru",
            "layer_widths": [16, 16, 16, 16], "dropout_rate": 0.5,
            "dropout_after_layers": [2, 4], "output_activation": "tanh",
            "input_width": 9, "output_width": 1, "norm_mode": "tanh",
            "norm_target_min": 0.2, "norm_target_max": 1.7}

    def rewrite_meta(self, path, edit):
        """Save a small checkpoint at path with edit() applied to its metadata."""
        config = NetworkConfig(cell_kind="gru", layer_widths=(4,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="tanh", input_width=9)
        original = path.with_suffix(".orig.npz")
        save_checkpoint(original, init_params(config, 24), config,
                        self.make_norm())
        with zipfile.ZipFile(original) as src, \
                zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as dst:
            for name in src.namelist():
                data = src.read(name)
                if name == "meta.json":
                    meta = json.loads(data)
                    edit(meta)
                    data = json.dumps(meta).encode("utf-8")
                dst.writestr(name, data)

    def test_input_width_other_than_norm_refused(self, tmp_path):
        """A stack of 3 inputs with 9-wide statistics would load and then
        fail on every batch, naming neither file."""
        config = NetworkConfig(cell_kind="gru", layer_widths=(4,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="tanh", input_width=3)
        path = tmp_path / "model.npz"
        with pytest.raises(ValueError) as err:
            save_checkpoint(path, init_params(config, 28), config,
                            self.make_norm())
        assert str(err.value) == (
            f"{path}: checkpoint input_width 3 does not match the 9 "
            f"features of norm_input_mean")
        assert not path.exists()
        self.rewrite_meta(path, lambda meta: meta.update(input_width=3))
        with pytest.raises(ValueError, match="input_width 3 does not match"):
            load_checkpoint(path)

    def test_huge_meta_widths_refused_before_allocating(self, tmp_path):
        """The arrays are a (4,) GRU stack's, and meta.json's width of a
        million would need a parameter vector of about 24 TB. Every leaf's
        stored shape is checked before that vector is allocated."""
        path = tmp_path / "model.npz"
        self.rewrite_meta(path, lambda meta: meta.update(
            layer_widths=[1_000_000]))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value).startswith(f"{path}: checkpoint array layers[0].w")
        assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"

    def test_meta_key_cannot_shadow_stored_array(self, tmp_path):
        """Settings come only from meta.json and arrays only from their
        .npy entries, so a meta.json that also holds "b_out" loads the
        stored array."""
        path = tmp_path / "model.npz"
        self.rewrite_meta(path, lambda meta: meta.update(b_out=[5.0]))
        params, _, _ = load_checkpoint(path)
        stored, _, _ = load_checkpoint(path.with_suffix(".orig.npz"))
        assert stored.b_out[0] != 5.0
        assert np.array_equal(params.vector, stored.vector)

    def test_other_format_rejected_with_file_and_format(self, tmp_path):
        path = tmp_path / "old.npz"
        self.rewrite_meta(path, lambda meta: meta.update(
            format="pournet-checkpoint-v1"))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
        assert "pournet-checkpoint-v1" in str(err.value)

    def test_missing_meta_key_names_file_and_key(self, tmp_path):
        path = tmp_path / "partial.npz"
        self.rewrite_meta(path, lambda meta: meta.pop("norm_mode"))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
        assert "norm_mode" in str(err.value)

    @staticmethod
    def rewrite_entry(path, name, data):
        """Replace one zip entry of the checkpoint at path with data, or
        drop it when data is None."""
        with zipfile.ZipFile(path) as src:
            entries = {n: src.read(n) for n in src.namelist()}
        if data is None:
            del entries[name]
        else:
            entries[name] = data
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as dst:
            for n, d in entries.items():
                dst.writestr(n, d)

    @pytest.mark.parametrize("case, leaf", [
        ("not a zip", None), ("no meta", None), ("meta not json", None),
        ("widths not ints", None), ("output_width 2", None),
        ("int64 leaf", "layers[0].w"), ("float32 leaf", "layers[0].u"),
        ("string leaf", "w_out"), ("non-finite leaf", "b_out"),
        ("float32 std", "norm_input_std"), ("int64 mean", "norm_input_mean"),
        ("nan in mean", "norm_input_mean"), ("inf in std", "norm_input_std"),
        ("head mismatch",
         "norm_mode 'linear' does not match its output_activation 'tanh'"),
        ("nan bound", "target_min"), ("inf bound", "target_max"),
        ("bool bound", "target_min"), ("string bound", "target_min"),
        ("equal bounds", "target_max"), ("reversed bounds", "target_max"),
        ("fractional width", "layer_widths"),
        ("bool dropout index", "dropout_after_layers"),
        ("bool dropout rate", "dropout_rate"),
        ("float input_width", "input_width"), ("cell_kind 5", "CellKind"),
        ("huge dropout rate", "dropout_rate: int"),
        ("central directory offset + 1", None)])
    def test_corrupt_file_names_file(self, tmp_path, case, leaf):
        """leaf names the array, or the key or values the message names."""
        path = tmp_path / "model.npz"
        meta_edits = {"widths not ints": {"layer_widths": "abc"},
                      "output_width 2": {"output_width": 2},
                      "head mismatch": {"norm_mode": "linear"},
                      "nan bound": {"norm_target_min": float("nan")},
                      "inf bound": {"norm_target_max": float("inf")},
                      "bool bound": {"norm_target_min": False},
                      "string bound": {"norm_target_min": "0.2"},
                      "equal bounds": {"norm_target_max": 0.2},
                      "reversed bounds": {"norm_target_min": 2.0},
                      "fractional width": {"layer_widths": [4.7]},
                      "bool dropout index": {"dropout_after_layers": [True]},
                      "bool dropout rate": {"dropout_rate": False},
                      "float input_width": {"input_width": 9.0},
                      "cell_kind 5": {"cell_kind": 5},
                      "huge dropout rate": {"dropout_rate": 10 ** 400}}
        self.rewrite_meta(path, lambda meta: meta.update(
            meta_edits.get(case, {})))
        mean_with_nan = np.arange(9, dtype=np.float64)
        mean_with_nan[4] = np.nan
        std_with_inf = np.ones(9)
        std_with_inf[2] = np.inf
        bad_leaves = {"int64 leaf": np.zeros((9, 12), np.int64),
                      "float32 leaf": np.zeros((4, 12), np.float32),
                      "string leaf": np.array([["a", "b", "c", "d"]]),
                      "non-finite leaf": np.array([np.nan]),
                      "float32 std": np.ones(9, np.float32),
                      "int64 mean": np.arange(9, dtype=np.int64),
                      "nan in mean": mean_with_nan,
                      "inf in std": std_with_inf}
        if case == "not a zip":
            path.write_bytes(b"not a zip")
        elif case == "no meta":
            self.rewrite_entry(path, "meta.json", None)
        elif case == "meta not json":
            self.rewrite_entry(path, "meta.json", b"{oops")
        elif case == "central directory offset + 1":
            # zipfile seeks before the start of the file: OSError
            data = bytearray(path.read_bytes())
            data[-6] += 1
            path.write_bytes(data)
        elif case in bad_leaves:
            buf = io.BytesIO()
            np.save(buf, bad_leaves[case])
            self.rewrite_entry(path, f"{leaf}.npy", buf.getvalue())
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
        assert leaf is None or leaf in str(err.value)

    def test_huge_npy_header_refused_before_allocating(self, tmp_path):
        """The header of b_out.npy claims 10**12 entries, 8 TB, and 64 bytes
        follow it. The header is checked against the expected shape before
        any data is read."""
        path = tmp_path / "model.npz"
        self.rewrite_meta(path, lambda meta: None)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {
            "descr": "<f8", "fortran_order": False, "shape": (10 ** 12,)})
        self.rewrite_entry(path, "b_out.npy", header.getvalue() + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value).startswith(f"{path}: checkpoint array b_out ")
        assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("compression, delta", [
        (zipfile.ZIP_STORED, 1), (zipfile.ZIP_DEFLATED, 0x80)],
        ids=["stored", "deflated"])
    def test_every_byte_flip_loads_valid_or_names_file(
            self, tmp_path, compression, delta):
        """Each byte of a 1-layer width-2 GRU checkpoint in turn is shifted
        by delta, and the copy is read from memory as save_checkpoint reads
        its own bytes back. It either loads with every invariant holding or
        is refused with a ValueError that starts with the path. Flips make
        zipfile and zlib raise errors of their own: an unknown compression
        method, an encrypted entry, a truncated or invalid deflate
        stream."""
        config = NetworkConfig(cell_kind="gru", layer_widths=(2,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="tanh", input_width=9)
        path = tmp_path / "model.npz"
        save_checkpoint(path, init_params(config, 29), config, self.make_norm())
        blob = io.BytesIO()
        with zipfile.ZipFile(path) as src, \
                zipfile.ZipFile(blob, "w", compression) as dst:
            for name in src.namelist():
                dst.writestr(src.getinfo(name), src.read(name), compression)
        blob, loaded = blob.getvalue(), 0
        for pos in range(len(blob)):
            flipped = bytearray(blob)
            flipped[pos] = (flipped[pos] + delta) % 256
            try:
                params, net, norm = _open_checkpoint(path, io.BytesIO(flipped))
            except ValueError as exc:
                # an error with no message (EOFError) is named by its type
                assert str(exc).startswith(f"{path}: "), (pos, str(exc))
                assert str(exc) != f"{path}: ", pos
                continue
            loaded += 1
            assert dataclasses.replace(net) == net
            assert params.layout == param_layout(net)
            assert np.isfinite(params.vector).all()
            assert norm.mode == net.output_activation
            for stats in (norm.input_mean, norm.input_std):
                assert stats.shape == (9,) and np.isfinite(stats).all()
        assert 0 < loaded < len(blob)

    def test_readable_by_numpy(self, tmp_path):
        config = NetworkConfig(cell_kind="gru", layer_widths=(4,),
                               dropout_rate=0.0, dropout_after_layers=(),
                               output_activation="tanh", input_width=9)
        params = init_params(config, 23)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, config, self.make_norm())
        with np.load(path) as archive:
            assert np.array_equal(archive["w_out"], params.w_out)
