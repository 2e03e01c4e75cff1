"""Training loop: protocol, determinism, prediction and exports."""

import numpy as np
import pytest

from pournet.data import (PaddedBatch, fit_normalization, pad_and_batch,
                          save_dataset, split_dataset)
from pournet import training
from pournet.network import NetworkConfig, network_backward, network_forward
from pournet.optim import adam_step, mse_loss
from pournet.synth import SynthParams, generate_dataset
from pournet.training import (TrainConfig, TrainingDivergedError, TrainReport,
                              export_loss_curve, export_prediction, predict,
                              train)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(SynthParams(num_sequences=30, noise_std=0.01,
                                        seed=21))


def small_net(cell="gru", head="tanh"):
    return NetworkConfig(cell_kind=cell, layer_widths=(4, 4),
                         dropout_rate=0.3, dropout_after_layers=(2,),
                         output_activation=head, input_width=9)


def small_config(cell="gru", head="tanh", **kwargs):
    defaults = dict(network=small_net(cell, head), epochs=3, batch_size=8,
                    seed=5)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestTrain:
    def test_report_entry_counts(self, dataset):
        _, _, report = train(dataset, small_config(epochs=1))
        assert len(report.train_losses) == 1
        assert len(report.val_losses) == 1
        assert len(report.epoch_seconds) == 1

    def test_deterministic_bitwise(self, dataset):
        p1, n1, r1 = train(dataset, small_config())
        p2, n2, r2 = train(dataset, small_config())
        assert np.array_equal(p1.vector, p2.vector)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses
        assert n1.target_min == n2.target_min
        assert np.array_equal(n1.input_mean, n2.input_mean)

    def test_loss_decreases_on_easy_data(self, dataset):
        _, _, report = train(dataset, small_config(epochs=25))
        assert report.train_losses[-1] < report.train_losses[0]

    def test_normalization_fitted_on_train_split_only(self, dataset):
        config = small_config()
        _, norm, _ = train(dataset, config)
        train_part, _, _ = split_dataset(dataset, config.seed)
        expected = fit_normalization(train_part,
                                     config.network.output_activation)
        assert norm.target_min == expected.target_min
        assert norm.target_max == expected.target_max
        assert np.array_equal(norm.input_mean, expected.input_mean)
        assert np.array_equal(norm.input_std, expected.input_std)

    def test_test_split_untouched(self, dataset, tmp_path):
        config = small_config()
        _, _, test_part = split_dataset(dataset, config.seed)
        before = tmp_path / "before.jsonl"
        save_dataset(test_part, before)
        train(dataset, config)
        _, _, test_after = split_dataset(dataset, config.seed)
        after = tmp_path / "after.jsonl"
        save_dataset(test_after, after)
        assert before.read_bytes() == after.read_bytes()

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("head", ["sigmoid", "linear", "tanh"])
    def test_all_six_variants_trainable(self, dataset, cell, head):
        config = TrainConfig(network=NetworkConfig(cell_kind=cell,
                                                   output_activation=head),
                             epochs=1, batch_size=16, seed=2)
        params, _, report = train(dataset, config)
        assert len(report.train_losses) == 1
        assert np.isfinite(report.final_test_loss)

    def test_unmasked_loss_mode_differs(self, dataset):
        masked = train(dataset, small_config())[2]
        unmasked = train(dataset, small_config(masked_loss=False))[2]
        assert masked.train_losses != unmasked.train_losses

    def test_keep_best_validation(self, dataset):
        # lr 0.1 makes validation bounce, so the best epoch is not the last
        config = small_config(epochs=10, lr=0.1, keep_best_validation=True)
        params_best, norm, report = train(dataset, config)
        best_epoch = int(np.argmin(report.val_losses))
        assert best_epoch != len(report.val_losses) - 1

        from pournet.optim import mse_loss
        val = split_dataset(dataset, config.seed)[1]
        batch = pad_and_batch(val, norm)
        preds, _ = network_forward(params_best, config.network, batch,
                                   mode="eval")
        val_loss, _ = mse_loss(preds, batch.targets, batch.mask)
        assert val_loss == min(report.val_losses)

        params_last, _, _ = train(dataset, small_config(epochs=10, lr=0.1))
        assert not np.array_equal(params_best.vector, params_last.vector)

    def test_best_validation_copy_does_not_alias_live_arena(self, dataset,
                                                           monkeypatch):
        stepped = []

        def recording_step(*args):
            state, params = adam_step(*args)
            stepped.append(params.vector)
            return state, params

        monkeypatch.setattr(training, "adam_step", recording_step)
        config = small_config(epochs=10, lr=0.1, keep_best_validation=True)
        params, _, report = train(dataset, config)
        assert int(np.argmin(report.val_losses)) != config.epochs - 1
        assert any(np.array_equal(params.vector, v) for v in stepped)
        assert not any(np.shares_memory(params.vector, v) for v in stepped)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mini_batches_equal_pad_and_batch_bit_for_bit(self, dataset,
                                                           monkeypatch):
        """Mini-batches are cut from the split padded once, and each is
        the batch pad_and_batch builds from its sequences, in every
        epoch's shuffle order and for the short last batch."""
        cut, fed = [], []
        select = PaddedBatch.select

        def recording_select(self, idx):
            batch = select(self, idx)
            cut.append((np.array(idx), batch))
            return batch

        def recording_forward(params, net, batch, mode="eval", rng=None):
            if mode == "train":
                fed.append(batch)
            return network_forward(params, net, batch, mode, rng)

        monkeypatch.setattr(PaddedBatch, "select", recording_select)
        monkeypatch.setattr(training, "network_forward", recording_forward)
        config = small_config(epochs=3)
        _, norm, _ = train(dataset, config)
        train_seqs = split_dataset(dataset, config.seed)[0]
        assert len(train_seqs) == 21  # batches of 8, 8 and 5 per epoch
        assert [len(idx) for idx, _ in cut] == [8, 8, 5] * 3
        assert [batch for _, batch in cut] == fed
        orders = [np.concatenate([idx for idx, _ in cut[k:k + 3]])
                  for k in (0, 3, 6)]
        for order in orders:
            assert sorted(order) == list(range(21))
        assert not np.array_equal(orders[0], orders[1])
        for idx, batch in cut:
            want = pad_and_batch([train_seqs[k] for k in idx], norm)
            for name in ("inputs", "targets", "mask", "lengths"):
                got, ref = getattr(batch, name), getattr(want, name)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    # the overflow on the way to the non-finite loss raises no warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises_with_epoch(self, dataset):
        config = small_config(head="linear", lr=1e300, epochs=4)
        with pytest.raises(TrainingDivergedError) as err:
            train(dataset, config)
        assert err.value.epoch >= 1

    def test_overflowing_epoch_loss_raises_in_its_epoch(self, dataset,
                                                        monkeypatch):
        """Every batch loss of 1e307 is finite, but the epoch's weighted
        sum of them overflows."""
        def huge_loss(preds, targets, mask):
            _, dpred = mse_loss(preds, targets, mask)
            return 1e307, dpred

        monkeypatch.setattr(training, "mse_loss", huge_loss)
        with pytest.raises(TrainingDivergedError,
                           match=r"^non-finite training loss in epoch 1$") as err:
            train(dataset, small_config())
        assert err.value.epoch == 1

    def test_non_finite_test_loss_raises_after_last_epoch(self, dataset,
                                                          monkeypatch):
        """_eval_loss runs once per epoch on the validation split, then
        once on the test split."""
        eval_loss = training._eval_loss
        calls = []

        def nan_test_loss(*args):
            calls.append(1)
            return float("nan") if len(calls) == 3 else eval_loss(*args)

        monkeypatch.setattr(training, "_eval_loss", nan_test_loss)
        with pytest.raises(TrainingDivergedError,
                           match=r"^non-finite test loss after epoch 2$") as err:
            train(dataset, small_config(epochs=2))
        assert err.value.epoch == 2
        assert len(calls) == 3

    def test_non_finite_gradient_names_leaf_and_epoch(self, dataset,
                                                       monkeypatch):
        def poisoned_backward(*args):
            grads = network_backward(*args)
            grads.layers[1].u[0, 0] = np.nan
            return grads

        monkeypatch.setattr(training, "network_backward", poisoned_backward)
        with pytest.raises(TrainingDivergedError,
                           match=r"non-finite gradient at layers\[1\]\.u "
                                 r"in epoch 1$") as err:
            train(dataset, small_config())
        assert err.value.epoch == 1

    def test_validation_runs_in_eval_mode(self, dataset):
        """With dropout rate 0, one train-mode pass equals the eval pass
        bit for bit, so recorded losses are mode-independent."""
        net = NetworkConfig(cell_kind="gru", layer_widths=(4, 4),
                            dropout_rate=0.0, dropout_after_layers=(2,),
                            output_activation="tanh", input_width=9)
        config = TrainConfig(network=net, epochs=1, batch_size=8, seed=5)
        params, norm, _ = train(dataset, config)
        val = split_dataset(dataset, config.seed)[1]
        batch = pad_and_batch(val, norm)
        p_train, _ = network_forward(params, net, batch, mode="train",
                                     rng=np.random.default_rng(0))
        p_eval, _ = network_forward(params, net, batch, mode="eval")
        assert np.array_equal(p_train, p_eval)


class TestTrainConfig:
    def test_bad_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(network=small_net(), epochs=0)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(network=small_net(), batch_size=0)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(network=small_net(), lr=0.0)

    def test_protocol_defaults(self):
        config = TrainConfig(network=small_net())
        assert config.epochs == 150
        assert config.lr == 0.01
        assert config.batch_size == 32
        assert config.masked_loss


@pytest.fixture(scope="module")
def trained(dataset):
    config = small_config(head="sigmoid", epochs=4)
    params, norm, _ = train(dataset, config)
    return params, config.network, norm


class TestPredict:
    def test_output_length(self, dataset, trained):
        params, net, norm = trained
        seq = dataset[0]
        assert predict(params, net, norm, [seq])[0].shape == (len(seq),)

    def test_sigmoid_head_stays_in_training_range(self, dataset, trained):
        params, net, norm = trained
        for seq in dataset[:5]:
            curve = predict(params, net, norm, [seq])[0]
            assert np.all(curve >= norm.target_min)
            assert np.all(curve <= norm.target_max)

    def test_repeated_calls_identical(self, dataset, trained):
        params, net, norm = trained
        seq = dataset[3]
        assert np.array_equal(predict(params, net, norm, [seq])[0],
                              predict(params, net, norm, [seq])[0])

    def test_batched_curves_match_one_at_a_time(self, trained):
        """Several length-sorted chunks, some wider than one sequence: each
        curve is within 1e-12 lbf of the same sequence predicted alone
        (summation order inside BLAS may differ, so not bit for bit)."""
        params, net, norm = trained
        count = 2 * training.PREDICT_CHUNK + 5
        unseen = generate_dataset(SynthParams(num_sequences=count,
                                              noise_std=0.01, seed=78))
        batched = predict(params, net, norm, unseen)
        assert len(batched) == len(unseen)
        for seq, curve in zip(unseen, batched):
            alone = predict(params, net, norm, [seq])[0]
            assert curve.shape == alone.shape == (len(seq),)
            np.testing.assert_allclose(curve, alone, rtol=0.0, atol=1e-12)

    def test_empty_input(self, trained):
        params, net, norm = trained
        assert predict(params, net, norm, []) == []

    def test_output_order_follows_input_order(self, dataset, trained):
        params, net, norm = trained
        seqs = list(dataset)
        assert len({len(s) for s in seqs}) > 1
        shuffled = [seqs[k] for k in np.random.default_rng(4).permutation(len(seqs))]
        by_id = dict(zip((s.id for s in seqs), predict(params, net, norm, seqs)))
        for seq, curve in zip(shuffled, predict(params, net, norm, shuffled)):
            np.testing.assert_allclose(curve, by_id[seq.id], rtol=0.0,
                                       atol=1e-12)

    def test_unseen_set_of_289_sequences(self, trained):
        params, net, norm = trained
        unseen = generate_dataset(SynthParams(num_sequences=289,
                                              noise_std=0.01, seed=77))
        curves = predict(params, net, norm, unseen)
        assert len(curves) == 289
        assert all(len(c) == len(s) for s, c in zip(unseen, curves))


class TestExports:
    def test_loss_curve_round_trip(self, dataset, tmp_path):
        _, _, report = train(dataset, small_config(epochs=3))
        path = tmp_path / "losses.csv"
        export_loss_curve(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 1 + 3
        for i, line in enumerate(lines[1:], start=1):
            epoch, train_loss, val_loss = line.split(",")
            assert int(epoch) == i
            assert float(train_loss) == report.train_losses[i - 1]
            assert float(val_loss) == report.val_losses[i - 1]

    def test_single_epoch_single_row(self, dataset, tmp_path):
        _, _, report = train(dataset, small_config(epochs=1))
        path = tmp_path / "losses.csv"
        export_loss_curve(report, path)
        assert len(path.read_text().splitlines()) == 2

    def test_full_protocol_row_count(self, tmp_path):
        # a 150-epoch report exports 150 data rows plus the header
        report = TrainReport(train_losses=[0.1] * 150,
                             val_losses=[0.2] * 150,
                             epoch_seconds=[0.01] * 150,
                             final_test_loss=0.15)
        path = tmp_path / "losses.csv"
        export_loss_curve(report, path)
        assert len(path.read_text().splitlines()) == 151

    def test_prediction_export(self, dataset, tmp_path):
        config = small_config(epochs=1)
        params, norm, _ = train(dataset, config)
        seq = dataset[0]
        curve = predict(params, config.network, norm, [seq])[0]
        path = tmp_path / "pred.csv"
        export_prediction(seq, curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,theta,actual_f,predicted_f"
        assert len(lines) == 1 + len(seq)
        t, theta, actual, predicted = lines[1].split(",")
        assert int(t) == 0
        assert float(theta) == seq.thetas[0]
        assert float(actual) == seq.weights[0]
        assert float(predicted) == curve[0]

    def test_prediction_export_length_mismatch(self, dataset):
        with pytest.raises(ValueError):
            export_prediction(dataset[0], np.zeros(1), "unused.csv")

