"""End-to-end training: split, normalize, batch, optimize, evaluate.

The loop reproduces the fixed protocol: a 70/27/3 split, target scaling
matched to the output head, per-epoch reshuffling into mini-batches
padded to the batch maximum, Adam updates, and per-epoch train plus
validation losses. Validation always runs in eval mode.

The training split is normalized and padded once per run, into one
PaddedBatch; each mini-batch is cut from it with PaddedBatch.select,
which gives the same bits as padding the mini-batch's sequences anew.

Prediction runs in length-sorted padded batches of PREDICT_CHUNK (32)
sequences. Padding never reaches a sequence's real steps, but a batch of
another width can take another BLAS code path, so a batched curve agrees
with the same sequence predicted alone to about 1e-15 lbf, not bit for
bit; repeated runs stay byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import fit_normalization, pad_and_batch, split_dataset
from .network import (NetworkConfig, NetworkParams, network_backward,
                      network_forward, init_params)
from .optim import NonFiniteGradientError, adam_step, init_adam, mse_loss

# Sequences per eval-mode forward pass in predict. Wider chunks are no
# faster on 20-50 step sequences, but hold a larger forward cache.
PREDICT_CHUNK = 32


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss or gradient; carries the epoch."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters around a network architecture."""

    network: NetworkConfig
    epochs: int = 150
    lr: float = 0.01
    batch_size: int = 32
    seed: int = 0
    masked_loss: bool = True  # off = padding counts toward the loss
    keep_best_validation: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError("learning rate must be positive and finite")


@dataclass
class TrainReport:
    """Per-epoch losses and timings plus the final internal-test loss."""

    train_losses: list
    val_losses: list
    epoch_seconds: list
    final_test_loss: float


def _loss_mask(batch, masked: bool):
    return batch.mask if masked else np.ones_like(batch.mask)


def _eval_loss(params, net: NetworkConfig, batch, masked: bool) -> float:
    preds, _ = network_forward(params, net, batch, mode="eval")
    loss, _ = mse_loss(preds, batch.targets, _loss_mask(batch, masked))
    return loss


def _finite_loss(loss: float, epoch: int, name: str, when: str = "in") -> float:
    """loss, if finite; else TrainingDivergedError naming it and the epoch."""
    if not np.isfinite(loss):
        raise TrainingDivergedError(
            epoch, f"non-finite {name} loss {when} epoch {epoch}")
    return loss


# an overflow on the way to a non-finite loss is reported once, by its check
@np.errstate(over="ignore", invalid="ignore")
def train(dataset, config: TrainConfig):
    """Train on a dataset of pouring sequences.

    Returns (params, normalization spec, report). Parameters come from
    the final epoch unless keep_best_validation is set, in which case the
    epoch with the lowest validation loss wins. A non-finite loss or
    gradient raises TrainingDivergedError with its epoch.
    """
    train_seqs, val_seqs, test_seqs = split_dataset(dataset, config.seed)
    norm = fit_normalization(train_seqs, config.network.output_activation)

    init_ss, shuffle_ss, dropout_ss = np.random.SeedSequence(config.seed).spawn(3)
    params = init_params(config.network, init_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)
    adam = init_adam(params, lr=config.lr)
    train_batch = pad_and_batch(train_seqs, norm)
    val_batch = pad_and_batch(val_seqs, norm)

    train_losses, val_losses, epoch_seconds = [], [], []
    best = None
    for epoch in range(1, config.epochs + 1):
        tic = time.perf_counter()
        order = shuffle_rng.permutation(len(train_seqs))
        weighted_sum = 0.0
        weight = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = train_batch.select(order[start:start + config.batch_size])
            preds, cache = network_forward(params, config.network, batch,
                                           mode="train", rng=dropout_rng)
            mask = _loss_mask(batch, config.masked_loss)
            loss, dpred = mse_loss(preds, batch.targets, mask)
            _finite_loss(loss, epoch, "training")
            grads = network_backward(params, config.network, cache, dpred, mask)
            try:
                adam, params = adam_step(adam, params, grads)
            except NonFiniteGradientError as exc:
                raise TrainingDivergedError(epoch, f"{exc} in epoch {epoch}") from exc
            n_real = float(mask.sum())
            weighted_sum += loss * n_real
            weight += n_real
        train_losses.append(_finite_loss(weighted_sum / weight, epoch, "training"))
        val_loss = _eval_loss(params, config.network, val_batch, config.masked_loss)
        val_losses.append(_finite_loss(val_loss, epoch, "validation"))
        epoch_seconds.append(time.perf_counter() - tic)
        if config.keep_best_validation and (best is None or val_loss < best[0]):
            best = (val_loss, NetworkParams(params.layout, params.vector.copy()))

    if best is not None:
        params = best[1]
    test_batch = pad_and_batch(test_seqs, norm)
    test_loss = _eval_loss(params, config.network, test_batch, config.masked_loss)
    _finite_loss(test_loss, config.epochs, "test", when="after")
    report = TrainReport(train_losses=train_losses, val_losses=val_losses,
                         epoch_seconds=epoch_seconds, final_test_loss=test_loss)
    return params, norm, report


def predict(params, net: NetworkConfig, norm, seqs) -> list:
    """Denormalized predicted weight curves (lbf), one per sequence, in
    input order.

    Sequences are sorted stably by length and run PREDICT_CHUNK at a time
    as one padded eval-mode batch each, so neighbours in a batch carry
    little padding.
    """
    seqs = list(seqs)
    order = sorted(range(len(seqs)), key=lambda k: len(seqs[k]))
    curves = [None] * len(seqs)
    for start in range(0, len(order), PREDICT_CHUNK):
        chunk = order[start:start + PREDICT_CHUNK]
        batch = pad_and_batch([seqs[k] for k in chunk], norm)
        preds, _ = network_forward(params, net, batch, mode="eval")
        for col, k in enumerate(chunk):
            curves[k] = norm.denormalize_targets(preds[:len(seqs[k]), col])
    return curves


def export_loss_curve(report: TrainReport, path) -> None:
    """Write epoch,train_loss,val_loss rows, one per epoch."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        rows = zip(report.train_losses, report.val_losses)
        for epoch, (train_loss, val_loss) in enumerate(rows, start=1):
            fh.write(f"{epoch},{train_loss!r},{val_loss!r}\n")


def export_prediction(seq, predicted, path) -> None:
    """Write t,theta,actual_f,predicted_f rows for one sequence."""
    predicted = np.asarray(predicted, dtype=np.float64)
    if predicted.shape != (len(seq),):
        raise ValueError("predicted curve length must match the sequence")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,theta,actual_f,predicted_f\n")
        for t, (theta, actual, pred) in enumerate(zip(
                seq.thetas.tolist(), seq.weights.tolist(), predicted.tolist())):
            fh.write(f"{t},{theta!r},{actual!r},{pred!r}\n")
