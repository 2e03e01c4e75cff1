"""Acceptance suite: one test per exit criterion, run with `pytest -s`
to see the per-criterion PASS lines.

1. BPTT gradients match central finite differences for every cell/head
   variant on a small network, within 1e-4, in under 10 s.
2. Exact DTW equals exhaustive path enumeration on short pairs; FastDTW
   at full radius equals exact DTW on 1000 longer pairs, exactly.
3. FastDTW never undercuts the exact distance (zero tolerance).
4. GRU-tanh training on 200 synthetic sequences reaches 10%/25% of the
   epoch-1 train/validation MSE within 150 epochs, in under 10 min.
5. The 70/27/3 split of 1307 sequences is (914, 353, 40), disjoint and
   exhaustive.
6. Doubling batch padding changes no masked-loss value and no gradient.
7. Identical training flags produce byte-identical artifacts.
8. Module invariants run as property tests across the rest of the suite.
"""

import time

import numpy as np

from oracles import enumerate_dtw_distance, long_pair_corpus, short_pair_corpus
from pournet.cli import run
from pournet.data import PaddedBatch, split_dataset
from pournet.dtw import dtw_exact, fastdtw
from pournet.gradcheck import check_network_gradients, random_batch
from pournet.network import (NetworkConfig, init_params, network_backward,
                             network_forward)
from pournet.optim import mse_loss
from pournet.synth import SynthParams, generate_dataset
from pournet.training import TrainConfig, train

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_EPSILON = 1e-5


def announce(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = {}
    for cell in ("lstm", "gru"):
        for head in ("sigmoid", "linear", "tanh"):
            err = check_network_gradients(cell, head, seed=7,
                                          epsilon=GRADCHECK_EPSILON)
            worst[f"{cell}-{head}"] = err
            assert err <= GRADCHECK_TOLERANCE, \
                f"{cell}-{head} gradient error {err:.3e} exceeds 1e-4"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"
    announce(1, "BPTT matches finite differences for all six variants "
                f"(worst {max(worst.values()):.2e}, {elapsed:.1f}s)")


def test_criterion_2_dtw_oracle_equivalence():
    short = short_pair_corpus(seed=11, count=200, max_len=6)
    for a, b in short:
        assert dtw_exact(a, b).distance == enumerate_dtw_distance(a, b)

    long = long_pair_corpus(seed=42, count=1000, max_len=64)
    for a, b in long:
        exact = dtw_exact(a, b)
        full = fastdtw(a, b, radius=max(len(a), len(b)))
        assert full.distance == exact.distance
        assert full.path == exact.path
    announce(2, "dtw_exact equals enumeration on 200 short pairs; "
                "full-radius fastdtw equals dtw_exact on 1000 pairs")


def test_criterion_3_fastdtw_lower_bound():
    violations = 0
    for corpus in (short_pair_corpus(seed=11, count=200, max_len=6),
                   long_pair_corpus(seed=42, count=1000, max_len=64)):
        for a, b in corpus:
            if fastdtw(a, b, radius=1).distance < dtw_exact(a, b).distance:
                violations += 1
    assert violations == 0
    announce(3, "fastdtw distance >= exact distance on all 1200 pairs "
                "(zero tolerance)")


def test_criterion_4_training_efficacy():
    started = time.perf_counter()
    dataset = generate_dataset(SynthParams(num_sequences=200, noise_std=0.01,
                                           seed=2024))
    config = TrainConfig(network=NetworkConfig(cell_kind="gru",
                                               output_activation="tanh"),
                         epochs=150, lr=0.01, batch_size=32, seed=7)
    _, _, report = train(dataset, config)
    elapsed = time.perf_counter() - started
    train_ratio = report.train_losses[-1] / report.train_losses[0]
    val_ratio = report.val_losses[-1] / report.val_losses[0]
    assert train_ratio <= 0.10, f"train ratio {train_ratio:.3f} > 0.10"
    assert val_ratio <= 0.25, f"validation ratio {val_ratio:.3f} > 0.25"
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"
    announce(4, f"GRU-tanh reached train ratio {train_ratio:.3f} (<=0.10) "
                f"and val ratio {val_ratio:.3f} (<=0.25) in {elapsed:.0f}s")


def test_criterion_5_split_arithmetic():
    dataset = generate_dataset(SynthParams(num_sequences=1307, seed=13))
    train_part, val_part, test_part = split_dataset(dataset, seed=0)
    sizes = (len(train_part), len(val_part), len(test_part))
    assert sizes == (914, 353, 40)
    ids = [s.id for part in (train_part, val_part, test_part) for s in part]
    assert len(ids) == 1307
    assert set(ids) == {s.id for s in dataset}
    announce(5, "1307 sequences split into (914, 353, 40), disjoint "
                "and exhaustive")


def _double_padding(batch):
    extra = batch.num_steps

    def grow(a):
        pad = np.zeros((extra,) + a.shape[1:])
        return np.concatenate([a, pad], axis=0)

    return PaddedBatch(inputs=grow(batch.inputs), targets=grow(batch.targets),
                       lengths=batch.lengths)


def test_criterion_6_padding_invariance():
    cases = 0
    for seed in range(24):
        cell = ("lstm", "gru")[seed % 2]
        head = ("sigmoid", "linear", "tanh")[seed % 3]
        rate = 0.5 if seed % 4 else 0.0
        config = NetworkConfig(cell_kind=cell, layer_widths=(4, 4),
                               dropout_rate=rate, dropout_after_layers=(1, 2),
                               output_activation=head, input_width=3)
        params = init_params(config, seed)
        batch = random_batch(np.random.default_rng(seed), 6, 3, 3)
        doubled = _double_padding(batch)
        preds, cache = network_forward(params, config, batch, mode="train",
                                       rng=np.random.default_rng(900 + seed))
        preds2, cache2 = network_forward(params, config, doubled, mode="train",
                                         rng=np.random.default_rng(900 + seed))
        loss, dpred = mse_loss(preds, batch.targets, batch.mask)
        loss2, dpred2 = mse_loss(preds2, doubled.targets, doubled.mask)
        assert loss == loss2, f"case {seed}: masked loss changed"
        grads = network_backward(params, config, cache, dpred, batch.mask)
        grads2 = network_backward(params, config, cache2, dpred2, doubled.mask)
        for (path, g), (_, g2) in zip(grads.leaves, grads2.leaves):
            assert np.array_equal(g, g2), f"case {seed}: gradient {path} changed"
        cases += 1
    assert cases >= 20
    announce(6, f"doubling padding left losses and gradients unchanged "
                f"in {cases} seeded cases")


def test_criterion_7_run_determinism(tmp_path):
    data = tmp_path / "data.jsonl"
    assert run(["synth", "--n", "40", "--seed", "5", "--noise", "0.01",
                "--out", str(data)]) == 0
    artifacts = []
    for tag in ("first", "second"):
        model = tmp_path / f"{tag}.npz"
        losses = tmp_path / f"{tag}.csv"
        code = run(["train", "--data", str(data), "--cell", "gru",
                    "--head", "tanh", "--epochs", "8", "--batch-size", "8",
                    "--seed", "11", "--out-model", str(model),
                    "--out-losses", str(losses)])
        assert code == 0
        artifacts.append((model.read_bytes(), losses.read_bytes()))
    assert artifacts[0][0] == artifacts[1][0], "checkpoints differ"
    assert artifacts[0][1] == artifacts[1][1], "loss files differ"
    announce(7, "two identical-flag training runs produced byte-identical "
                "checkpoint and loss files")


def test_criterion_8_invariant_suites():
    """The per-module invariants are implemented as property tests in the
    sibling test modules and run with this suite; this entry spot-checks
    one invariant per module family."""
    from pournet.data import fit_normalization
    from pournet.network import NetworkParams
    from pournet.optim import adam_step, init_adam

    rng = np.random.default_rng(99)
    dataset = generate_dataset(SynthParams(num_sequences=12, seed=99))
    spec = fit_normalization(dataset, "tanh")
    values = rng.uniform(0.1, 2.5, size=64)
    back = spec.denormalize_targets(spec.normalize_targets(values))
    assert np.allclose(back, values, rtol=1e-12, atol=1e-12)

    a = rng.standard_normal(20)
    b = rng.standard_normal(25)
    assert dtw_exact(a, b).distance == dtw_exact(b, a).distance

    head_only = (("w_out", (1, 15)), ("b_out", (1,)))
    params = NetworkParams(head_only, rng.standard_normal(16))
    grads = NetworkParams(head_only, rng.standard_normal(16) * 1e6)
    _, updated = adam_step(init_adam(params), params, grads)
    assert np.all(np.isfinite(updated.vector))
    announce(8, "module invariant suites are encoded as property tests "
                "(tests/test_*.py) and pass alongside these spot checks")
