"""Tests for the benchmark's own helpers: statistics, spans, patching, checks."""

import json
import math
import sys

import pytest

import harness
import pournet.dtw
import pournet.training
import run
import stats
from pournet.data import split_dataset
from pournet.dtw import DTWResult
from pournet.network import CellKind, NetworkConfig
from pournet.synth import SynthParams, generate_dataset
from pournet.training import TrainConfig
from tracing import Span, Tracer, self_times, summarize, traced
from workloads import (DTWLongWorkload, EvaluateWorkload, Ledger,
                       TrainWorkload, quality)


# --- tail percentile ------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    found = stats.tail(list(range(n)))
    if expected is None:
        assert found is None
    else:
        p, value, count = found
        assert (p, count) == (expected, n)
        assert sum(v > value for v in range(n)) >= 10


def test_spread_is_interquartile_range_over_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# --- self time over nested spans -----------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_at_every_depth():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        traced_middle()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert [s.name for s in tracer.spans] == ["outer", "middle", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    assert self_times(tracer.spans) == [3.0, 2.5, 1.0, 1.0]
    totals = summarize(tracer.spans, "setup")
    assert totals["leaf"] == [2.0, 2]
    assert totals["outer"] == [3.0, 1]


def test_self_time_merges_overlapping_children():
    spans = [Span("p", 0.0, 10.0, None, "m"), Span("a", 1.0, 4.0, 0, "m"),
             Span("b", 3.0, 6.0, 0, "m"), Span("c", 9.0, 12.0, 0, "m")]
    # children cover [1, 6] and [9, 10] of the parent
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_counters_and_phase_are_recorded_per_call():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda args, kwargs: f"f.{args[0]}", lambda x: x,
                          count=lambda args, kwargs, result: {"n": result})
    wrapped(2)
    tracer.phase = "measure"
    wrapped(3)
    assert [(s.name, s.phase) for s in tracer.spans] == [
        ("f.2", "setup"), ("f.3", "measure")]
    assert tracer.counters[("setup", "n")] == 2
    assert tracer.counters[("measure", "n")] == 3


# --- name patching reaches nested callers --------------------------------

def _tiny_dataset(n=20):
    return generate_dataset(SynthParams(num_sequences=n, seed=3,
                                        length_range=(8, 12)))


def test_patching_reaches_calls_between_modules_and_restores():
    original = pournet.dtw.fastdtw
    pairs = [([0.0, 1.0, 2.0, 1.0], [0.0, 2.0, 1.0])] * 3
    tracer = Tracer()
    with traced(tracer):
        assert pournet.dtw.fastdtw is not original
        pournet.dtw.score_testset(pairs, 1)
    assert pournet.dtw.fastdtw is original
    names = [s.name for s in tracer.spans]
    assert names == ["dtw.score_testset"] + ["dtw.fastdtw"] * 3
    assert all(s.parent == 0 for s in tracer.spans[1:])


def test_patching_reaches_the_training_loop():
    data = _tiny_dataset()
    net = NetworkConfig(cell_kind=CellKind.GRU, output_activation="tanh")
    config = TrainConfig(network=net, epochs=2, batch_size=4, seed=0)
    tracer = Tracer()
    with traced(tracer):
        pournet.training.train(data, config)
    totals = summarize(tracer.spans, "setup")
    n_train = len(split_dataset(data, 0)[0])
    batches = math.ceil(n_train / 4)
    assert totals["network.forward_train"][1] == batches * 2
    assert totals["network.backward"][1] == batches * 2
    assert totals["optim.adam_step"][1] == batches * 2
    assert totals["network.forward_eval"][1] == 2 + 1  # val per epoch, test
    train_span = next(i for i, s in enumerate(tracer.spans)
                      if s.name == "training.train")
    assert all(s.parent == train_span for s in tracer.spans[train_span + 1:])


# --- traced workload runs ------------------------------------------------

def test_traced_evaluate_counts_two_fastdtw_calls_per_sequence(tmp_path):
    wl = EvaluateWorkload(n_train=20, n_test=6, epochs=2)
    ledger = Ledger()
    tracer, plain, spanned = harness.traced_run(wl, 5, tmp_path, ledger)
    metrics = harness.layer_metrics(tracer, plain, spanned)
    assert ledger.failures == []
    sequences = sum(s.seqs for s in spanned)
    assert sequences == 6 * wl.trace_ops // 2  # one predict + eval-dtw round each
    assert metrics["dtw.fastdtw.calls"] == 2 * sequences
    assert metrics["dtw.fastdtw.calls_per_seq"] == 2.0
    assert metrics["network.forward_eval.calls"] == 2 * sequences
    assert metrics["network.forward_train.calls"] == 0
    assert metrics["data.real_step_fraction"] == 1.0
    assert metrics["synth.generate_dataset.s"] > 0.0
    assert quality(wl)["dtw.mean_distance_lbf"] > 0.0


def test_traced_train_counts_batches_times_epochs(tmp_path):
    wl = TrainWorkload("lstm", "sigmoid", n_sequences=40, epochs=2,
                       batch_size=8)
    ledger = Ledger()
    tracer, plain, spanned = harness.traced_run(wl, 2, tmp_path, ledger)
    metrics = harness.layer_metrics(tracer, plain, spanned)
    assert ledger.failures == []
    batches = math.ceil(wl.n_train / 8)
    assert metrics["network.forward_train.calls"] == batches * 2 * wl.trace_ops
    assert metrics["network.backward.calls"] == batches * 2 * wl.trace_ops
    assert metrics["dtw.fastdtw.calls"] == 0
    assert 0.0 < metrics["data.real_step_fraction"] < 1.0


def test_untraced_run_repeats_setup_and_meets_min_ops(tmp_path):
    wl = DTWLongWorkload(fixed_pairs=3, min_len=10, max_len=40)
    ledger = Ledger()
    reading, setups, samples = harness.untraced_run(wl, 4, 0.0, tmp_path,
                                                    ledger)
    assert len(setups) == harness.SETUPS and reading > 0.0
    assert len(samples) == 3
    # 2 calls per pair, plus one determinism check per repeated set-up
    assert ledger.attempted == 2 * 3 + harness.SETUPS - 1
    assert ledger.failures == []
    values = harness.end_to_end_metrics(0.1, reading, setups, samples, ledger)
    assert values["setup_s"] > 0.1 * harness.REF_CAL_S / reading
    assert all(s.host_s > 0.0 for s in samples)
    assert values["ops_ok_ratio"] == 1.0 and values["seq_per_cal"] > 0.0


# --- output checks count failures ----------------------------------------

def test_dtw_long_counts_a_wrong_exact_distance(tmp_path, monkeypatch):
    wl = DTWLongWorkload(fixed_pairs=2, min_len=10, max_len=30)
    ledger = Ledger()
    wl.setup(tmp_path, 1, ledger)
    real = pournet.dtw.dtw_exact

    def a_bit_short(a, b):
        result = real(a, b)
        return DTWResult(distance=result.distance * 0.999, path=result.path)

    monkeypatch.setattr(pournet.dtw, "dtw_exact", a_bit_short)
    wl.op(0, ledger)
    assert ledger.attempted == 2 and ledger.failed == 1
    assert "path costs sum" in ledger.failures[0]


def test_fingerprint_mismatch_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    ledger = Ledger()
    run.check_fingerprint("w", 1, "ab" * 32, {"x": "1"}, ledger)
    run.check_fingerprint("w", 1, "ab" * 32, {"x": "1"}, ledger)
    run.check_fingerprint("w", 1, "ab" * 32, {"x": "2"}, ledger)
    run.check_fingerprint("w", 1, "cd" * 32, {"x": "2"}, ledger)
    assert ledger.attempted == 4 and ledger.failed == 1
    stored = json.loads(next(tmp_path.rglob("w-seed1-abab*.json")).read_text())
    assert stored == {"x": "1"}


def test_fingerprint_key_covers_benchmark_code_and_numeric_stack():
    env = {name: "a" for name in run.FINGERPRINT_ENV}
    keys = {run.fingerprint_key(env)}
    for name in run.FINGERPRINT_ENV:
        keys.add(run.fingerprint_key({**env, name: "b"}))
    assert len(keys) == 1 + len(run.FINGERPRINT_ENV)
    assert {"benchmark_sha256", "numpy", "blas"} <= set(run.FINGERPRINT_ENV)


def test_train_loss_check_needs_a_falling_loss():
    from workloads import _loss_problems
    header = ["epoch", "train_loss", "val_loss"]
    assert _loss_problems([header, ["1", "0.5", "0.4"], ["2", "0.3", "0.2"]],
                          2) == []
    assert _loss_problems([header, ["1", "0.5", "0.4"], ["2", "0.6", "0.2"]],
                          2)
    assert _loss_problems([header, ["1", "nan", "0.4"], ["2", "0.3", "0.2"]],
                          2)
    assert _loss_problems([header, ["1", "0.5", "0.4"]], 2)
    assert _loss_problems([], 2)


def test_tracing_restores_every_name_even_after_an_error():
    modules = [m for n, m in sys.modules.items()
               if n == "pournet" or n.startswith("pournet.")]
    before = [dict(vars(m)) for m in modules]
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            raise RuntimeError("stop")
    after = [dict(vars(m)) for m in modules]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)
