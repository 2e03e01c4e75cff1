"""Untraced and traced runs of one workload, and the metrics they yield."""

from __future__ import annotations

import resource
import time
from statistics import median

import numpy as np

from tracing import Tracer, summarize, traced

SETUPS = 3  # set-up repeats per untraced run; setup_s is their median
RECALIBRATE_S = 0.5  # longest stretch of operations between two readings
# calibrate() on the VM the README's baselines come from, at its faster
# speed; times divided by a reading and multiplied by this are "reference
# seconds", comparable across slow and fast spells of the host
REF_CAL_S = 0.03
CAL_ROUNDS = 2500  # rounds of the calibration kernel, about 50 ms


def calibrate():
    """Seconds this host takes for a fixed mix of small numpy operations and
    interpreted float loops, the kinds of work pournet does.

    The kernel is the benchmark's own code, so a change to pournet cannot
    move it, while a slow spell of the host slows it much as it slows
    pournet.
    """
    rng = np.random.default_rng(0)
    w = rng.standard_normal((16, 48))
    h = rng.standard_normal((32, 16))
    tic = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        z = h @ w
        h = np.tanh(z[:, :16]) * 0.5 + 1.0 / (1.0 + np.exp(-z[:, 16:32]))
        row = h[0].tolist()
        best = row[0]
        for x in row:
            best = abs(x - best) + (x if x < best else best)
    return time.perf_counter() - tic


def normalized_throughput(samples):
    """Work per calibration-kernel time: each operation's wall time is
    divided by the host's calibration reading around it."""
    return (sum(s.work for s in samples)
            / sum(s.wall_s / s.host_s for s in samples))


def untraced_run(wl, seed, seconds, workdir, ledger):
    """Set up SETUPS times, then run operations for `seconds` (at least
    wl.min_ops, and whole rounds of wl.round_ops).

    The host's speed is read with calibrate() first, after each set-up and
    after at most RECALIBRATE_S of operations. Returns (first reading,
    set-ups, samples): each set-up is (wall seconds, mean of the readings
    around it), and each sample carries the readings around it in host_s.
    """
    first_reading = reading = calibrate()
    setups, first = [], None
    for i in range(SETUPS):
        tic = time.perf_counter()
        inputs = wl.setup(workdir, seed, ledger)
        wall = time.perf_counter() - tic
        after = calibrate()
        setups.append((wall, (reading + after) / 2.0))
        reading = after
        if first is None:
            first = inputs
        else:
            ledger.record(f"set-up {i + 1} repeats set-up 1",
                          [] if inputs == first else
                          [f"inputs differ: {sorted(inputs)}"])
    samples, pending = [], []
    last = start = time.perf_counter()
    while (len(samples) < wl.min_ops or len(samples) % wl.round_ops
           or time.perf_counter() - start < seconds):
        pending.append(wl.op(len(samples), ledger))
        samples.append(pending[-1])
        if time.perf_counter() - last >= RECALIBRATE_S:
            reading = _settle(pending, reading)
            last = time.perf_counter()
    if pending:
        _settle(pending, reading)
    return first_reading, setups, samples


def _settle(pending, before):
    """Give the pending samples the mean of the readings around them."""
    after = calibrate()
    for sample in pending:
        sample.host_s = (before + after) / 2.0
    pending.clear()
    return after


def traced_run(wl, seed, workdir, ledger):
    """Set up once under the tracer, then run each of wl.trace_ops
    operations untraced and at once again traced, so that both see the host
    at much the same speed. Returns (tracer, untraced, traced)."""
    tracer = Tracer()
    with traced(tracer):
        wl.setup(workdir, seed, ledger)
    tracer.phase = "measure"
    plain, spanned = [], []
    for k in range(wl.trace_ops):
        plain.append(wl.op(k, ledger))
        with traced(tracer):
            spanned.append(wl.op(k, ledger))
    return tracer, plain, spanned


def end_to_end_metrics(import_s, first_reading, setups, samples, ledger):
    """setup_s is in seconds at the reference speed: the imports scaled by
    the first reading, plus the median set-up scaled by its own."""
    return {
        "setup_s": REF_CAL_S * (import_s / first_reading
                                + median(wall / host for wall, host in setups)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_ratio": 1.0 - ledger.failed / ledger.attempted,
        "seq_per_cal": normalized_throughput(samples),
    }


# span name -> whether its call count is reported as well as its self time
_SPANS = {
    "network.forward_train": True, "network.backward": True,
    "network.forward_eval": True, "network.save_checkpoint": False,
    "network.load_checkpoint": False, "optim.adam_step": True,
    "optim.mse_loss": False, "data.pad_and_batch": True,
    "data.load_dataset": False, "training.predict": True,
    "training.export_prediction": False, "dtw.fastdtw": True,
    "dtw.dtw_exact": True, "dtw.score_testset": False,
    "dtw.export_alignment": False,
}


def layer_metrics(tracer, plain, spanned):
    """Per-layer figures from the measured phase of a traced run.

    `.s` is summed self time and `.calls` a call count; a function the
    workload never calls reads 0. synth.generate_dataset.s covers set-up,
    the only place the benchmark generates datasets.
    """
    measured = summarize(tracer.spans, "measure")
    setup = summarize(tracer.spans, "setup")
    out = {}
    for name, with_calls in _SPANS.items():
        own, calls = measured.get(name, (0.0, 0))
        out[f"{name}.s"] = own
        if with_calls:
            out[f"{name}.calls"] = calls
    out["training.train.self_s"] = measured.get("training.train", (0.0, 0))[0]
    out["cli.run.self_s"] = measured.get("cli.run", (0.0, 0))[0]
    out["synth.generate_dataset.s"] = setup.get("synth.generate_dataset",
                                                (0.0, 0))[0]

    counters = tracer.counters
    padded = counters[("measure", "data.padded_steps")]
    out["data.real_step_fraction"] = (
        counters[("measure", "data.real_steps")] / padded if padded else 0.0)
    exact_s = out["dtw.dtw_exact.s"]
    out["dtw.exact_cells_per_s"] = (
        counters[("measure", "dtw.exact_cells")] / exact_s if exact_s else 0.0)
    out["dtw.fastdtw.calls_per_seq"] = (
        out["dtw.fastdtw.calls"] / sum(s.seqs for s in spanned))
    out["trace.overhead_pct"] = 100.0 * (
        sum(s.wall_s for s in spanned) / sum(s.wall_s for s in plain) - 1.0)
    return out
