"""The benchmark's workloads: inputs from a seed, timed calls, output checks.

Every workload drives pournet through its user-facing entry points:
``pournet.cli.run`` in-process for training and evaluation, the public
``pournet.dtw`` functions for long-curve DTW. Timed calls go through module
attributes so that a traced run sees them; the output checks use the
functions bound below at import time, which tracing never replaces, and run
outside the timed region.

A workload has ``setup(workdir, seed, ledger)`` returning the digests of the
inputs it wrote, ``op(k, ledger)`` running one timed operation and returning
a Sample, ``fingerprint()`` with digests of what the operations produced,
and ``details(samples)`` and ``quality()`` with the figures a run reports.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median

import numpy as np

from pournet import cli
from pournet import dtw as pournet_dtw
from pournet.data import load_dataset, split_dataset
from pournet.dtw import dtw_exact, fastdtw, validate_warp_path
from pournet.network import load_checkpoint

from stats import tail

SYNTH_LENGTHS = ("--t-min", "20", "--t-max", "50")
REL_TOL = 1e-12  # float reassociation along a warp path stays far below this


class Ledger:
    """Operations attempted, and a reason for each one that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed(self):
        return len(self.failures)


@dataclass
class Sample:
    """One timed operation: wall seconds and what it processed."""

    wall_s: float
    seqs: int  # sequences (train: sequence passes) or curve pairs
    work: float | None = None  # throughput numerator; defaults to seqs
    parts: dict = field(default_factory=dict)  # named sub-timings (s)
    host_s: float | None = None  # calibration reading around the operation

    def __post_init__(self):
        if self.work is None:
            self.work = float(self.seqs)


def throughput(samples):
    """Work over time across all samples.

    The host's speed drifts for seconds at a time, so every second of the
    measured period counts equally rather than every call.
    """
    return sum(s.work for s in samples) / sum(s.wall_s for s in samples)


def call_cli(argv):
    """Run one CLI command in-process; returns (exit code, wall seconds).

    The command's progress lines go to a buffer so the benchmark's own
    output stays machine-readable.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        tic = time.perf_counter()
        code = cli.run([str(arg) for arg in argv])
        wall = time.perf_counter() - tic
    return code, wall


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _exit_problems(code):
    return [] if code == 0 else [f"exit code {code}"]


def _synth(ledger, n, seed, out):
    code, _ = call_cli(["synth", "--n", n, "--seed", seed, "--noise", "0.01",
                        *SYNTH_LENGTHS, "--out", out])
    ledger.record(f"synth {out.name}", _exit_problems(code))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _loss_problems(rows, epochs):
    if rows[:1] != [["epoch", "train_loss", "val_loss"]] or len(rows) != epochs + 1:
        return [f"loss CSV needs a header and {epochs} rows"]
    losses = [(float(r[1]), float(r[2])) for r in rows[1:]]
    problems = []
    if not all(math.isfinite(v) for pair in losses for v in pair):
        problems.append("non-finite loss")
    elif not losses[-1][0] < losses[0][0]:
        problems.append(f"final train loss {losses[-1][0]!r} is not below "
                        f"the epoch-1 loss {losses[0][0]!r}")
    return problems


def _checkpoint_problems(path, cell):
    try:
        _, net, _ = load_checkpoint(path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"checkpoint does not reload: {exc!r}"]
    if net.cell_kind.value != cell:
        return [f"checkpoint holds a {net.cell_kind.value} network"]
    return []


class TrainWorkload:
    """`pournet train` on a criterion-4-scale synthetic set, one cell kind."""

    trace_ops = 2
    min_ops = round_ops = 1

    def __init__(self, cell, head, n_sequences=200, epochs=5, batch_size=32):
        self.cell, self.head = cell, head
        self.n_sequences, self.epochs, self.batch_size = \
            n_sequences, epochs, batch_size
        self._first = None
        self._last_val_loss = None

    def setup(self, workdir, seed, ledger):
        self.dir, self.seed = Path(workdir), seed
        self.data = self.dir / "train.jsonl"
        _synth(ledger, self.n_sequences, seed, self.data)
        self.n_train = len(split_dataset(load_dataset(self.data), seed)[0])
        return {self.data.name: digest(self.data)}

    def op(self, k, ledger):
        model, losses = self.dir / "model.npz", self.dir / "losses.csv"
        model.unlink(missing_ok=True)
        losses.unlink(missing_ok=True)
        code, wall = call_cli([
            "train", "--data", self.data, "--cell", self.cell,
            "--head", self.head, "--epochs", self.epochs,
            "--batch-size", self.batch_size, "--seed", self.seed,
            "--out-model", model, "--out-losses", losses])
        problems = _exit_problems(code)
        if not problems:
            rows = _read_csv(losses)
            problems = (_loss_problems(rows, self.epochs)
                        + _checkpoint_problems(model, self.cell))
            if not problems:
                self._last_val_loss = float(rows[-1][2])
            digests = {model.name: digest(model), losses.name: digest(losses)}
            if self._first is None:
                self._first = digests
            elif digests != self._first:
                problems.append("artifacts differ from the run's first call")
        ledger.record(f"train call {k}", problems)
        return Sample(wall_s=wall, seqs=self.n_train * self.epochs)

    def fingerprint(self):
        return dict(self._first or {})

    def details(self, samples):
        return {f"train_seq_per_s.{self.cell}": throughput(samples),
                f"val_loss.{self.cell}": self._last_val_loss,
                "call_s": [s.wall_s for s in samples]}

    def quality(self):
        return {"training.val_loss": self._last_val_loss}


class EvaluateWorkload:
    """README steps 3-4: `pournet predict`, then `pournet eval-dtw`.

    Each command is an operation of its own, so the host's speed is read
    between the two.
    """

    trace_ops = min_ops = round_ops = 2

    def __init__(self, n_train=200, n_test=300, epochs=5):
        self.n_train, self.n_test, self.epochs = n_train, n_test, epochs
        self._first = {}  # output directory -> digests of its first call
        self._curves = None
        self._gap_pct = None
        self._mean_lbf = None

    def setup(self, workdir, seed, ledger):
        self.dir = Path(workdir)
        train_data = self.dir / "train.jsonl"
        self.test_data = self.dir / "test.jsonl"
        self.model = self.dir / "model.npz"
        self.preds, self.scores = self.dir / "preds", self.dir / "dtw"
        losses = self.dir / "losses.csv"
        _synth(ledger, self.n_train, seed, train_data)
        # held out: the generator's streams for another seed share nothing
        _synth(ledger, self.n_test, seed + 1_000_000, self.test_data)
        code, _ = call_cli([
            "train", "--data", train_data, "--cell", "gru", "--head", "tanh",
            "--epochs", self.epochs, "--seed", seed,
            "--out-model", self.model, "--out-losses", losses])
        ledger.record("train the evaluated checkpoint", _exit_problems(code))
        self.seqs = load_dataset(self.test_data)
        return {path.name: digest(path)
                for path in (train_data, self.test_data, self.model, losses)}

    def op(self, k, ledger):
        """Even k: `pournet predict`; odd k: `pournet eval-dtw` on the same
        checkpoint and data. Only eval-dtw completes the sequences."""
        if k % 2 == 0:
            shutil.rmtree(self.preds, ignore_errors=True)
            shutil.rmtree(self.scores, ignore_errors=True)
            code, wall = call_cli(["predict", "--model", self.model,
                                   "--data", self.test_data,
                                   "--out", self.preds])
            out, check, seqs = self.preds, self._check_predictions, 0
        else:
            code, wall = call_cli(["eval-dtw", "--model", self.model,
                                   "--data", self.test_data, "--radius", 1,
                                   "--out", self.scores])
            out, check, seqs = self.scores, self._check_scores, len(self.seqs)
        problems = _exit_problems(code)
        if not problems:
            digests = {p.name: digest(p) for p in sorted(out.iterdir())}
            first = self._first.setdefault(out.name, digests)
            if first is digests:
                check(problems)
            elif digests != first:
                problems.append("outputs differ from the run's first call")
        ledger.record(f"{'eval-dtw' if k % 2 else 'predict'} call {k // 2}",
                      problems)
        return Sample(wall_s=wall, seqs=seqs,
                      parts={"eval_dtw_s" if k % 2 else "predict_s": wall})

    def _check_predictions(self, problems):
        """One file per sequence with one row per step; keeps the curves."""
        self._curves = None
        preds = self.preds
        names = {p.name for p in preds.iterdir()}
        expected = {f"pred_{seq.id}.csv" for seq in self.seqs}
        if names != expected:
            problems.append(f"{len(names)} prediction files, expected "
                            f"{len(expected)}")
            return
        curves = []
        for seq in self.seqs:
            rows = _read_csv(preds / f"pred_{seq.id}.csv")
            if (rows[:1] != [["t", "theta", "actual_f", "predicted_f"]]
                    or len(rows) != len(seq) + 1):
                problems.append(f"pred_{seq.id}.csv needs one row per step")
                return
            curves.append(([float(r[3]) for r in rows[1:]],
                           [float(r[2]) for r in rows[1:]]))
        self._curves = curves

    def _check_scores(self, problems):
        """Summary rows and footer, alignment files, FastDTW >= exact DTW."""
        if self._curves is None:
            problems.append("no checked predictions to compare with")
            return
        scores, curves = self.scores, self._curves
        rows = _read_csv(scores / "summary.csv")
        ids = [seq.id for seq in self.seqs]
        if (rows[:1] != [["id", "distance"]] or len(rows) != len(ids) + 5
                or [r[0] for r in rows[1:-4]] != ids
                or [r[0] for r in rows[-4:]] != ["mean", "median", "min", "max"]):
            problems.append("summary.csv needs one row per id and a footer")
            return
        dists = [float(r[1]) for r in rows[1:-4]]
        footer = [float(r[1]) for r in rows[-4:]]
        if footer != [fmean(dists), float(median(dists)), min(dists), max(dists)]:
            problems.append("summary.csv footer does not match its rows")
        names = {p.name for p in scores.iterdir()} - {"summary.csv"}
        if names != {f"align_{i}.csv" for i in ids}:
            problems.append(f"{len(names)} alignment files, expected {len(ids)}")
            return
        gaps = []
        for seq_id, dist, (pred, actual) in zip(ids, dists, curves):
            fast = fastdtw(pred, actual, 1)
            exact = dtw_exact(pred, actual).distance
            align = _read_csv(scores / f"align_{seq_id}.csv")
            cost = sum(float(r[4]) for r in align[1:])
            if not math.isclose(dist, fast.distance, rel_tol=1e-9):
                problems.append(f"{seq_id}: summary distance {dist!r}, "
                                f"FastDTW on the prediction file gives "
                                f"{fast.distance!r}")
            if len(align) != len(fast.path) + 1 or not math.isclose(
                    cost, dist, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"align_{seq_id}.csv needs one row per warp "
                                f"step and costs that sum to the distance")
            if fast.distance < exact * (1.0 - REL_TOL):
                problems.append(f"{seq_id}: FastDTW {fast.distance!r} below "
                                f"exact DTW {exact!r}")
            gaps.append(100.0 * (fast.distance / exact - 1.0) if exact else 0.0)
        self._gap_pct = fmean(gaps)
        self._mean_lbf = footer[0]

    def fingerprint(self):
        summary = self._first.get(self.scores.name, {}).get("summary.csv")
        return {} if summary is None else {"summary.csv": summary}

    def details(self, samples):
        out = {"eval_seq_per_s": throughput(samples),
               "dtw_mean_lbf": self._mean_lbf,
               "fastdtw_gap_pct": self._gap_pct}
        for key in ("predict_s", "eval_dtw_s"):
            out[key] = [s.parts[key] for s in samples if key in s.parts]
        return out

    def quality(self):
        return {"dtw.mean_distance_lbf": self._mean_lbf,
                "dtw.fastdtw_gap_pct": self._gap_pct}


class DTWLongWorkload:
    """Exact DTW and FastDTW (radius 1) on long random-walk curve pairs."""

    round_ops = 1

    def __init__(self, fixed_pairs=8, min_len=200, max_len=2000):
        self.fixed_pairs = self.trace_ops = self.min_ops = fixed_pairs
        self.min_len, self.max_len = min_len, max_len
        # mean of m*n for independent uniform lengths: the size of the
        # "pair" that the throughput counts, whatever sizes a run draws
        self.mean_cells = ((min_len + max_len) / 2.0) ** 2
        self._distances = {}
        self._gaps = []

    def _pair(self, k):
        rng = np.random.default_rng([self.seed, k])
        if k == 0:
            # every run scores one pair of the largest size, so peak memory
            # shows the full m x n exact-DTW matrix
            m = n = self.max_len
        else:
            m, n = (int(v) for v in rng.integers(self.min_len,
                                                 self.max_len + 1, size=2))
        return (np.cumsum(rng.standard_normal(m)),
                np.cumsum(rng.standard_normal(n)))

    def setup(self, workdir, seed, ledger):
        self.seed = seed
        self.pairs = [self._pair(k) for k in range(self.fixed_pairs)]
        h = hashlib.sha256()
        for a, b in self.pairs:
            h.update(a.tobytes())
            h.update(b.tobytes())
        return {"pairs": h.hexdigest()}

    def op(self, k, ledger):
        a, b = self.pairs[k] if k < self.fixed_pairs else self._pair(k)
        tic = time.perf_counter()
        exact = pournet_dtw.dtw_exact(a, b)
        mid = time.perf_counter()
        fast = pournet_dtw.fastdtw(a, b, 1)
        toc = time.perf_counter()

        m, n = len(a), len(b)
        exact_problems, fast_problems = [], []
        for result, problems in ((exact, exact_problems), (fast, fast_problems)):
            try:
                validate_warp_path(result.path, m, n)
            except ValueError as exc:
                problems.append(str(exc))
        if not exact_problems:
            al, bl = a.tolist(), b.tolist()
            total = 0.0
            for i, j in exact.path:
                total += abs(al[i] - bl[j])
            if not math.isclose(total, exact.distance, rel_tol=REL_TOL):
                exact_problems.append(f"distance {exact.distance!r} but the "
                                      f"path costs sum to {total!r}")
        if fast.distance < exact.distance * (1.0 - REL_TOL):
            fast_problems.append(f"FastDTW {fast.distance!r} below exact "
                                 f"{exact.distance!r}")
        ledger.record(f"dtw_exact pair {k} ({m}x{n})", exact_problems)
        ledger.record(f"fastdtw pair {k} ({m}x{n})", fast_problems)

        if k < self.fixed_pairs:
            self._distances[k] = (exact.distance, fast.distance)
        self._gaps.append(100.0 * (fast.distance / exact.distance - 1.0))
        return Sample(wall_s=toc - tic, seqs=1, work=m * n / self.mean_cells,
                      parts={"exact_s": mid - tic, "fast_s": toc - mid})

    def fingerprint(self):
        text = repr([self._distances[k] for k in sorted(self._distances)])
        return {"distances": hashlib.sha256(text.encode()).hexdigest()}

    def details(self, samples):
        out = {"fastdtw_gap_pct": fmean(self._gaps)}
        for key, label in (("exact_s", "dtw_exact_ms"), ("fast_s", "fastdtw_ms")):
            ms = [1000.0 * s.parts[key] for s in samples]
            out[f"{label}.p50"] = median(ms)
            found = tail(ms)
            out[f"{label}.tail"] = None if found is None else {
                "percentile": found[0], "value": found[1], "samples": found[2]}
        return out

    def quality(self):
        return {"dtw.fastdtw_gap_pct": fmean(self._gaps)}


# Output-quality figures a traced run reports; a workload whose outputs do
# not include one reads 0.
QUALITY = ("training.val_loss", "dtw.mean_distance_lbf", "dtw.fastdtw_gap_pct")


def quality(wl):
    """wl's output-quality figures, with 0 for those it does not produce."""
    found = {k: v for k, v in wl.quality().items() if v is not None}
    return {name: found.get(name, 0.0) for name in QUALITY}


WORKLOADS = {
    "train_gru": lambda: TrainWorkload("gru", "tanh"),
    "train_lstm": lambda: TrainWorkload("lstm", "sigmoid"),
    "evaluate": EvaluateWorkload,
    "dtw_long": DTWLongWorkload,
}
