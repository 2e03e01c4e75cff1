"""Pouring dataset schema: normalization, padding, splits and files.

A pouring demonstration is a variable-length sequence of (rotation angle,
sensed weight) steps plus eight static container/material features. The
weight at each step is the prediction target; the angle and the statics
form the 9-wide input feature vector.

A sequence stores its steps as two read-only float64 arrays, ``thetas``
(degrees) and ``weights`` (lbf), with step t at index t; they are checked
once, as whole arrays, and every consumer reads them directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

# the output heads, in the CLI's order; each fixes a target scaling
HEADS = ("sigmoid", "linear", "tanh")


class DatasetParseError(ValueError):
    """A dataset line is not UTF-8 JSON, or nests too deep to parse."""


class DatasetSchemaError(ValueError):
    """A dataset record is missing or mistypes a required field."""


@dataclass(frozen=True)
class StaticFeatures:
    """Per-sequence constants: weights around the pour, geometry, density."""

    f_init: float  # weight before pouring (lbf)
    f_empty: float  # weight while the cup is empty (lbf)
    f_final: float  # weight after pouring (lbf)
    d_cup: float  # receiving-cup diameter (mm)
    h_cup: float  # receiving-cup height (mm)
    d_cta: float  # pouring-cup diameter (mm)
    h_cta: float  # pouring-cup height (mm)
    rho: float  # material density relative to water (unitless)

    def __post_init__(self):
        for name in _STATIC_FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(math.isfinite(v) for v in self.as_tuple()):
            raise ValueError("static features must be finite")
        if not self.f_empty <= self.f_final <= self.f_init:
            raise ValueError(
                f"expected f_empty <= f_final <= f_init, got "
                f"({self.f_empty}, {self.f_final}, {self.f_init})")
        if min(self.d_cup, self.h_cup, self.d_cta, self.h_cta) <= 0.0:
            raise ValueError("container geometry must be positive")
        if self.rho <= 0.0:
            raise ValueError("relative density must be positive")

    def as_tuple(self):
        return tuple(getattr(self, name) for name in _STATIC_FIELDS)


_STATIC_FIELDS = tuple(f.name for f in fields(StaticFeatures))
INPUT_FEATURES = ("theta", *_STATIC_FIELDS)
NUM_INPUT_FEATURES = len(INPUT_FEATURES)


@dataclass(frozen=True, eq=False)
class PouringSequence:
    """One pouring demonstration: per-step arrays plus static features.

    thetas[t] is the rotation angle (degrees) and weights[t] the sensed
    weight (lbf) at step t: 1-d float64 arrays of one non-zero length,
    copied on construction, read-only, compared by value, not hashable.
    """

    id: str
    thetas: np.ndarray
    weights: np.ndarray
    statics: StaticFeatures

    def __post_init__(self):
        for name in ("thetas", "weights"):
            values = np.array(getattr(self, name), dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        thetas, weights = self.thetas, self.weights
        if thetas.ndim != 1 or thetas.shape != weights.shape:
            raise ValueError("thetas and weights must be 1-d and of one length")
        if thetas.size == 0:
            raise ValueError("a pouring sequence needs at least one step")
        if not np.isfinite(thetas).all():
            raise ValueError("theta_deg must be finite")
        if not (np.isfinite(weights).all() and (weights >= 0.0).all()):
            raise ValueError("f_lbf must be finite and non-negative")

    def __eq__(self, other):
        if not isinstance(other, PouringSequence):
            return NotImplemented
        return (self.id == other.id and self.statics == other.statics
                and np.array_equal(self.thetas, other.thetas)
                and np.array_equal(self.weights, other.weights))

    def __len__(self):
        return len(self.thetas)

    def input_matrix(self) -> np.ndarray:
        """Raw (unnormalized) per-step input features, shape [len, 9]."""
        feats = np.empty((len(self), NUM_INPUT_FEATURES), dtype=np.float64)
        feats[:, 0] = self.thetas
        feats[:, 1:] = self.statics.as_tuple()
        return feats


@dataclass(frozen=True, eq=False)
class NormalizationSpec:
    """Target scaling plus per-feature input standardization.

    Target scaling follows the output head: sigmoid scales training
    targets into [0, 1], tanh into [-1, 1], linear leaves them alone.
    Targets outside the training range (e.g. from a test set) map outside
    those intervals; no clipping is applied. Inputs are z-scored with
    statistics fitted on training data only.
    """

    mode: str
    target_min: float
    target_max: float
    input_mean: np.ndarray  # [9]
    input_std: np.ndarray  # [9], zero-variance features fall back to 1.0

    def __post_init__(self):
        if self.mode not in HEADS:
            raise ValueError(f"unknown normalization mode {self.mode!r}")
        for name in ("target_min", "target_max"):
            value = getattr(self, name)
            if not (isinstance(value, float) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite float, got {value!r}")
        if self.target_min >= self.target_max:
            raise ValueError(f"target_min {self.target_min!r} is not below "
                             f"target_max {self.target_max!r}")
        if self.input_mean.shape != (NUM_INPUT_FEATURES,):
            raise ValueError("input_mean must have one entry per input feature")
        if self.input_std.shape != (NUM_INPUT_FEATURES,):
            raise ValueError("input_std must have one entry per input feature")
        if np.any(self.input_std <= 0.0):
            raise ValueError("input_std entries must be positive")

    def normalize_targets(self, values):
        values = np.asarray(values, dtype=np.float64)
        if self.mode == "linear":
            return values.copy()
        span = self.target_max - self.target_min
        scaled = (values - self.target_min) / span
        if self.mode == "sigmoid":
            return scaled
        return 2.0 * scaled - 1.0

    def denormalize_targets(self, values):
        values = np.asarray(values, dtype=np.float64)
        if self.mode == "linear":
            return values.copy()
        span = self.target_max - self.target_min
        if self.mode == "sigmoid":
            return values * span + self.target_min
        return (values + 1.0) * 0.5 * span + self.target_min

    def normalize_inputs(self, features):
        features = np.asarray(features, dtype=np.float64)
        return (features - self.input_mean) / self.input_std


@dataclass(eq=False)
class PaddedBatch:
    """Fixed-length batch in time-major layout.

    inputs[t, b, :] holds the normalized features of sequence b at step t
    for t < lengths[b] and zeros afterwards; mask, computed from lengths,
    flags the real steps.
    """

    inputs: np.ndarray  # [T_max, B, F]
    targets: np.ndarray  # [T_max, B]
    lengths: np.ndarray  # [B]

    def __post_init__(self):
        t_max, b = self.targets.shape
        if self.inputs.shape[:2] != (t_max, b) or self.inputs.ndim != 3:
            raise ValueError("inputs must be [T_max, B, F]")
        if self.lengths.shape != (b,):
            raise ValueError("lengths must have one entry per batch member")
        if np.any(self.lengths < 1) or np.any(self.lengths > t_max):
            raise ValueError("lengths must lie in [1, T_max]")
        padded = self.mask == 0.0
        if np.any(self.inputs[padded] != 0.0) or np.any(self.targets[padded] != 0.0):
            raise ValueError("padded cells must hold zeros")

    @property
    def mask(self) -> np.ndarray:
        """[T_max, B] float64, 1.0 exactly where t < lengths[b]."""
        return (np.arange(self.num_steps)[:, None] < self.lengths).astype(np.float64)

    @property
    def num_steps(self) -> int:
        return self.targets.shape[0]

    @property
    def batch_size(self) -> int:
        return self.targets.shape[1]

    def select(self, idx) -> "PaddedBatch":
        """Members idx in that order, cut to their longest length: bit for
        bit the batch pad_and_batch builds from those sequences."""
        lengths = self.lengths[idx]
        t = int(lengths.max())
        return PaddedBatch(inputs=self.inputs[:t, idx],
                           targets=self.targets[:t, idx], lengths=lengths)


def split_dataset(sequences, seed: int):
    """Deterministic 70/27/3 split: floor(0.7 N) train, then floor(0.9 R)
    of the remainder R for validation, the rest for the internal test.

    Integer arithmetic keeps the floor rule exact for any N.
    """
    sequences = list(sequences)
    n = len(sequences)
    if n < 10:
        raise ValueError(f"need at least 10 sequences to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = (7 * n) // 10
    remainder = n - n_train
    n_val = (9 * remainder) // 10
    train = [sequences[i] for i in order[:n_train]]
    val = [sequences[i] for i in order[n_train:n_train + n_val]]
    test = [sequences[i] for i in order[n_train + n_val:]]
    return train, val, test


def fit_normalization(train, mode: str) -> NormalizationSpec:
    """Fit target scaling and input z-score statistics on training data."""
    train = list(train)
    if not train:
        raise ValueError("cannot fit normalization on an empty training set")
    targets = np.concatenate([seq.weights for seq in train])
    f_min = float(targets.min())
    f_max = float(targets.max())
    if f_max == f_min:
        raise ValueError(
            f"degenerate target range: all training targets equal {f_min}")
    inputs = np.concatenate([seq.input_matrix() for seq in train], axis=0)
    mean = inputs.mean(axis=0)
    std = inputs.std(axis=0)
    std[std == 0.0] = 1.0  # constant features map to exactly zero
    return NormalizationSpec(mode=mode, target_min=f_min, target_max=f_max,
                             input_mean=mean, input_std=std)


def pad_and_batch(seqs, spec: NormalizationSpec) -> PaddedBatch:
    """Normalize and post-pad sequences to the batch maximum length."""
    seqs = list(seqs)
    if not seqs:
        raise ValueError("cannot batch an empty sequence list")
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    t_max = int(lengths.max())
    b = len(seqs)
    inputs = np.zeros((t_max, b, NUM_INPUT_FEATURES), dtype=np.float64)
    targets = np.zeros((t_max, b), dtype=np.float64)
    for i, seq in enumerate(seqs):
        n = len(seq)
        inputs[:n, i, :] = spec.normalize_inputs(seq.input_matrix())
        targets[:n, i] = spec.normalize_targets(seq.weights)
    return PaddedBatch(inputs=inputs, targets=targets, lengths=lengths)


def save_dataset(seqs, path) -> None:
    """Write one record per line; floats use shortest lossless repr."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in seqs:
            record = {"id": seq.id}
            for name in _STATIC_FIELDS:
                record[name] = float(getattr(seq.statics, name))
            record["steps"] = [{"theta": theta, "f": f} for theta, f
                               in zip(seq.thetas.tolist(), seq.weights.tolist())]
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_dataset(path):
    """Read a line-delimited dataset written by save_dataset.

    Raises DatasetParseError for lines that are not UTF-8 JSON and
    DatasetSchemaError for records that are missing fields or violate
    sequence invariants; both name the file and the offending 1-based line.
    """
    sequences = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
                if text.strip():
                    sequences.append(_record_to_sequence(json.loads(text)))
            except (UnicodeDecodeError, json.JSONDecodeError,
                    RecursionError) as exc:
                raise DatasetParseError(f"{path}: line {lineno}: {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise DatasetSchemaError(f"{path}: line {lineno}: {exc}") from exc
    return sequences


def _number(value, name: str) -> float:
    """value as a float if json.loads read it as a number; bool, str and
    None are refused, and so is an int beyond float64."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _record_to_sequence(record) -> PouringSequence:
    if not isinstance(record, dict):
        raise ValueError("record must be an object")
    for name in ("id", *_STATIC_FIELDS, "steps"):
        if name not in record:
            raise ValueError(f"missing field {name!r}")
    if not isinstance(record["id"], str):
        raise ValueError(f"id must be a string, got {record['id']!r}")
    try:
        record["id"].encode("utf-8")
    except UnicodeEncodeError as exc:  # JSON can spell a lone surrogate
        raise ValueError(f"id {record['id']!r} is not UTF-8 text: "
                         f"{exc.reason}") from exc
    statics = StaticFeatures(**{name: _number(record[name], name)
                                for name in _STATIC_FIELDS})
    steps = record["steps"]
    for step in steps:
        if "theta" not in step or "f" not in step:
            raise ValueError("step needs 'theta' and 'f' fields")
    thetas = [step["theta"] for step in steps]
    weights = [step["f"] for step in steps]
    # save_dataset writes floats; other values go one by one, to name a bad one
    if {*map(type, thetas), *map(type, weights)} != {float}:
        thetas = [_number(step["theta"], f"steps[{k}].theta")
                  for k, step in enumerate(steps)]
        weights = [_number(step["f"], f"steps[{k}].f")
                   for k, step in enumerate(steps)]
    return PouringSequence(id=record["id"], thetas=thetas, weights=weights,
                           statics=statics)
