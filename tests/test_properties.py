"""Property tests: DTW metric laws, FastDTW's bound, normalization, splits,
dataset and checkpoint file round trips, and malformed dataset and
checkpoint files."""

import copy
import dataclasses
import json
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pournet.data import (HEADS, NUM_INPUT_FEATURES, NormalizationSpec,
                          PouringSequence, StaticFeatures, load_dataset,
                          save_dataset, split_dataset)
from oracles import reference_fastdtw
from pournet.dtw import dtw_exact, fastdtw
from pournet.network import (CellKind, NetworkConfig, NetworkParams,
                             init_params, load_checkpoint, param_layout,
                             save_checkpoint)

SETTINGS = settings(deadline=None, max_examples=40)

curves = st.lists(st.floats(-100.0, 100.0, allow_nan=False,
                            allow_infinity=False),
                  min_size=1, max_size=24)


@SETTINGS
@given(curves, curves)
def test_dtw_symmetric_and_non_negative(a, b):
    forward = dtw_exact(a, b).distance
    assert forward >= 0.0
    assert dtw_exact(b, a).distance == forward


# integer values make ties between diag, up and left common; lengths up
# to 80 span several of dtw_exact's 16-diagonal blocks
tie_curves = st.lists(st.integers(-3, 3), min_size=1, max_size=80)


@SETTINGS
@given(tie_curves, tie_curves)
def test_full_radius_fastdtw_equals_exact_under_ties(a, b):
    exact = dtw_exact(a, b)
    fast = fastdtw(a, b, radius=max(len(a), len(b)))
    assert (fast.distance, fast.path) == (exact.distance, exact.path)


def _curve_pairs(max_len):
    """Pairs of one kind: Gaussian-like floats, random walks, or integers
    in [-3, 3], where ties between diag, up and left are common."""
    steps = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    lengths = st.integers(1, max_len)
    floats = lengths.flatmap(lambda k: st.lists(steps, min_size=k,
                                                max_size=k))
    ints = lengths.flatmap(lambda k: st.lists(st.integers(-3, 3), min_size=k,
                                              max_size=k))
    walks = floats.map(lambda v: np.cumsum(v).tolist())
    return st.one_of(st.tuples(floats, floats), st.tuples(walks, walks),
                     st.tuples(ints, ints))


@SETTINGS
@given(_curve_pairs(300), st.integers(0, 5))
def test_fastdtw_equals_frozen_reference(pair, radius):
    a, b = pair
    fast = fastdtw(a, b, radius)
    assert (fast.distance, fast.path) == reference_fastdtw(a, b, radius)


@SETTINGS
@given(curves, st.integers(0, 3))
def test_dtw_identity_is_zero(a, radius):
    assert dtw_exact(a, a).distance == 0.0
    assert fastdtw(a, a, radius).distance == 0.0


@SETTINGS
@given(curves, curves, st.integers(0, 3))
def test_fastdtw_never_below_exact(a, b, radius):
    # Each FastDTW path is a legal warp path and float addition rounds
    # monotonically, so the exact minimum cannot exceed it.
    assert fastdtw(a, b, radius).distance >= dtw_exact(a, b).distance


@SETTINGS
@given(st.sampled_from(("linear", "sigmoid", "tanh")),
       st.floats(-1e3, 1e3), st.floats(1e-3, 1e3),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
def test_target_normalization_round_trip(mode, lo, span, values):
    spec = NormalizationSpec(mode=mode, target_min=lo, target_max=lo + span,
                             input_mean=np.zeros(NUM_INPUT_FEATURES),
                             input_std=np.ones(NUM_INPUT_FEATURES))
    values = np.array(values)
    back = spec.denormalize_targets(spec.normalize_targets(values))
    scale = abs(lo) + span + np.abs(values)
    assert np.all(np.abs(back - values) <= 1e-12 * scale)


@SETTINGS
@given(st.integers(10, 5000), st.integers(0, 2**32 - 1))
def test_split_sizes(n, seed):
    train, val, test = split_dataset(range(n), seed)
    n_train = int(0.7 * n + 1e-9)
    n_val = int(0.9 * (n - n_train) + 1e-9)
    assert (len(train), len(val), len(test)) == (n_train, n_val,
                                                 n - n_train - n_val)
    assert sorted(train + val + test) == list(range(n))


STATICS = StaticFeatures(f_init=1.0, f_empty=0.2, f_final=0.5, d_cup=80.0,
                         h_cup=100.0, d_cta=70.0, h_cta=110.0, rho=1.0)
# subnormals and the largest finite floats are in range by default
finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
step_lists = st.integers(1, 60).flatmap(
    lambda n: st.tuples(st.lists(finite, min_size=n, max_size=n),
                        st.lists(non_negative, min_size=n, max_size=n)))


@SETTINGS
@given(st.lists(st.tuples(st.text(), step_lists), min_size=1, max_size=3))
@example([("edge", ([-1e308, 5e-324, -0.0], [1e308, 5e-324, 0.0]))])
def test_dataset_file_round_trip(records):
    seqs = [PouringSequence(id=seq_id, thetas=thetas, weights=weights,
                            statics=STATICS)
            for seq_id, (thetas, weights) in records]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.jsonl", Path(tmp) / "second.jsonl"
        save_dataset(seqs, first)
        loaded = load_dataset(first)
        assert loaded == seqs
        save_dataset(loaded, second)
        assert second.read_bytes() == first.read_bytes()


def _floats(n, **bounds):
    return st.lists(st.floats(allow_nan=False, allow_infinity=False, **bounds),
                    min_size=n, max_size=n).map(np.array)


@st.composite
def checkpoints(draw):
    """(params, config, spec): any cell and head, 1-4 layers of width 1-5,
    any dropout rate and sites, 1-9 inputs, and finite parameters and
    statistics. save_checkpoint accepts only the spec's 9 inputs, which
    about half the draws take."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    config = NetworkConfig(
        cell_kind=draw(st.sampled_from(CellKind)), layer_widths=tuple(widths),
        dropout_rate=draw(st.floats(0.0, 1.0, exclude_max=True)),
        dropout_after_layers=tuple(draw(st.sets(st.integers(1, len(widths))))),
        output_activation=draw(st.sampled_from(HEADS)),
        input_width=draw(st.one_of(st.just(NUM_INPUT_FEATURES),
                                   st.integers(1, NUM_INPUT_FEATURES))))
    params = NetworkParams(param_layout(config))
    params.vector[...] = draw(_floats(params.vector.size))
    target_min, target_max = sorted(draw(
        st.lists(finite, min_size=2, max_size=2, unique=True)))
    spec = NormalizationSpec(
        mode=config.output_activation, target_min=target_min,
        target_max=target_max, input_mean=draw(_floats(NUM_INPUT_FEATURES)),
        input_std=draw(_floats(NUM_INPUT_FEATURES, min_value=5e-324)))
    return params, config, spec


def _bits(value):
    """Bytes of a float or array, so -0.0 and 0.0 differ."""
    return np.asarray(value, dtype=np.float64).tobytes()


@SETTINGS
@given(checkpoints())
def test_checkpoint_file_round_trip(checkpoint):
    """The spec's statistics are 9 wide, so a stack of another input
    width is refused before any file exists."""
    params, config, spec = checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.npz", Path(tmp) / "second.npz"
        if config.input_width != NUM_INPUT_FEATURES:
            with pytest.raises(ValueError) as err:
                save_checkpoint(first, params, config, spec)
            assert str(err.value).startswith(f"{first}: checkpoint input_width")
            assert not first.exists()
            return
        save_checkpoint(first, params, config, spec)
        loaded_params, loaded_config, loaded_spec = load_checkpoint(first)
        save_checkpoint(second, loaded_params, loaded_config, loaded_spec)
        assert second.read_bytes() == first.read_bytes()
    assert loaded_config == config
    assert _bits(loaded_config.dropout_rate) == _bits(config.dropout_rate)
    assert loaded_spec.mode == spec.mode
    for name in ("target_min", "target_max", "input_mean", "input_std"):
        assert _bits(getattr(loaded_spec, name)) == _bits(getattr(spec, name))
        assert np.asarray(getattr(loaded_spec, name)).dtype == np.float64
    assert loaded_params.layout == params.layout
    assert loaded_params.vector.dtype == np.float64
    assert _bits(loaded_params.vector) == _bits(params.vector)


# JSON text of any value: null, bools, integers up to and past float64
# (10 ** 400), floats with NaN and infinities, strings, small nested lists
# and objects, and arrays nested past json's recursion limit
json_texts = st.one_of(
    st.recursive(st.none() | st.booleans() | st.integers()
                 | st.integers(min_value=10 ** 400) | st.floats()
                 | st.text(max_size=4),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                 max_leaves=6).map(json.dumps),
    st.integers(1, 100_000).map(lambda depth: "[" * depth + "]" * depth))
DEEP = "[" * 100_000 + "]" * 100_000
SMALL_NET = NetworkConfig(cell_kind="gru", layer_widths=(2,), dropout_rate=0.0,
                          dropout_after_layers=(), output_activation="tanh")
SMALL_NORM = NormalizationSpec(mode="tanh", target_min=0.2, target_max=1.7,
                               input_mean=np.zeros(NUM_INPUT_FEATURES),
                               input_std=np.ones(NUM_INPUT_FEATURES))
META_KEYS = ("format", *(f.name for f in dataclasses.fields(NetworkConfig)),
             "output_width", "norm_mode", "norm_target_min", "norm_target_max")


@SETTINGS
@given(st.sampled_from(META_KEYS), st.one_of(st.none(), json_texts))
@example("dropout_rate", str(10 ** 400))
@example("layer_widths", DEEP)
def test_any_meta_value_loads_valid_or_names_file(key, value):
    """meta.json's key is deleted (value None) or set to the JSON text
    value. The checkpoint either loads with every invariant holding or
    is refused with a ValueError that starts with the path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        save_checkpoint(path, init_params(SMALL_NET, 0), SMALL_NET, SMALL_NORM)
        with zipfile.ZipFile(path) as zf:
            entries = {name: zf.read(name) for name in zf.namelist()}
        meta = json.loads(entries["meta.json"])
        if value is None:
            del meta[key]
            text = json.dumps(meta)
        else:  # json.loads keeps the last of two equal keys
            text = json.dumps(meta)[:-1] + f", {json.dumps(key)}: {value}}}"
        entries["meta.json"] = text.encode("utf-8")
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in entries.items():
                zf.writestr(name, data)
        try:
            params, config, norm = load_checkpoint(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
    assert dataclasses.replace(config) == config
    assert params.layout == param_layout(config)
    assert np.isfinite(params.vector).all()
    assert dataclasses.replace(norm).mode == config.output_activation
    assert np.isfinite([norm.input_mean, norm.input_std]).all()


BASE_RECORD = {"id": "a", **dataclasses.asdict(STATICS),
               "steps": [{"theta": 0.0, "f": 1.0}, {"theta": 10.0, "f": 0.5}]}
FIELDS = [(name,) for name in BASE_RECORD]
FIELDS += [("steps", k, key) for k in (0, 1) for key in ("theta", "f")]
field_edits = st.tuples(st.sampled_from(FIELDS),
                        st.one_of(st.none(), json_texts))
raw_lines = st.binary(max_size=40).map(lambda line: line.replace(b"\n", b" "))


@SETTINGS
@given(st.one_of(field_edits, raw_lines))
@example(b'{"id": "\xff"}')
@example((("steps", 1, "theta"), DEEP))
def test_any_record_loads_valid_or_names_file_and_line(edit):
    """The second line of a dataset is raw bytes, or a valid record with
    one field, or one step's field, deleted (value None) or set to the
    JSON text value. The file either loads with every invariant holding
    or is refused with a ValueError that names the file and line 2."""
    if isinstance(edit, bytes):
        line = edit
    else:
        where, value = edit
        record = copy.deepcopy(BASE_RECORD)
        target = record
        for key in where[:-1]:
            target = target[key]
        if value is None:
            del target[where[-1]]
        else:
            target[where[-1]] = "@value@"
        line = json.dumps(record).replace('"@value@"', value or "").encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(json.dumps(BASE_RECORD).encode() + b"\n" + line + b"\n")
        try:
            seqs = load_dataset(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: line 2: ")
            return
    for seq in seqs:
        assert isinstance(seq.id, str)
        assert PouringSequence(id=seq.id, thetas=seq.thetas,
                               weights=seq.weights,
                               statics=dataclasses.replace(seq.statics)) == seq
