"""Schema, normalization, padding and split behavior."""

import json

import numpy as np
import pytest

from pournet.data import (DatasetParseError, DatasetSchemaError,
                          NormalizationSpec, PaddedBatch, PouringSequence,
                          StaticFeatures, fit_normalization, load_dataset,
                          pad_and_batch, save_dataset, split_dataset)
from pournet.optim import mse_loss


def make_sequence(seq_id, weights, thetas=None, statics=None):
    weights = list(weights)
    if thetas is None:
        thetas = np.linspace(0.0, 90.0, len(weights))
    if statics is None:
        statics = StaticFeatures(f_init=max(weights), f_empty=min(weights),
                                 f_final=min(weights), d_cup=80.0, h_cup=100.0,
                                 d_cta=70.0, h_cta=110.0, rho=1.0)
    return PouringSequence(id=str(seq_id), thetas=thetas, weights=weights,
                           statics=statics)


def tiny_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    seqs = []
    for i in range(n):
        length = int(rng.integers(3, 9))
        top = float(rng.uniform(1.0, 2.0))
        weights = np.linspace(top, top * 0.4, length)
        seqs.append(make_sequence(f"seq-{i:04d}", weights))
    return seqs


class TestSplitDataset:
    def test_reference_sizes(self):
        train, val, test = split_dataset(tiny_dataset(1307), seed=0)
        assert (len(train), len(val), len(test)) == (914, 353, 40)

    def test_minimum_size(self):
        train, val, test = split_dataset(tiny_dataset(10), seed=5)
        assert (len(train), len(val), len(test)) == (7, 2, 1)

    def test_sizes_seed_independent(self):
        seqs = tiny_dataset(100)
        a = split_dataset(seqs, seed=1)
        b = split_dataset(seqs, seed=2)
        assert [len(part) for part in a] == [len(part) for part in b]
        assert {s.id for s in a[0]} != {s.id for s in b[0]}

    def test_disjoint_and_exhaustive(self):
        seqs = tiny_dataset(53)
        for seed in range(5):
            train, val, test = split_dataset(seqs, seed=seed)
            ids = [s.id for part in (train, val, test) for s in part]
            assert len(ids) == len(seqs)
            assert set(ids) == {s.id for s in seqs}

    def test_same_seed_same_membership(self):
        seqs = tiny_dataset(40)
        a = split_dataset(seqs, seed=9)
        b = split_dataset(seqs, seed=9)
        assert all([s.id for s in pa] == [s.id for s in pb]
                   for pa, pb in zip(a, b))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(tiny_dataset(9), seed=0)


class TestNormalization:
    def span_dataset(self):
        return [make_sequence("a", [0.2, 0.7, 1.2])]

    def test_sigmoid_midpoint(self):
        spec = fit_normalization(self.span_dataset(), "sigmoid")
        assert spec.normalize_targets(0.7) == pytest.approx(0.5, rel=1e-12)

    def test_tanh_endpoints_exact(self):
        spec = fit_normalization(self.span_dataset(), "tanh")
        assert spec.normalize_targets(0.2) == -1.0
        assert spec.normalize_targets(1.2) == 1.0

    def test_linear_identity(self):
        spec = fit_normalization(self.span_dataset(), "linear")
        assert spec.normalize_targets(0.7) == 0.7
        assert spec.denormalize_targets(0.7) == 0.7

    @pytest.mark.parametrize("mode", ["linear", "sigmoid", "tanh"])
    def test_round_trip(self, mode):
        spec = fit_normalization(tiny_dataset(20), mode)
        rng = np.random.default_rng(1)
        values = rng.uniform(0.05, 3.0, size=200)
        back = spec.denormalize_targets(spec.normalize_targets(values))
        assert np.allclose(back, values, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode,lo,hi", [("sigmoid", 0.0, 1.0),
                                            ("tanh", -1.0, 1.0)])
    def test_training_targets_in_range(self, mode, lo, hi):
        seqs = tiny_dataset(25, seed=4)
        spec = fit_normalization(seqs, mode)
        for seq in seqs:
            scaled = spec.normalize_targets(seq.weights)
            assert np.all(scaled >= lo) and np.all(scaled <= hi)

    def test_outside_training_range_is_not_clipped(self):
        spec = fit_normalization(self.span_dataset(), "sigmoid")
        assert spec.normalize_targets(2.2) > 1.0
        assert spec.normalize_targets(0.0) < 0.0

    def test_degenerate_range_rejected(self):
        flat = [make_sequence("flat", [0.5, 0.5, 0.5])]
        for mode in ("linear", "sigmoid", "tanh"):
            with pytest.raises(ValueError, match="degenerate"):
                fit_normalization(flat, mode)

    @pytest.mark.parametrize("lo, hi", [
        (float("nan"), 1.0), (0.0, float("inf")), (False, 1.0), (0.0, "1.0"),
        (0, 1.0), (None, 1.0), (0.5, 0.5), (1.0, 0.5)])
    def test_bad_target_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="target_m"):
            NormalizationSpec(mode="tanh", target_min=lo, target_max=hi,
                              input_mean=np.zeros(9), input_std=np.ones(9))

    def test_input_standardization(self):
        seqs = tiny_dataset(30, seed=2)
        spec = fit_normalization(seqs, "sigmoid")
        stacked = np.concatenate([spec.normalize_inputs(s.input_matrix())
                                  for s in seqs], axis=0)
        assert np.allclose(stacked.mean(axis=0), 0.0, atol=1e-10)
        varying = stacked.std(axis=0) > 0
        assert np.allclose(stacked.std(axis=0)[varying], 1.0, atol=1e-10)


class TestPadAndBatch:
    def test_mask_column_sums(self):
        seqs = [make_sequence("a", [1.0, 0.8, 0.6]),
                make_sequence("b", [1.2, 1.0, 0.8, 0.7, 0.6])]
        spec = fit_normalization(seqs, "sigmoid")
        batch = pad_and_batch(seqs, spec)
        assert batch.num_steps == 5
        assert batch.mask.sum(axis=0).tolist() == [3.0, 5.0]

    def test_single_sequence_all_real(self):
        seqs = [make_sequence("a", [1.0, 0.9, 0.8, 0.7])]
        spec = fit_normalization(seqs, "sigmoid")
        batch = pad_and_batch(seqs, spec)
        assert batch.num_steps == 4
        assert np.all(batch.mask == 1.0)

    def test_equal_lengths_no_padding(self):
        seqs = [make_sequence(i, [1.0, 0.8]) for i in range(3)]
        spec = fit_normalization(seqs, "sigmoid")
        batch = pad_and_batch(seqs, spec)
        assert np.all(batch.mask == 1.0)

    def test_statics_repeated_on_real_steps(self):
        seqs = [make_sequence("a", [1.0, 0.8, 0.6]),
                make_sequence("b", [1.2, 1.0, 0.8, 0.7])]
        spec = fit_normalization(seqs, "sigmoid")
        batch = pad_and_batch(seqs, spec)
        # columns 1..8 are statics and must be constant over real steps
        for b, seq in enumerate(seqs):
            statics = batch.inputs[:len(seq), b, 1:]
            assert np.all(statics == statics[0])

    def test_padded_cells_never_reach_masked_loss(self):
        seqs = [make_sequence("a", [1.0, 0.8]),
                make_sequence("b", [1.2, 1.0, 0.8, 0.7])]
        spec = fit_normalization(seqs, "sigmoid")
        batch = pad_and_batch(seqs, spec)
        preds = np.random.default_rng(0).standard_normal(batch.targets.shape)
        loss, grad = mse_loss(preds, batch.targets, batch.mask)
        tampered = preds.copy()
        tampered[batch.mask == 0.0] = 1e6
        loss2, grad2 = mse_loss(tampered, batch.targets, batch.mask)
        assert loss2 == loss
        assert np.array_equal(grad2[batch.mask == 1.0], grad[batch.mask == 1.0])

    def test_mask_is_computed_from_lengths(self):
        batch = PaddedBatch(inputs=np.zeros((3, 2, 9)), targets=np.zeros((3, 2)),
                            lengths=np.array([2, 3]))
        assert np.array_equal(batch.mask, [[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        assert batch.mask.dtype == np.float64
        with pytest.raises(TypeError):
            PaddedBatch(inputs=np.zeros((3, 1, 9)), targets=np.zeros((3, 1)),
                        mask=np.ones((3, 1)), lengths=np.array([3]))

    @pytest.mark.parametrize("field", ["inputs", "targets"])
    def test_padded_cells_must_hold_zeros(self, field):
        arrays = {"inputs": np.zeros((3, 1, 9)), "targets": np.zeros((3, 1))}
        arrays[field][2] = 1.0
        with pytest.raises(ValueError, match="padded cells must hold zeros"):
            PaddedBatch(**arrays, lengths=np.array([2]))

    @pytest.mark.parametrize("order_seed", [0, 1, 2, 3])
    def test_select_equals_pad_and_batch_bit_for_bit(self, order_seed):
        seqs = tiny_dataset(23, seed=4)
        spec = fit_normalization(seqs, "tanh")
        split = pad_and_batch(seqs, spec)
        order = np.random.default_rng(order_seed).permutation(len(seqs))
        chunks = [order[k:k + 5] for k in range(0, len(order), 5)]
        assert len(chunks[-1]) == 3  # a final short batch
        for idx in chunks:
            got = split.select(idx)
            want = pad_and_batch([seqs[k] for k in idx], spec)
            for name in ("inputs", "targets", "mask", "lengths"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        seqs = tiny_dataset(3, seed=8)
        path = tmp_path / "data.jsonl"
        save_dataset(seqs, path)
        loaded = load_dataset(path)
        assert loaded == seqs

    def test_missing_field_names_line(self, tmp_path):
        seqs = tiny_dataset(2)
        path = tmp_path / "data.jsonl"
        save_dataset(seqs, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["rho"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetSchemaError, match=r"line 2.*rho"):
            load_dataset(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_dataset(1), path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(DatasetParseError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("line", [b"[" * 100_000, b'{"id": "\xff"}'],
                             ids=["100000 brackets", "byte 0xff"])
    def test_undecodable_or_too_deep_line_names_file_and_line(
            self, tmp_path, line):
        """json.loads raises RecursionError on a deep line, and a byte that
        is not UTF-8 fails to decode; both are parse errors of that line."""
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_dataset(1), path)
        with open(path, "ab") as fh:
            fh.write(line + b"\n")
        with pytest.raises(DatasetParseError) as info:
            load_dataset(path)
        assert str(info.value).startswith(f"{path}: line 2: ")

    def test_errors_name_file_and_field(self, tmp_path):
        path = tmp_path / "one_field.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(DatasetSchemaError) as info:
            load_dataset(path)
        assert str(path) in str(info.value)
        assert "line 1" in str(info.value) and "'f_init'" in str(info.value)
        path.write_text("{not json\n")
        with pytest.raises(DatasetParseError) as info:
            load_dataset(path)
        assert str(info.value).startswith(f"{path}: line 1:")

    def test_lone_surrogate_id_names_file_and_line(self, tmp_path):
        """JSON can spell a lone surrogate, which no UTF-8 text, and so no
        file name that predict writes, can hold."""
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_dataset(3), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["id"] = "\ud800" + record["id"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetSchemaError) as info:
            load_dataset(path)
        assert str(info.value).startswith(
            f"{path}: line 2: id '\\ud800{record['id'][1:]}' is not UTF-8 text")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_dataset(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        seqs = tiny_dataset(2)
        path = tmp_path / "data.jsonl"
        save_dataset(seqs, path)
        content = path.read_text().replace("\n", "\n\n", 1)
        path.write_text(content)
        assert load_dataset(path) == seqs

    def test_missing_step_field(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_dataset(1), path)
        text = path.read_text().replace('"theta"', '"angle"')
        path.write_text(text)
        with pytest.raises(DatasetSchemaError, match="line 1"):
            load_dataset(path)

    @pytest.mark.parametrize("steps", [
        '[{"theta": 0.0, "f": -0.1}]',
        '[{"theta": "abc", "f": 1.0}]',
        '[{"theta": 0.0, "f": null}]',
        '[]',
        '[5]',
        '5',
        '[{"theta": 1e999, "f": 1.0}]',
        '[{"theta": [1, 2], "f": 1.0}]',
        '[{"theta": true, "f": 1.0}]',
        '[{"theta": 0.0, "f": false}]',
        '[{"theta": "1.5", "f": 1.0}]',
        '[{"theta": 0.0, "f": "0.5"}]',
    ], ids=["negative f", "theta abc", "f null", "no steps", "step not object",
            "steps not list", "theta overflows", "theta list", "theta true",
            "f false", "theta string", "f string"])
    def test_bad_steps_name_file_and_line(self, tmp_path, steps):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "f_init": 1.0, "f_empty": 0.2, "f_final": 0.5, '
            '"d_cup": 80, "h_cup": 100, "d_cta": 70, "h_cta": 110, '
            f'"rho": 1.0, "steps": {steps}}}\n')
        with pytest.raises(DatasetSchemaError) as info:
            load_dataset(path)
        assert str(info.value).startswith(f"{path}: line 1:")


    NUMERIC_FIELDS = ["f_init", "f_empty", "f_final", "d_cup", "h_cup",
                      "d_cta", "h_cta", "rho", "theta", "f"]

    @staticmethod
    def _load_with_field(tmp_path, field, edit):
        """Load tiny_dataset(2) with field of its second record, or of
        that record's last step, replaced by edit(old value); returns the
        path and the DatasetSchemaError that the load must raise."""
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_dataset(2), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        target = record["steps"][-1] if field in ("theta", "f") else record
        target[field] = edit(target[field])
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetSchemaError) as info:
            load_dataset(path)
        return path, str(info.value)

    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_number_written_as_string_refused(self, tmp_path, field):
        path, message = self._load_with_field(tmp_path, field, str)
        assert message.startswith(f"{path}: line 2:")
        assert f"'{field}'" in message or f"{field} must be a number" in message

    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_huge_integer_names_file_and_line(self, tmp_path, field):
        """json.dumps writes 10 ** 400 as an integer, and float() refuses
        the int that json.loads reads back with OverflowError. The message
        names the field, a step's by its index in steps."""
        path, message = self._load_with_field(tmp_path, field,
                                              lambda _: 10 ** 400)
        if field in ("theta", "f"):
            field = f"steps[{len(tiny_dataset(2)[1]) - 1}].{field}"
        assert message == (f"{path}: line 2: {field}: "
                           f"int too large to convert to float")


class TestDomainTypes:
    def test_static_ordering_enforced(self):
        with pytest.raises(ValueError):
            StaticFeatures(f_init=0.5, f_empty=0.2, f_final=0.6, d_cup=80,
                           h_cup=100, d_cta=70, h_cta=110, rho=1.0)

    def test_geometry_positive(self):
        with pytest.raises(ValueError):
            StaticFeatures(f_init=1.0, f_empty=0.2, f_final=0.5, d_cup=-1,
                           h_cup=100, d_cta=70, h_cta=110, rho=1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            make_sequence("x", [0.5, -0.1], thetas=[0.0, 10.0])

    def test_step_arrays_copied_and_read_only(self):
        statics = make_sequence("x", [1.0, 0.5]).statics
        thetas, weights = np.array([0.0, 10.0]), np.array([1.0, 0.5])
        seq = PouringSequence(id="x", thetas=thetas, weights=weights,
                              statics=statics)
        thetas[0], weights[0] = 9.0, 9.0
        assert (seq.thetas[0], seq.weights[0]) == (0.0, 1.0)
        for arr in (seq.thetas, seq.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_empty_sequence_rejected(self):
        statics = StaticFeatures(f_init=1.0, f_empty=0.2, f_final=0.5,
                                 d_cup=80, h_cup=100, d_cta=70, h_cta=110,
                                 rho=1.0)
        with pytest.raises(ValueError):
            PouringSequence(id="x", thetas=np.array([]), weights=np.array([]),
                            statics=statics)
