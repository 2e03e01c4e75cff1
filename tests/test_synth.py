"""Synthetic generator: trajectory shape, invariants, determinism."""

import numpy as np
import pytest

from pournet.data import save_dataset
from pournet.synth import (SynthParams, angle_ramp, generate_dataset,
                           generate_sequence, weight_profile)

NOISELESS = SynthParams(num_sequences=10, noise_std=0.0, seed=14)


class TestWeightProfile:
    def test_endpoints_and_monotonicity(self):
        thetas = angle_ramp(10, 90.0, 8.0)
        curve = weight_profile(thetas, spill_angle_deg=30.0, f_init=1.0,
                               f_target=0.4)
        assert curve[0] == 1.0
        assert curve[-1] == pytest.approx(0.4, rel=1e-12)
        assert np.all(np.diff(curve) <= 0.0)

    def test_flat_before_spill(self):
        thetas = angle_ramp(40, 100.0, 8.0)
        curve = weight_profile(thetas, spill_angle_deg=60.0, f_init=1.5,
                               f_target=0.5)
        assert np.all(curve[thetas <= 60.0] == 1.5)

    def test_spill_above_max_angle_keeps_weight(self):
        thetas = angle_ramp(12, 90.0, 8.0)
        curve = weight_profile(thetas, spill_angle_deg=200.0, f_init=1.0,
                               f_target=0.4)
        assert np.all(curve == 1.0)

    def test_dense_ramp_stays_monotone_bitwise(self):
        thetas = angle_ramp(5000, 117.3, 11.0)
        curve = weight_profile(thetas, spill_angle_deg=40.1, f_init=2.31,
                               f_target=0.77)
        assert np.all(np.diff(curve) <= 0.0)


class TestAngleRamp:
    def test_exact_endpoints(self):
        for n, top, k in ((5, 60.0, 6.0), (37, 118.5, 11.2), (200, 90.0, 8.0)):
            thetas = angle_ramp(n, top, k)
            assert thetas[0] == 0.0
            assert thetas[-1] == top
            assert np.all(np.diff(thetas) > 0.0)


class TestGenerateSequence:
    def test_noiseless_sequence_matches_statics(self):
        for i in range(20):
            seq = generate_sequence(NOISELESS, np.random.default_rng(i), "s")
            weights = seq.weights
            assert weights[0] == seq.statics.f_init
            assert weights[-1] == seq.statics.f_final
            assert np.all(np.diff(weights) <= 0.0)

    def test_angles_monotone_from_zero(self):
        seq = generate_sequence(NOISELESS, np.random.default_rng(5), "s")
        thetas = seq.thetas
        assert thetas[0] == 0.0
        assert np.all(np.diff(thetas) > 0.0)

    def test_same_seed_identical(self):
        a = generate_sequence(NOISELESS, np.random.default_rng(123), "s")
        b = generate_sequence(NOISELESS, np.random.default_rng(123), "s")
        assert a == b

    def test_noise_clamped_at_empty_weight(self):
        params = SynthParams(num_sequences=1, noise_std=0.5, seed=0)
        for i in range(10):
            seq = generate_sequence(params, np.random.default_rng(i), "s")
            assert np.all(seq.weights >= seq.statics.f_empty)

    def test_lengths_within_range(self):
        params = SynthParams(num_sequences=1, length_range=(6, 9), seed=0)
        lengths = {len(generate_sequence(params, np.random.default_rng(i),
                                         "s")) for i in range(60)}
        assert lengths <= set(range(6, 10))
        assert len(lengths) > 1


class TestGenerateDataset:
    @pytest.mark.parametrize("count", [200, 1307, 289])
    def test_dataset_sizes(self, count):
        params = SynthParams(num_sequences=count, seed=3)
        assert len(generate_dataset(params)) == count

    def test_bit_reproducible(self, tmp_path):
        params = SynthParams(num_sequences=25, seed=77)
        first = generate_dataset(params)
        second = generate_dataset(params)
        assert first == second
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(first, pa)
        save_dataset(second, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_unique_ids(self):
        seqs = generate_dataset(SynthParams(num_sequences=50, seed=1))
        assert len({s.id for s in seqs}) == 50

    def test_invariants_hold_for_noisy_data(self):
        # dataclass validation re-runs all schema invariants on build
        seqs = generate_dataset(SynthParams(num_sequences=80, noise_std=0.05,
                                            seed=9))
        for seq in seqs:
            s = seq.statics
            assert s.f_empty <= s.f_final <= s.f_init
            assert np.all(seq.weights >= 0.0)


class TestSynthParams:
    def test_short_lengths_rejected(self):
        with pytest.raises(ValueError):
            SynthParams(length_range=(4, 10))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SynthParams(noise_std=-0.01)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="^noise_std must be finite"):
            SynthParams(noise_std=noise)
