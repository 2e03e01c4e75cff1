"""Physics-plausible synthetic pouring sequences.

The generator is plumbing: it produces ready-to-train datasets with the
real schema (angle ramp, flat-then-drop weight curve, static features)
without claiming fidelity to any particular recorded distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PouringSequence, StaticFeatures

# (name, relative density) pairs, and the uniform ranges each sequence's
# statics and pour shape are drawn from
MATERIALS = (("water", 1.0), ("beans", 0.85), ("ice", 0.92))
D_CUP_RANGE = (60.0, 120.0)  # mm
H_CUP_RANGE = (80.0, 160.0)  # mm
D_CTA_RANGE = (50.0, 110.0)  # mm
H_CTA_RANGE = (70.0, 150.0)  # mm
EMPTY_WEIGHT_RANGE = (0.1, 0.5)  # lbf
FILL_WEIGHT_RANGE = (0.2, 2.0)  # lbf
MAX_ANGLE_RANGE_DEG = (60.0, 120.0)
SPILL_FRACTION_RANGE = (0.25, 0.7)  # of the max angle
POUR_FRACTION_RANGE = (0.3, 0.95)  # of the fill weight
RAMP_STEEPNESS_RANGE = (6.0, 12.0)


@dataclass(frozen=True)
class SynthParams:
    """Settings of the synthetic generator."""

    num_sequences: int = 200
    length_range: tuple = (20, 50)  # timesteps, inclusive
    noise_std: float = 0.01  # lbf, observation noise
    seed: int = 0

    def __post_init__(self):
        if self.num_sequences < 1:
            raise ValueError("num_sequences must be at least 1")
        t_min, t_max = self.length_range
        if t_min < 5 or t_max < t_min:
            raise ValueError("length_range needs 5 <= T_min <= T_max")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ValueError("noise_std must be finite and non-negative")


def angle_ramp(num_steps: int, max_angle_deg: float, steepness: float) -> np.ndarray:
    """Monotone sigmoid-shaped ramp from exactly 0 to exactly max_angle_deg."""
    if num_steps < 2:
        return np.zeros(num_steps)
    u = np.linspace(0.0, 1.0, num_steps)
    g = 1.0 / (1.0 + np.exp(-steepness * (u - 0.5)))
    return max_angle_deg * ((g - g[0]) / (g[-1] - g[0]))


def weight_profile(thetas, spill_angle_deg: float, f_init: float,
                   f_target: float) -> np.ndarray:
    """Latent noise-free weight curve over a monotone angle ramp.

    Flat at f_init until the angle crosses the spill threshold, then a
    smoothstep-shaped monotone drop reaching f_target at the final angle.
    If the threshold is never crossed the curve stays at f_init. The
    first value is exactly f_init and the curve never increases.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    theta_max = thetas[-1]
    if spill_angle_deg >= theta_max:
        return np.full(thetas.shape, float(f_init))
    s = np.clip((thetas - spill_angle_deg) / (theta_max - spill_angle_deg),
                0.0, 1.0)
    poured = s * s * (3.0 - 2.0 * s)
    # rounding guard: keep the poured fraction non-decreasing bit-for-bit
    poured = np.maximum.accumulate(poured)
    return f_init - (f_init - f_target) * poured


def generate_sequence(params: SynthParams, rng: np.random.Generator,
                      seq_id: str) -> PouringSequence:
    """Sample one pouring demonstration from the generator model."""
    t_min, t_max = params.length_range
    num_steps = int(rng.integers(t_min, t_max + 1))
    _, rho = MATERIALS[int(rng.integers(len(MATERIALS)))]
    d_cup = rng.uniform(*D_CUP_RANGE)
    h_cup = rng.uniform(*H_CUP_RANGE)
    d_cta = rng.uniform(*D_CTA_RANGE)
    h_cta = rng.uniform(*H_CTA_RANGE)
    f_empty = rng.uniform(*EMPTY_WEIGHT_RANGE)
    fill = rng.uniform(*FILL_WEIGHT_RANGE)
    f_init = f_empty + fill
    max_angle = rng.uniform(*MAX_ANGLE_RANGE_DEG)
    steepness = rng.uniform(*RAMP_STEEPNESS_RANGE)
    # fuller cups spill earlier: tie the spill fraction to the fill level
    # (1 lbf of water is roughly 453600 mm^3), plus a little sampled jitter
    capacity = np.pi * (d_cta / 2.0) ** 2 * h_cta
    fill_level = min(1.0, 453600.0 * fill / rho / capacity)
    lo, hi = SPILL_FRACTION_RANGE
    spill_fraction = lo + (hi - lo) * (1.0 - fill_level)
    spill_fraction += 0.1 * (hi - lo) * rng.uniform(-1.0, 1.0)
    spill_angle = max_angle * min(hi, max(lo, spill_fraction))
    poured_fraction = rng.uniform(*POUR_FRACTION_RANGE)
    f_target = f_empty + (1.0 - poured_fraction) * fill

    thetas = angle_ramp(num_steps, max_angle, steepness)
    latent = weight_profile(thetas, spill_angle, f_init, f_target)
    noise = rng.standard_normal(num_steps)
    if params.noise_std > 0.0:
        observed = np.maximum(latent + params.noise_std * noise, f_empty)
    else:
        observed = latent

    statics = StaticFeatures(f_init=f_init, f_empty=f_empty, f_final=latent[-1],
                             d_cup=d_cup, h_cup=h_cup, d_cta=d_cta,
                             h_cta=h_cta, rho=rho)
    return PouringSequence(id=seq_id, thetas=thetas, weights=observed,
                           statics=statics)


def generate_dataset(params: SynthParams):
    """Sample num_sequences demonstrations, one derived seed per sequence."""
    children = np.random.SeedSequence(params.seed).spawn(params.num_sequences)
    return [generate_sequence(params, np.random.default_rng(child),
                              seq_id=f"synth-{i:05d}")
            for i, child in enumerate(children)]
