"""Channels and reflection states: sampling, phase control, effective links.

Walks through the physical layer: place a blocked-direct-link scenario,
draw Rician-faded channels for the surface hops, and see how discrete
phase choices steer the effective channel seen by each user.
"""

import numpy as np

from irsnoma_lab.channel import (
    PhaseConfig,
    RicianConfig,
    ScenarioGeometry,
    effective_channels_batch,
    reflection_coefficients,
    sample_channels,
)

rng_seed = 7
geometry = ScenarioGeometry(
    bs_position=[0.0, -60.0, 10.0],
    user_positions=[[12.0, 6.0], [30.0, -10.0]],
)
cfg = RicianConfig()  # 3 dB Rice factor, exponents 2.2 / 2.8, -80 dBm noise

print("=== scenario ===")
print("BS at", geometry.bs_position.tolist(), "| surface at origin")
for u, pos in enumerate(geometry.user_positions):
    d = np.linalg.norm(pos)
    print(f"user {u} at {pos[:2].tolist()} ({d:.1f} m from the surface)")

channels = sample_channels(geometry, cfg, rng_seed, k_elements=16, n_antennas=2)
print("\n=== channel draw ===")
print("G matrix:", channels.g_matrix.shape, "| per-user vectors:",
      channels.user_channels.shape)
print("noise variance:", channels.noise_variance, "W")
print("mean |G| entry:", np.mean(np.abs(channels.g_matrix)))

# Reflection coefficients are unit-modulus points on a 2^B grid.
phase = PhaseConfig(tuple(range(16)), resolution_bits=4)
coeffs = reflection_coefficients(phase)
print("\n=== reflection state (B = 4) ===")
print("first four coefficients:", np.round(coeffs[:4], 3))
print("max | |coeff| - 1 |:", np.max(np.abs(np.abs(coeffs) - 1.0)))

# The effective channel is what the precoder actually works with.  A common
# shift of every phase index leaves all magnitudes untouched.
h_eff, h_eff_shifted = effective_channels_batch(
    channels, [phase.indices, phase.shifted(5).indices], resolution_bits=4
)
print("\n=== effective channels ===")
print("per-user effective gains:", np.linalg.norm(h_eff, axis=1))
print("after a common index shift:", np.linalg.norm(h_eff_shifted, axis=1))

# Phase choice matters: compare a few random reflection states, all at once.
rng = np.random.default_rng(rng_seed)
random_phases = rng.integers(0, 16, size=(200, 16))
user0 = effective_channels_batch(channels, random_phases, 4, users=[0])[:, 0]
gains = np.linalg.norm(user0, axis=1)
print("\nuser-0 gain over 200 random states: min %.3e, max %.3e (%.1fx spread)"
      % (min(gains), max(gains), max(gains) / min(gains)))
