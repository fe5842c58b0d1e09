"""Mobility prediction: rejection-sampled starts, sample doubling, LSTM.

Generates walkers in the obstructed service region, trains the recurrent
predictor round by round on the growing sample set, and scores one-step
forecasts against the persistence baseline on the held-out tail.
"""

import numpy as np

from irsnoma_lab.channel import default_region
from irsnoma_lab.mobility import (
    ConstantVelocityModel,
    one_step_mse,
    persistence_mse,
    rejection_sample_positions,
    run_algorithm1,
)

region = default_region()

print("=== rejection sampling over the region (obstacle carved out) ===")
starts = rejection_sample_positions(region, 1000, seed=0)
print("samples:", starts.shape, "| all inside region:",
      bool(region.contains_many(starts).all()))
quadrants = np.bincount(
    (starts[:, 0] > 0).astype(int) * 2 + (starts[:, 1] > 0).astype(int)
)
print("per-quadrant counts:", quadrants.tolist())

print("\n=== sample-doubling training loop ===")
motion = ConstantVelocityModel(speed=1.5, heading_noise_std=0.05)
result = run_algorithm1(
    region, n_users=3, n0=16, n_max=64, seed=3, motion=motion
)
print("rounds:", result.rounds, "(16 -> 32 -> 64 samples)")
for u, blocks in enumerate(result.predictions):
    sizes = [b.shape[0] for b in blocks]
    print(f"user {u}: predicted blocks of sizes {sizes}")

print("\n=== held-out one-step accuracy vs persistence ===")
tails = result.trajectories[:, 24:]
mses = one_step_mse(result.predictors, result.scaler, tails)
for u, (tail, mse) in enumerate(zip(tails, mses)):
    base = persistence_mse(tail, result.predictors.window_len)
    verdict = "beats" if mse < base else "loses to"
    print(f"user {u}: predictor {mse:.3f} m^2 {verdict} persistence {base:.3f} m^2")
