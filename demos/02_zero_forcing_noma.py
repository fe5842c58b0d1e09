"""Zero-forcing plus NOMA: from channels to sum rate and feasibility.

Builds a two-cluster downlink, inverts the cluster heads' combined
channel, splits power inside each cluster, and inspects the gain-sorted
decoding order, the sum rate, the SIC/QoS feasibility verdict, and the
TDMA baseline.
"""

import numpy as np

from irsnoma_lab.channel import (
    PhaseConfig,
    RicianConfig,
    ScenarioGeometry,
    dbm_to_watts,
    effective_channels_batch,
    sample_channels,
)
from irsnoma_lab.noma import (
    NetworkScenario,
    evaluate_batch,
    oma_tdma_sum_rate,
)

geometry = ScenarioGeometry(
    bs_position=[0.0, -60.0, 10.0],
    user_positions=[[10.0, 5.0], [14.0, 9.0], [-20.0, 12.0], [-26.0, 18.0]],
)
channels = sample_channels(
    geometry, RicianConfig(), 42, k_elements=8, n_antennas=2
)
scenario = NetworkScenario(
    channels=channels,
    assignment=(0, 0, 1, 1),       # two clusters of two users
    total_power=dbm_to_watts(60.0),
)

phase = PhaseConfig((0,) * 8, resolution_bits=3)
phase_idx = [phase.indices]
# A power split is one coefficient row: cluster 0's users, then cluster 1's,
# each cluster in decoding order.  One call scores every (phase, row) pair.
balanced, classic = [0.5, 0.5, 0.5, 0.5], [0.8, 0.2, 0.8, 0.2]
grid = evaluate_batch(scenario, phase_idx, [balanced, classic], phase.resolution_bits)

print("=== balanced power split ===")
own_gains = grid.own_gains[0]
print("own-beam gains |h_u . w_m|:", np.array2string(own_gains, precision=3))
# Each cluster decodes its weakest own-beam gain first: the scorer's order
# lists the user in each decoding slot, cluster after cluster.
splits = scenario.split_tuples(balanced)
for m, order in enumerate(scenario.split_tuples(grid.order[0])):
    print(f"cluster {m}: decode order {' > '.join(map(str, order))}, "
          f"alphas {splits[m]}")
print("sum rate: %.3f bits/s/Hz | SIC and QoS ok: %s"
      % (grid.sum_rate[0, 0], grid.feasible[0, 0]))

print("\n=== favoring the weak user (classic NOMA split) ===")
print("sum rate: %.3f | feasible: %s" % (grid.sum_rate[0, 1], grid.feasible[0, 1]))

print("\n=== power sweep at this configuration ===")
for dbm in (30.0, 45.0, 60.0, 75.0):
    swept = NetworkScenario(
        channels=channels, assignment=(0, 0, 1, 1), total_power=dbm_to_watts(dbm)
    )
    r = evaluate_batch(swept, phase_idx, [classic], phase.resolution_bits)
    print(f"P = {dbm:4.0f} dBm -> sum rate {r.sum_rate[0, 0]:.3f}")

# TDMA baseline with the same per-user effective gains at this phase state.
h_eff = effective_channels_batch(channels, [phase.indices], phase.resolution_bits)[0]
gains = np.linalg.norm(h_eff, axis=1)
oma = oma_tdma_sum_rate(gains, dbm_to_watts(60.0), channels.noise_variance)
print("\nTDMA baseline at 60 dBm (same phase state): %.3f bits/s/Hz" % oma)
print("(phases are unoptimized here; demos 05/06 compare optimized schemes,")
print(" where the non-orthogonal side comes out ahead)")
