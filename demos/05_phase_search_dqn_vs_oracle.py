"""Phase/power search: exhaustive optimum, DQN agent, random baseline.

On an instance small enough to enumerate (4 elements at 2 bits, two 2-user
clusters, 0.1 power grid) the brute-force search provides ground truth;
the local-move DQN agent should land within a few percent of it and the
random-phase baseline noticeably below.
"""

import numpy as np

from irsnoma_lab.channel import RicianConfig, ScenarioGeometry, dbm_to_watts, sample_channels
from irsnoma_lab.noma import NetworkScenario
from irsnoma_lab.oracle import brute_force_optima
from irsnoma_lab.rl import NomaPhaseEnv, QApproximator, train_agent

geometry = ScenarioGeometry(
    bs_position=[0.0, -60.0, 10.0],
    user_positions=[[12.0, 6.0], [18.0, -4.0], [-10.0, 14.0], [-22.0, 3.0]],
)
channels = sample_channels(geometry, RicianConfig(), 20250809, k_elements=4, n_antennas=2)
scenario = NetworkScenario(
    channels=channels, assignment=(0, 0, 1, 1), total_power=dbm_to_watts(60.0)
)

print("=== exhaustive search ===")
(oracle,) = brute_force_optima(
    scenario, resolution_bits=2, alpha_step=0.1, powers=[scenario.total_power]
)
print("space:", oracle.evaluated_count, "(phase state, split) points")
print("optimum: %.4f bits/s/Hz at phases %s, splits %s (%.1fs)"
      % (oracle.best_rate, oracle.best_phase.indices,
         tuple(tuple(round(a, 2) for a in s) for s in oracle.best_splits),
         oracle.wall_time_s))

print("\n=== DQN agent (600 episodes) ===")
env = NomaPhaseEnv([scenario], resolution_bits=2, alpha_step=0.1)
approx = QApproximator(env.feature_dim, env.n_actions, seeds=[1])
(outcome,) = train_agent(env, approx, episodes=600, steps_per_episode=15, seeds=[7])
print("best visited: %.4f (%.1f%% of optimum)"
      % (outcome.best_rate, 100 * outcome.best_rate / oracle.best_rate))
marks = [0, 99, 299, 599]
for m in marks:
    pt = outcome.curve[m]
    print(f"episode {pt.episode:4d}: running best {pt.best_reward:.4f}, "
          f"epsilon {pt.epsilon:.3f}")

print("\n=== random-phase baseline (600 draws) ===")
rng = np.random.default_rng(7)
best = 0.0
for _ in range(600):
    state, result = env.random_state([rng])
    if result.feasible[0]:
        best = max(best, result.sum_rate[0])
print("best random draw: %.4f (%.1f%% of optimum)"
      % (best, 100 * best / oracle.best_rate))
