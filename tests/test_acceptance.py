"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Budgets are asserted as stated (wall-clock upper bounds
on a desk-class machine).
"""

import time
from collections import defaultdict

import numpy as np
import pytest

from irsnoma_lab.channel import (
    RicianConfig,
    ScenarioGeometry,
    dbm_to_watts,
    default_region,
    sample_channels,
)
from irsnoma_lab.clustering import em_e_step, em_m_step, fit, init_gmm, log_likelihood
from irsnoma_lab.harness import (
    ExperimentConfig,
    cmd_compare_oma,
    cmd_pipeline,
    cmd_sweep_elements,
    cmd_sweep_power,
)
from irsnoma_lab.mobility import (
    ConstantVelocityModel,
    RecurrentPredictor,
    one_step_mse,
    persistence_mse,
    run_algorithm1,
)
from irsnoma_lab.noma import NetworkScenario
from irsnoma_lab.oracle import brute_force_optima
from irsnoma_lab.precoding import member_table, scale_to_power, zf_inverse
from irsnoma_lab.rl import (
    NomaPhaseEnv,
    QApproximator,
    tabular_q_update,
    train_agent,
)
from scalar_reference import evaluate_point, reference_point, sinr_cross

# Pinned regression scenario for the RL-vs-oracle criterion: 4 elements at
# 2 resolution bits, two 2-user clusters, alpha grid 0.1, 60 dBm budget.
PINNED_CHANNEL_SEED = 20250809
PINNED_ORACLE_RATE = 4.6234928677734235
# The DQN run's best rate (network seed 1, run seed 7), pinned bit for bit: it
# finds the oracle's optimum.
PINNED_DQN_RATE = 4.6234928677734235


def report(criterion: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {criterion}: {status} — {detail} "
        f"[{elapsed:.1f}s / budget {budget:.0f}s]"
    )
    assert ok, detail
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"


def pinned_scenario():
    geometry = ScenarioGeometry(
        bs_position=[0.0, -60.0, 10.0],
        user_positions=[[12.0, 6.0], [18.0, -4.0], [-10.0, 14.0], [-22.0, 3.0]],
    )
    channels = sample_channels(
        geometry, RicianConfig(), PINNED_CHANNEL_SEED, k_elements=4, n_antennas=2
    )
    return NetworkScenario(
        channels=channels, assignment=(0, 0, 1, 1), total_power=dbm_to_watts(60.0)
    )


def test_criterion_1_zero_forcing_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_residual = 0.0
    worst_power_gap = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        power = float(rng.uniform(0.1, 10.0))
        while True:
            h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            if np.linalg.cond(h) < 1e6:
                break
        ok, w, used = zf_inverse(h[None], member_table([[u] for u in range(m)]))
        assert ok[0]
        w = scale_to_power(w, used, power)
        prod = h @ w[0]
        scale = np.mean(np.real(np.diag(prod)))
        worst_residual = max(
            worst_residual, float(np.max(np.abs(prod / scale - np.eye(m))))
        )
        worst_power_gap = max(
            worst_power_gap, abs(float(np.sum(np.abs(w[0]) ** 2)) - power)
        )
    elapsed = time.perf_counter() - started
    ok = worst_residual < 1e-8 and worst_power_gap < 1e-9
    report(
        1,
        ok,
        f"zero-forcing identity residual {worst_residual:.2e} (<1e-8), "
        f"power gap {worst_power_gap:.2e} (<1e-9) over 1000 instances",
        elapsed,
        10.0,
    )


def test_criterion_2_sic_decoding_chain():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    violations = 0
    from irsnoma_lab.channel import ChannelRealization, PhaseConfig

    for _ in range(1000):
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        channels = ChannelRealization(
            g_matrix=g, user_channels=h, noise_variance=0.05
        )
        scenario = NetworkScenario(
            channels=channels, assignment=(0, 0, 1), total_power=2.0
        )
        phase = PhaseConfig(tuple(rng.integers(0, 4, size=3)), 2)
        split = float(rng.uniform(0.05, 0.95))
        splits = ((split, 1.0 - split), (1.0,))
        result = evaluate_point(scenario, phase, splits)
        if result.orders is None:
            continue
        orders = result.orders  # the scorer's own orders
        b, a = orders[0]  # weakest decoded first
        # Cross SINRs from the scalar reference on the production channels,
        # precoder and decoding orders.
        ref = reference_point(scenario, phase.indices, phase.resolution_bits, splits)
        assert ref.plan.decoding_order == orders
        cross = {
            (q, p): sinr_cross(0, q, p, ref.h_eff, ref.w, ref.plan, channels.noise_variance)
            for q, p in ((a, b), (b, b))
        }
        r_ab = np.log2(1.0 + cross[(a, b)])
        r_bb = np.log2(1.0 + cross[(b, b)])
        if r_ab >= r_bb:
            checked += 1
            # Any admissible QoS floor for user b (Eq. style: met by the
            # instance itself) must close the chain.
            floor_rate = np.log2(
                1.0 + rng.uniform(0.0, 1.0) * cross[(b, b)]
            )
            if not (r_ab >= r_bb - 1e-12 and r_bb >= floor_rate - 1e-12):
                violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and checked >= 500
    report(
        2,
        ok,
        f"decoding chain held on {checked} conditioned instances, "
        f"{violations} violations",
        elapsed,
        10.0,
    )


def test_criterion_3_em_monotone_and_convergent():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_drop = 0.0
    for _ in range(100):
        n = int(rng.integers(12, 40))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        x = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
        assignment = rng.integers(0, m, size=n)
        assignment[:m] = np.arange(m)
        params = init_gmm(assignment, x)
        before = log_likelihood(params, x)
        for _ in range(12):
            params = em_m_step(em_e_step(params, x), x)
            after = log_likelihood(params, x)
            worst_drop = max(worst_drop, before - after)
            before = after
    monotone_ok = worst_drop <= 1e-9

    blob_rng = np.random.default_rng(304)
    a = blob_rng.normal(0.0, 0.5, size=(50, 1))
    b = blob_rng.normal(10.0, 0.5, size=(50, 1))
    result = fit(np.vstack([a, b]), 2, epsilon=1e-15, seed=1)
    fitted = np.sort(result.params.means.ravel())
    expected = np.sort([a.mean(), b.mean()])
    mean_err = float(np.max(np.abs(fitted - expected)))
    fit_ok = result.converged and mean_err < 0.2

    elapsed = time.perf_counter() - started
    report(
        3,
        monotone_ok and fit_ok,
        f"worst likelihood drop {worst_drop:.2e} (<=1e-9) over 100 datasets; "
        f"blob means recovered to {mean_err:.3f} (<0.2), converged={result.converged}",
        elapsed,
        30.0,
    )


def _max_rel_error_lstm(rng) -> float:
    step = 1e-5
    pred = RecurrentPredictor(hidden_dim=3, window_len=4, seed=rng)
    windows = rng.standard_normal((3, 4, 2))[None]
    targets = rng.standard_normal((3, 2))[None]
    _, grads = pred.loss_and_gradients(windows, targets)
    worst = 0.0
    for name, grad in grads.items():
        param = getattr(pred, name)
        for idx in range(param.size):
            orig = param.flat[idx]
            param.flat[idx] = orig + step
            (up,), _ = pred.loss_and_gradients(windows, targets)
            param.flat[idx] = orig - step
            (down,), _ = pred.loss_and_gradients(windows, targets)
            param.flat[idx] = orig
            fd = (up - down) / (2 * step)
            a = grad.flat[idx]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    return worst


def _max_rel_error_qnet(rng) -> float:
    step = 1e-5
    approx = QApproximator(4, 3, hidden=(8, 8), seeds=[rng])
    feats = rng.standard_normal((5, 4))[None]
    actions = rng.integers(0, 3, size=5)[None]
    targets = rng.standard_normal(5)[None]
    _, grads_w, grads_b = approx.loss_and_gradients(feats, actions, targets)
    worst = 0.0
    for param, grad in list(zip(approx.weights, grads_w)) + list(
        zip(approx.biases, grads_b)
    ):
        idx_pool = rng.choice(param.size, size=min(30, param.size), replace=False)
        for idx in idx_pool:
            orig = param.flat[idx]
            param.flat[idx] = orig + step
            (up,), _, _ = approx.loss_and_gradients(feats, actions, targets)
            param.flat[idx] = orig - step
            (down,), _, _ = approx.loss_and_gradients(feats, actions, targets)
            param.flat[idx] = orig
            fd = (up - down) / (2 * step)
            a = grad.flat[idx]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    return worst


def test_criterion_4_gradient_checks():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_lstm = max(_max_rel_error_lstm(rng) for _ in range(20))
    worst_qnet = max(_max_rel_error_qnet(rng) for _ in range(20))
    elapsed = time.perf_counter() - started
    ok = worst_lstm < 1e-4 and worst_qnet < 1e-4
    report(
        4,
        ok,
        f"max relative gradient error: recurrent {worst_lstm:.2e}, "
        f"q-network {worst_qnet:.2e} (<1e-4, 20 draws each)",
        elapsed,
        60.0,
    )


def test_criterion_5_tabular_q_fixed_point():
    started = time.perf_counter()
    beta = 0.9
    q_star = np.zeros((2, 2))
    for _ in range(400):
        v = q_star.max(axis=1)
        for s in range(2):
            for a in range(2):
                q_star[s, a] = (1.0 if a == 1 else 0.0) + beta * v[a]
    table = defaultdict(lambda: np.zeros(2))
    updates = 0
    for _ in range(2500):
        for s in range(2):
            for a in range(2):
                tabular_q_update(
                    table, s, a, 1.0 if a == 1 else 0.0, a, psi=1.0, beta=beta
                )
                updates += 1
    learned = np.array([[table[s][a] for a in range(2)] for s in range(2)])
    err = float(np.max(np.abs(learned - q_star)))
    elapsed = time.perf_counter() - started
    ok = err < 1e-3 and updates <= 10_000
    report(
        5,
        ok,
        f"tabular fixed-point error {err:.2e} (<1e-3) in {updates} updates (<=1e4)",
        elapsed,
        5.0,
    )


def test_criterion_6_dqn_vs_oracle():
    started = time.perf_counter()
    scenario = pinned_scenario()
    (oracle,) = brute_force_optima(scenario, 2, 0.1, [scenario.total_power])
    assert oracle.best_rate == pytest.approx(PINNED_ORACLE_RATE, abs=1e-9)
    env = NomaPhaseEnv([scenario], resolution_bits=2, alpha_step=0.1)
    approx = QApproximator(env.feature_dim, env.n_actions, seeds=[1])
    (outcome,) = train_agent(
        env, approx, episodes=2000, steps_per_episode=15, seeds=[7]
    )
    ratio = outcome.best_rate / oracle.best_rate
    elapsed = time.perf_counter() - started
    ok = ratio >= 0.90 and outcome.best_rate <= oracle.best_rate + 1e-9
    report(
        6,
        ok,
        f"DQN best rate {outcome.best_rate:.4f} vs oracle {oracle.best_rate:.4f} "
        f"(ratio {ratio:.3f} >= 0.90, 2000 episodes)",
        elapsed,
        300.0,
    )
    assert outcome.best_rate == PINNED_DQN_RATE


def _trend_config(tmp_path, **overrides):
    params = dict(
        algorithm="oracle",
        out_dir=str(tmp_path / "out"),
        seeds=tuple(range(20)),
        n_users=1,
        m_clusters=1,
        k_elements=4,
        resolution_bits=2,
        alpha_step=0.5,
        power_dbm=60.0,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def test_criterion_7_trend_reproduction(tmp_path):
    started = time.perf_counter()
    power_cfg = _trend_config(
        tmp_path, powers_dbm=tuple(float(p) for p in range(20, 100, 10))
    )
    power_rows = cmd_sweep_power(power_cfg)
    power_ok = True
    for seed in power_cfg.seeds:
        rates = [r[3] for r in power_rows if r[2] == seed]
        power_ok &= all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    element_cfg = _trend_config(tmp_path, element_counts=(1, 2, 3, 4))
    element_rows = cmd_sweep_elements(element_cfg)
    element_ok = True
    for seed in element_cfg.seeds:
        rates = [r[3] for r in element_rows if r[2] == seed]
        element_ok &= all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    elapsed = time.perf_counter() - started
    report(
        7,
        power_ok and element_ok,
        f"oracle rate non-decreasing in power on {len(power_cfg.seeds)}/20 seeds "
        f"(20..90 dBm) and in element count on {len(element_cfg.seeds)}/20 seeds",
        elapsed,
        300.0,
    )


def test_criterion_8_noma_vs_oma_direction(tmp_path):
    started = time.perf_counter()
    cfg = ExperimentConfig(
        algorithm="oracle",
        out_dir=str(tmp_path / "out"),
        seeds=tuple(range(20)),
        n_users=2,
        m_clusters=1,
        k_elements=4,
        resolution_bits=2,
        alpha_step=0.1,
        powers_dbm=(20.0, 40.0, 60.0),
    )
    rows = cmd_compare_oma(cfg)
    ok = True
    gains = {}
    for power in cfg.powers_dbm:
        noma = np.mean([r[1] for r in rows if r[0] == power])
        oma = np.mean([r[2] for r in rows if r[0] == power])
        gains[power] = 100.0 * (noma - oma) / oma
        ok &= noma > oma
    elapsed = time.perf_counter() - started
    gain_text = ", ".join(f"{p:.0f} dBm: +{g:.1f}%" for p, g in gains.items())
    report(
        8,
        ok,
        f"mean NOMA rate exceeds TDMA at every power over 20 paired seeds "
        f"({gain_text})",
        elapsed,
        300.0,
    )


def test_criterion_9_mobility_beats_persistence():
    started = time.perf_counter()
    region = default_region()
    motion = ConstantVelocityModel(speed=1.5, heading_noise_std=0.0)
    wins = 0
    for seed in range(10):
        result = run_algorithm1(
            region, n_users=1, n0=16, n_max=64, seed=seed, motion=motion
        )
        predictor = result.predictors[0]
        # Held-out horizon: the final predicted block (samples the last
        # training round never saw) plus the preceding context window.
        tail = result.trajectories[0][24:]
        mse = one_step_mse(predictor, result.scaler, tail[None])[0]
        baseline = persistence_mse(tail, predictor.window_len)
        wins += mse < baseline
    elapsed = time.perf_counter() - started
    ok = wins >= 8
    report(
        9,
        ok,
        f"predictor beat the persistence baseline on {wins}/10 seeds (>=8)",
        elapsed,
        120.0,
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    started = time.perf_counter()
    base = dict(
        algorithm="dqn",
        seeds=(5,),
        n_users=4,
        m_clusters=2,
        k_elements=4,
        resolution_bits=2,
        power_dbm=60.0,
        alpha_step=0.5,
        slots=2,
        n0=12,
        n_max=24,
        window_len=8,
        predictor_train_steps=25,
        episodes=4,
        steps_per_episode=4,
        save_curves=True,
    )
    cfg_a = ExperimentConfig(**base, out_dir=str(tmp_path / "a"))
    cfg_b = ExperimentConfig(**base, out_dir=str(tmp_path / "b"))
    cmd_pipeline(cfg_a)
    cmd_pipeline(cfg_b)
    first = (tmp_path / "a" / "pipeline.csv").read_bytes()
    second = (tmp_path / "b" / "pipeline.csv").read_bytes()
    elapsed = time.perf_counter() - started
    ok = first == second and len(first) > 0
    report(
        10,
        ok,
        f"pipeline CSV bit-identical across two runs ({len(first)} bytes)",
        elapsed,
        60.0,
    )
