import numpy as np
import pytest

from irsnoma_lab.channel import ServiceRegion, default_region
from irsnoma_lab.harness import read_csv, write_csv
from irsnoma_lab.mobility import (
    ConstantVelocityModel,
    EnvelopeTooLooseError,
    PositionScaler,
    RecurrentPredictor,
    _sigmoid,
    displacement_pairs,
    one_step_mse,
    persistence_mse,
    rejection_sample_positions,
    run_algorithm1,
    sliding_windows,
)

BOX = ServiceRegion(bounds=(-50.0, -50.0, 50.0, 50.0))


class TestRejectionSampling:
    def test_uniform_quadrant_counts(self):
        n = 40_000
        pts = rejection_sample_positions(BOX, n, seed=0)
        quadrant = (pts[:, 0] > 0).astype(int) * 2 + (pts[:, 1] > 0).astype(int)
        counts = np.bincount(quadrant, minlength=4)
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) < 3 * sigma)

    def test_obstacle_region_empty(self):
        region = default_region()
        pts = rejection_sample_positions(region, 5000, seed=1)
        inside = np.array(
            [(-15 <= x <= 15) and (-50 <= y <= -35) for x, y in pts]
        )
        assert not inside.any()
        assert region.contains_many(pts).all()

    def test_zero_count(self):
        assert rejection_sample_positions(BOX, 0, seed=2).shape == (0, 2)

    def test_density_shaping(self):
        # Density proportional to x being positive: no samples at x < 0.
        density = lambda pts: (pts[:, 0] > 0).astype(float)
        pts = rejection_sample_positions(
            BOX, 2000, seed=3, density=density, density_bound=1.0
        )
        assert np.all(pts[:, 0] > 0)

    def test_loose_envelope_raises(self):
        density = lambda pts: (pts[:, 0] > 49.99).astype(float)
        with pytest.raises(EnvelopeTooLooseError):
            rejection_sample_positions(
                BOX, 50, seed=4, density=density, density_bound=1e3
            )


class TestMotionModel:
    def test_constant_speed_steps(self):
        model = ConstantVelocityModel(speed=2.0, heading_noise_std=0.0)
        path = model.simulate(BOX, [0.0, 0.0], 30, seed=5)
        steps = np.linalg.norm(np.diff(path, axis=0), axis=1)
        assert np.allclose(steps, 2.0)

    def test_stays_in_region(self):
        region = default_region()
        model = ConstantVelocityModel(speed=5.0, heading_noise_std=0.3)
        path = model.simulate(region, [40.0, 40.0], 200, seed=6)
        assert region.contains_many(path).all()

    def test_start_outside_rejected(self):
        with pytest.raises(ValueError):
            ConstantVelocityModel().simulate(BOX, [100.0, 0.0], 5, seed=0)


class TestLstmForward:
    def test_dead_network_outputs_bias(self):
        pred = RecurrentPredictor(hidden_dim=4, window_len=3, seed=0)
        pred.w_gates[...] = 0.0
        pred.b_gates[...] = 0.0
        pred.w_out[...] = 0.0
        pred.b_out[...] = [0.25, -0.5]
        out = pred.forward(np.ones((3, 2)))
        assert np.allclose(out, [0.25, -0.5])

    def test_deterministic(self):
        pred = RecurrentPredictor(hidden_dim=5, window_len=4, seed=1)
        window = np.random.default_rng(2).standard_normal((4, 2))
        assert np.array_equal(pred.forward(window), pred.forward(window))

    def test_matches_independent_recurrence(self):
        # Re-derive the forward pass step by step from the raw gate blocks.
        pred = RecurrentPredictor(hidden_dim=3, window_len=5, seed=3)
        rng = np.random.default_rng(4)
        window = rng.standard_normal((5, 2))
        hd = pred.hidden_dim

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = np.zeros(hd)
        c = np.zeros(hd)
        for x in window:
            xh = np.concatenate([x, h])
            z = pred.w_gates @ xh + pred.b_gates
            i, f, o = sigmoid(z[:hd]), sigmoid(z[hd : 2 * hd]), sigmoid(z[2 * hd : 3 * hd])
            g = np.tanh(z[3 * hd :])
            c = f * c + i * g
            h = o * np.tanh(c)
        expected = pred.w_out @ h + pred.b_out
        assert np.max(np.abs(pred.forward(window) - expected)) < 1e-10

    def test_non_finite_input_rejected(self):
        pred = RecurrentPredictor(window_len=2, seed=0)
        bad = np.array([[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(ValueError):
            pred.forward(bad)

    def test_wrong_window_shape_rejected(self):
        pred = RecurrentPredictor(window_len=4, seed=0)
        with pytest.raises(ValueError):
            pred.forward(np.zeros((3, 2)))


class TestLstmTraining:
    def test_zero_learning_rate_keeps_parameters(self):
        pred = RecurrentPredictor(hidden_dim=4, window_len=3, learning_rate=0.0, seed=5)
        before = {k: v.copy() for k, v in pred.parameters().items()}
        loss, _ = pred.train_step(np.ones((1, 3, 2)), np.array([[1.0, -1.0]]))
        assert loss > 0
        for k, v in pred.parameters().items():
            assert np.array_equal(v, before[k])

    def test_loss_strictly_decreases_on_constant_sample(self):
        pred = RecurrentPredictor(
            hidden_dim=6, window_len=4, learning_rate=1e-3, seed=6
        )
        window = np.random.default_rng(7).standard_normal((4, 2)) * 0.5
        target = np.array([0.3, -0.2])
        losses = []
        for _ in range(50):
            loss, _ = pred.train_step(window[None], target[None])
            losses.append(loss)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        step = 1e-5
        for _ in range(5):
            pred = RecurrentPredictor(
                hidden_dim=3, window_len=4, learning_rate=0.1, seed=rng
            )
            windows = rng.standard_normal((3, 4, 2))
            targets = rng.standard_normal((3, 2))
            _, grads = pred.loss_and_gradients(windows, targets)
            for name, grad in grads.items():
                param = getattr(pred, name)
                flat_grad = grad.ravel()
                for idx in range(param.size):
                    orig = param.flat[idx]
                    param.flat[idx] = orig + step
                    up, _ = pred.loss_and_gradients(windows, targets)
                    param.flat[idx] = orig - step
                    down, _ = pred.loss_and_gradients(windows, targets)
                    param.flat[idx] = orig
                    fd = (up - down) / (2 * step)
                    rel = abs(flat_grad[idx] - fd) / max(
                        abs(flat_grad[idx]), abs(fd), 1e-6
                    )
                    assert rel < 1e-4, f"{name}[{idx}]: {flat_grad[idx]} vs {fd}"

    def test_gradient_clipping_flagged(self):
        pred = RecurrentPredictor(
            hidden_dim=4, window_len=2, learning_rate=0.01, clip_norm=1e-9, seed=9
        )
        _, clipped = pred.train_step(np.ones((1, 2, 2)), np.array([[5.0, 5.0]]))
        assert clipped

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            RecurrentPredictor(seed=0).train_step(
                np.empty((0, 8, 2)), np.empty((0, 2))
            )


def masked_sigmoid(x):
    """The logistic function with one ``exp`` call per sign of the argument."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_equals_the_masked_form_bit_for_bit(self):
        tiny = np.finfo(float).smallest_subnormal
        edges = np.array(
            [0.0, -0.0, 745.0, -745.0, np.inf, -np.inf, np.nan,
             tiny, -tiny, 1e3 * tiny, -1e3 * tiny, 709.8, -709.8, 36.8, -36.8]
        )
        assert np.array_equal(_sigmoid(edges), masked_sigmoid(edges), equal_nan=True)
        rng = np.random.default_rng(41)
        for i in range(200):
            shape = (int(rng.integers(1, 20)), int(rng.integers(1, 50)))
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 2.5)
            assert np.array_equal(_sigmoid(x), masked_sigmoid(x)), i


class TestAlgorithm1:
    def test_no_training_round_when_budget_met(self):
        result = run_algorithm1(BOX, n_users=2, n0=12, n_max=12, seed=0)
        assert result.rounds == 0
        assert all(len(t) == 12 for t in result.trajectories)
        assert all(len(p) == 0 for p in result.predictions)

    def test_sample_count_doubles_per_round(self):
        result = run_algorithm1(
            BOX, n_users=1, n0=10, n_max=80, seed=1, window_len=8,
            train_steps_per_round=5,
        )
        assert result.rounds == 3  # 10 -> 20 -> 40 -> 80
        assert len(result.trajectories[0]) == 80
        assert [p.shape[0] for p in result.predictions[0]] == [10, 20, 40]

    def test_non_power_budget_truncates_final_block(self):
        result = run_algorithm1(
            BOX, n_users=1, n0=10, n_max=50, seed=2, window_len=8,
            train_steps_per_round=5,
        )
        assert result.rounds == 3  # 10 -> 20 -> 40 -> 50
        assert [p.shape[0] for p in result.predictions[0]] == [10, 20, 10]

    def test_positions_respect_region(self):
        region = default_region()
        result = run_algorithm1(
            region, n_users=3, n0=10, n_max=20, seed=3, train_steps_per_round=5
        )
        for traj in result.trajectories:
            assert traj.shape == (20, 2)
            assert region.contains_many(traj).all()

    def test_beats_persistence_on_linear_motion(self):
        motion = ConstantVelocityModel(speed=1.5, heading_noise_std=0.0)
        result = run_algorithm1(
            BOX, n_users=1, n0=16, n_max=64, seed=0, motion=motion
        )
        pred = result.predictors[0]
        tail = result.trajectories[0][24:]
        assert one_step_mse(pred, result.scaler, tail) < persistence_mse(
            tail, pred.window_len
        )

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            run_algorithm1(BOX, 1, n0=5, n_max=20, seed=0, window_len=8)
        with pytest.raises(ValueError):
            run_algorithm1(BOX, 1, n0=20, n_max=10, seed=0)


class TestHelpers:
    def test_sliding_windows_shapes(self):
        pos = np.arange(20, dtype=float).reshape(10, 2)
        windows, targets = sliding_windows(pos, 4)
        assert windows.shape == (6, 4, 2)
        assert targets.shape == (6, 2)
        assert np.array_equal(windows[0], pos[:4])
        assert np.array_equal(targets[0], pos[4])

    def test_displacement_pairs_unit_scale_for_straight_motion(self):
        pos = np.column_stack([np.arange(12.0), np.zeros(12)])
        windows, targets = displacement_pairs(pos, 5)
        assert np.allclose(np.linalg.norm(windows, axis=2), 1.0)
        assert np.allclose(targets, [[1.0, 0.0]] * targets.shape[0])

    def test_persistence_mse_matches_definition(self):
        pos = np.column_stack([np.arange(10.0) * 2.0, np.zeros(10)])
        # Constant steps of 2 m: persistence error is 4 m^2 everywhere.
        assert persistence_mse(pos, 4) == pytest.approx(4.0)

    def test_scaler_roundtrip(self):
        scaler = PositionScaler.from_region(BOX)
        pts = np.array([[10.0, -20.0], [0.0, 0.0]])
        assert np.allclose(scaler.denormalize(scaler.normalize(pts)), pts)
        assert np.allclose(scaler.normalize([50.0, 50.0]), [1.0, 1.0])


class TestTrajectoryCsv:
    def test_roundtrip(self, tmp_path):
        trajs = [
            np.array([[0.0, 1.0], [2.0, 3.0]]),
            np.array([[4.5, -1.25], [6.0, 7.0], [8.0, 9.0]]),
        ]
        path = tmp_path / "trajectories.csv"
        rows = [
            (u, t, x, y) for u, traj in enumerate(trajs) for t, (x, y) in enumerate(traj)
        ]
        write_csv(path, ["user", "t", "x", "y"], rows)
        _, read = read_csv(path)
        loaded = [
            np.array([[float(x), float(y)] for u, _, x, y in read if int(u) == user])
            for user in sorted({int(r[0]) for r in read})
        ]
        assert len(loaded) == 2
        for a, b in zip(trajs, loaded):
            assert np.array_equal(a, b)
