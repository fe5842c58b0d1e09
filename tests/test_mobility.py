import hashlib

import numpy as np
import pytest

from irsnoma_lab.channel import ServiceRegion, default_region
from irsnoma_lab.harness import read_csv, write_csv
from irsnoma_lab.mobility import (
    ConstantVelocityModel,
    EnvelopeTooLooseError,
    PositionScaler,
    RecurrentPredictor,
    _draw_minibatches,
    _sigmoid,
    displacement_pairs,
    one_step_mse,
    persistence_mse,
    rejection_sample_positions,
    run_algorithm1,
    sliding_windows,
)
from scalar_reference import (
    draw_minibatches,
    lstm_forward_batch,
    lstm_init,
    lstm_loss_and_gradients,
    lstm_train_step,
)

BOX = ServiceRegion(bounds=(-50.0, -50.0, 50.0, 50.0))

# run_algorithm1 at U = 3, n0 = 12, n_max = 40, 50 steps per round (seed 17).
MULTI_ROUND_SHA256 = "8c490597b4f1031eed7cf566fe21e11c3818abce6a3678fec2e59503094efb92"


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

    def test_loose_envelope_raises(self):
        # The obstacle leaves a 0.001 m strip along x = 50: about one
        # proposal in 10^5 lands in the region.
        strip = ServiceRegion(
            bounds=BOX.bounds,
            obstacle=np.array([[-51.0, -51.0], [49.999, -51.0], [49.999, 51.0], [-51.0, 51.0]]),
        )
        with pytest.raises(EnvelopeTooLooseError):
            rejection_sample_positions(strip, 50, seed=4)


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

    @pytest.mark.parametrize("field, value", [
        ("speed", float("nan")),
        ("speed", float("inf")),
        ("speed", -1.0),
        ("heading_noise_std", float("nan")),
        ("heading_noise_std", float("inf")),
        ("heading_noise_std", -0.05),
    ])
    def test_bad_settings_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} .* must be finite and >= 0"):
            ConstantVelocityModel(**{field: value})

    def test_standing_still_allowed(self):
        path = ConstantVelocityModel(0.0, 0.0).simulate(BOX, [1.0, 2.0], 3, seed=0)
        assert np.array_equal(path, np.tile([1.0, 2.0], (4, 1)))


class TestLstmForward:
    def test_dead_network_outputs_bias(self):
        pred = RecurrentPredictor(hidden_dim=4, window_len=3, seed=0)
        pred.w_gates[...] = 0.0
        pred.b_gates[...] = 0.0
        pred.w_out[...] = 0.0
        pred.b_out[...] = [0.25, -0.5]
        out = pred.forward(np.ones((3, 2))[None])
        assert np.allclose(out, [0.25, -0.5])

    def test_deterministic(self):
        pred = RecurrentPredictor(hidden_dim=5, window_len=4, seed=1)
        window = np.random.default_rng(2).standard_normal((4, 2))
        assert np.array_equal(pred.forward(window[None]), pred.forward(window[None]))

    def test_matches_independent_recurrence(self):
        # Re-derive each user's forward pass step by step from its raw gate
        # blocks.
        pred = RecurrentPredictor(hidden_dim=3, window_len=5, n_users=3, seed=3)
        rng = np.random.default_rng(4)
        windows = rng.standard_normal((3, 5, 2))
        hd = pred.hidden_dim

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        out = pred.forward(windows)
        for u, window in enumerate(windows):
            h = np.zeros(hd)
            c = np.zeros(hd)
            for x in window:
                xh = np.concatenate([x, h])
                z = pred.w_gates[u] @ xh + pred.b_gates[u]
                i, f, o = sigmoid(z[:hd]), sigmoid(z[hd : 2 * hd]), sigmoid(z[2 * hd : 3 * hd])
                g = np.tanh(z[3 * hd :])
                c = f * c + i * g
                h = o * np.tanh(c)
            expected = pred.w_out[u] @ h + pred.b_out[u]
            assert np.max(np.abs(out[u] - expected)) < 1e-10

    def test_non_finite_input_rejected(self):
        pred = RecurrentPredictor(window_len=2, seed=0)
        bad = np.array([[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(ValueError):
            pred.forward(bad[None])

    def test_wrong_window_shape_rejected(self):
        pred = RecurrentPredictor(window_len=4, n_users=2, seed=0)
        with pytest.raises(ValueError):
            pred.forward(np.zeros((2, 3, 2)))
        with pytest.raises(ValueError):
            pred.forward(np.zeros((1, 4, 2)))

    def test_user_view_shares_weights(self):
        pred = RecurrentPredictor(hidden_dim=3, window_len=4, n_users=3, seed=11)
        view = pred[-1]
        assert view.n_users == 1
        for name, value in view.parameters().items():
            assert np.shares_memory(value, getattr(pred, name))
            assert np.array_equal(value, getattr(pred, name)[2:])
        with pytest.raises(IndexError):
            pred[3]


class TestLstmTraining:
    def test_zero_learning_rate_keeps_parameters(self):
        # The constructor rejects a zero rate; set after construction, it
        # shows that the update is the only step that moves a parameter.
        pred = RecurrentPredictor(hidden_dim=4, window_len=3, seed=5)
        pred.learning_rate = 0.0
        before = {k: v.copy() for k, v in pred.parameters().items()}
        loss, _ = pred.train_step(np.ones((1, 3, 2))[None], np.array([[1.0, -1.0]])[None])
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
            loss, _ = pred.train_step(window[None, None], target[None, None])
            losses.append(loss)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_gradients_match_finite_differences(self):
        # Two users: each weight moves its own user's loss and no other.
        rng = np.random.default_rng(8)
        step = 1e-5
        for _ in range(5):
            pred = RecurrentPredictor(
                hidden_dim=3, window_len=4, learning_rate=0.1, n_users=2, seed=rng
            )
            windows = rng.standard_normal((2, 3, 4, 2))
            targets = rng.standard_normal((2, 3, 2))
            _, grads = pred.loss_and_gradients(windows, targets)
            for name, grad in grads.items():
                param = getattr(pred, name)
                flat_grad = grad.ravel()
                per_user = param.size // pred.n_users
                for idx in range(param.size):
                    user = idx // per_user
                    other = 1 - user
                    orig = param.flat[idx]
                    param.flat[idx] = orig + step
                    up, _ = pred.loss_and_gradients(windows, targets)
                    param.flat[idx] = orig - step
                    down, _ = pred.loss_and_gradients(windows, targets)
                    param.flat[idx] = orig
                    assert up[other] == down[other]
                    fd = (up[user] - down[user]) / (2 * step)
                    rel = abs(flat_grad[idx] - fd) / max(
                        abs(flat_grad[idx]), abs(fd), 1e-6
                    )
                    assert rel < 1e-4, f"{name}[{idx}]: {flat_grad[idx]} vs {fd}"

    def test_gradient_clipping_flagged(self):
        pred = RecurrentPredictor(
            hidden_dim=4, window_len=2, learning_rate=0.01, clip_norm=1e-9, seed=9
        )
        _, clipped = pred.train_step(np.ones((1, 2, 2))[None], np.array([[5.0, 5.0]])[None])
        assert clipped == 1

    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(learning_rate=0.0), "learning_rate"),
            (dict(learning_rate=-0.05), "learning_rate"),
            (dict(clip_norm=0.0), "clip_norm"),
            (dict(clip_norm=-1.0), "clip_norm"),
            (dict(n_users=0), "user count"),
        ],
    )
    def test_bad_settings_rejected_at_construction(self, setting, message):
        with pytest.raises(ValueError, match=message):
            RecurrentPredictor(seed=0, **setting)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            RecurrentPredictor(seed=0).train_step(
                np.empty((0, 8, 2))[None], np.empty((0, 2))[None]
            )

    def test_non_finite_parameters_name_their_users(self):
        # One infinite target of user 2 spoils only user 2's parameters.
        pred = RecurrentPredictor(hidden_dim=4, window_len=3, n_users=4, seed=12)
        rng = np.random.default_rng(13)
        windows, targets = rng.standard_normal((4, 5, 3, 2)), rng.standard_normal((4, 5, 2))
        targets[2, 1, 0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"^predictor parameters of users \[2\] became non-finite$"
        ):
            pred.train_step(windows, targets)
        for v in pred.parameters().values():
            assert np.isfinite(np.delete(v, 2, axis=0)).all()

    def test_malformed_batch_rejected_before_training(self):
        # Three users, batches of five, windows of three 2-D rows.
        pred = RecurrentPredictor(hidden_dim=4, window_len=3, n_users=3, seed=10)
        before = {k: v.copy() for k, v in pred.parameters().items()}
        windows = np.ones((3, 5, 3, 2))
        for shape in [(3, 1, 2), (5, 2), (1, 5, 1), (3, 5), (3, 5, 1), (3, 5, 2, 1)]:
            with pytest.raises(ValueError, match="targets must be"):
                pred.train_step(windows, np.ones(shape))
        targets = np.ones((3, 5, 2))
        for shape in [(5, 3, 2), (1, 5, 3, 2), (3, 5, 4, 2), (3, 5, 3, 1), (3, 5, 3, 2, 1)]:
            with pytest.raises(ValueError, match="windows must be"):
                pred.train_step(np.ones(shape), targets)
        for k, v in pred.parameters().items():
            assert np.array_equal(v, before[k])


class TestLockstepEqualsScalarReference:
    def test_training_is_bit_identical_per_user(self):
        # Random (U, H, T, B) shapes, 20 steps each.  Each user's targets get
        # their own scale and clip_norm sits at the median of the users'
        # first gradient norms, so within one step some users clip and some
        # do not.
        rng = np.random.default_rng(2024)
        counts = {"none": 0, "some": 0, "all": 0}
        for case in range(16):
            n_users = int(rng.integers(1, 6))
            hidden = int(rng.integers(1, 9))
            window_len = int(rng.integers(1, 7))
            batch = int(rng.integers(1, 18))
            for n_clipped in self.check_case(rng, case, n_users, hidden, window_len, batch):
                key = "none" if n_clipped == 0 else "all" if n_clipped == n_users else "some"
                counts[key] += 1
        assert min(counts.values()) > 0, counts

    @pytest.mark.parametrize(
        ("n_users", "hidden", "window_len", "batch"),
        [
            pytest.param(10, 16, 8, 16, id="paper-shape"),
            # One hidden unit over a batch: a strided hidden-state operand
            # changes the head's gradient bits at this shape.
            pytest.param(3, 1, 5, 12, id="one-hidden-unit"),
        ],
    )
    def test_fixed_shape_is_bit_identical_per_user(self, n_users, hidden, window_len, batch):
        rng = np.random.default_rng(2025)
        self.check_case(rng, 0, n_users, hidden, window_len, batch)

    def check_case(self, rng, case, n_users, hidden, window_len, batch):
        """Train 20 steps and forward once against the reference; the clip counts."""
        target_scale = 10.0 ** rng.uniform(-1.0, 1.0, size=(n_users, 1, 1))
        batches = [
            (
                rng.standard_normal((n_users, batch, window_len, 2)),
                rng.standard_normal((n_users, batch, 2)) * target_scale,
            )
            for _ in range(20)
        ]
        init_rng = np.random.default_rng(case)
        refs = [lstm_init(init_rng, 2, hidden) for _ in range(n_users)]
        first_grads = [
            lstm_loss_and_gradients(ref, w, t)[1] for ref, w, t in zip(refs, *batches[0])
        ]
        first_norms = [
            np.sqrt(sum(float(np.sum(g**2)) for g in grads.values())) for grads in first_grads
        ]
        clip_norm = float(np.median(first_norms))
        pred = RecurrentPredictor(
            hidden_dim=hidden, window_len=window_len, learning_rate=0.05,
            clip_norm=clip_norm, n_users=n_users, seed=case,
        )
        self.assert_same_weights(pred, refs)
        # Gradients bit for bit too: an update can round a last-bit
        # difference away.
        _, grads = pred.loss_and_gradients(*batches[0])
        for name, value in grads.items():
            assert np.array_equal(value, [g[name] for g in first_grads]), name
        clip_counts = []
        for windows, targets in batches:
            losses, n_clipped = pred.train_step(windows, targets)
            want = [
                lstm_train_step(ref, w, t, 0.05, clip_norm)
                for ref, w, t in zip(refs, windows, targets)
            ]
            assert np.array_equal(losses, [loss for loss, _ in want])
            assert isinstance(n_clipped, int)
            assert n_clipped == sum(flag for _, flag in want)
            self.assert_same_weights(pred, refs)
            clip_counts.append(n_clipped)
        windows = rng.standard_normal((n_users, window_len, 2))
        want = [lstm_forward_batch(ref, w[None])[0][0] for ref, w in zip(refs, windows)]
        assert np.array_equal(pred.forward(windows), want)
        return clip_counts

    @staticmethod
    def assert_same_weights(pred, refs):
        for name, value in pred.parameters().items():
            assert np.array_equal(value, [ref[name] for ref in refs]), name


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
             tiny, -tiny, 1e3 * tiny, -1e3 * tiny, 709.8, -709.8, 36.8, -36.8,
             708.4, -708.4, 745.1, -745.1, 746.0, -746.0, 1e-300, -1e-300]
        )
        got, want = _sigmoid(edges), masked_sigmoid(edges)
        assert np.array_equal(got, want, equal_nan=True)
        finite = ~np.isnan(edges)
        assert got[finite].tobytes() == want[finite].tobytes()
        rng = np.random.default_rng(41)
        for i in range(200):
            shape = (int(rng.integers(1, 20)), int(rng.integers(1, 50)))
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 2.5)
            assert _sigmoid(x).tobytes() == masked_sigmoid(x).tobytes(), i

    def test_in_place_on_a_gate_major_slice(self):
        # As the forward pass calls it: out=x on the (3, U, B, H) sigmoid
        # gates of a (4, U, B, H) block, with a scratch block for exp.
        rng = np.random.default_rng(43)
        for i in range(50):
            u, b, hd = (int(n) for n in rng.integers(1, 12, size=3))
            block = rng.standard_normal((4, u, b, hd)) * 10.0 ** rng.uniform(-3, 2.9)
            want = masked_sigmoid(block[:3].copy())
            candidate = block[3].copy()
            x = block[:3]
            assert _sigmoid(x, out=x, scratch=np.empty(x.shape)) is x
            assert block[:3].tobytes() == want.tobytes(), i
            assert block[3].tobytes() == candidate.tobytes(), i


class TestMinibatchDraws:
    @pytest.mark.parametrize("n_pairs", [1, 7, 23])
    def test_equal_one_uniform_per_angle(self, n_pairs):
        rng, ref_rng = np.random.default_rng(47), np.random.default_rng(47)
        picks, angles = _draw_minibatches(rng, 3, n_pairs, 40)
        want_picks, want_angles = draw_minibatches(ref_rng, 3, n_pairs, 40)
        assert picks.dtype == want_picks.dtype
        assert np.array_equal(picks, want_picks)
        assert angles.tobytes() == want_angles.tobytes()
        assert rng.random() == ref_rng.random()
        # At one pair, integers(0, 1) draws nothing: only the angles move
        # the stream.
        assert n_pairs > 1 or not picks.any()


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
        assert one_step_mse(pred, result.scaler, tail[None])[0] < persistence_mse(
            tail, pred.window_len
        )

    def test_multi_round_outputs_match_stored_hash(self):
        # Three users over two doubling rounds (blocks of 12 and 16): every
        # predicted block, user by user and round by round, then each user's
        # final weights, hashed as raw float64 bytes.
        result = run_algorithm1(
            BOX, n_users=3, n0=12, n_max=40, seed=17, train_steps_per_round=50
        )
        assert result.rounds == 2
        assert [b.shape[0] for b in result.predictions[0]] == [12, 16]
        digest = hashlib.sha256()
        for blocks in result.predictions:
            for block in blocks:
                digest.update(np.ascontiguousarray(block).tobytes())
        for predictor in result.predictors:
            for value in predictor.parameters().values():
                digest.update(np.ascontiguousarray(value).tobytes())
        assert digest.hexdigest() == MULTI_ROUND_SHA256

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
