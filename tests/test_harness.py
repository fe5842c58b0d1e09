import itertools
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma_lab import harness
from irsnoma_lab.channel import ChannelRealization, load_scenario
from irsnoma_lab.cli import main
from irsnoma_lab.harness import (
    ExperimentConfig,
    SeedRegistry,
    aligned_single_user_gain,
    best_single_user_gain,
    cmd_cluster,
    cmd_compare_oma,
    cmd_generate,
    cmd_pipeline,
    cmd_predict,
    cmd_sweep_elements,
    cmd_sweep_power,
    optimize_scenario,
    prepare,
    read_csv,
    write_csv,
)
from irsnoma_lab.oracle import composition_count
from scalar_reference import evaluate_point, reference_point

SMALL = dict(
    algorithm="random-phase",
    seeds=(1,),
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
    random_samples=20,
    episodes=6,
    steps_per_episode=6,
    save_curves=False,
)

ORACLE_1U = dict(
    algorithm="oracle",
    seeds=(0,),
    n_users=1,
    m_clusters=1,
    k_elements=4,
    resolution_bits=2,
    power_dbm=40.0,
    alpha_step=0.5,
)

# One cluster of all ten users on a 1 % power grid: only 2 phase configs,
# but the split grid alone is far above the oracle's evaluation guard.
ORACLE_SPLITS_OVERSIZE = dict(
    SMALL,
    algorithm="oracle",
    n_users=10,
    m_clusters=1,
    k_elements=1,
    resolution_bits=1,
    alpha_step=0.01,
)


def oracle_1u_config(tmp_path, **overrides):
    params = {**ORACLE_1U, "out_dir": str(tmp_path / "out"), **overrides}
    return ExperimentConfig(**params)


def read_trajectories(path):
    """Per-user (t, 2) position arrays from a ``generate`` trajectory CSV."""
    header, rows = read_csv(path)
    assert header == ["user", "t", "x", "y"]
    users = sorted({int(r[0]) for r in rows})
    return [
        np.array([[float(x), float(y)] for u, _, x, y in rows if int(u) == user])
        for user in users
    ]


def small_config(tmp_path, **overrides):
    params = {**SMALL, "out_dir": str(tmp_path / "out"), **overrides}
    return ExperimentConfig(**params)


def has_finite_loss(cfg, name):
    """True if a learning curve took a train step: some loss is not NaN.

    The DQN trains only once its replay holds 200 transitions, so a run
    needs more than 200 agent steps per slot (12 x 20 here) to get one.
    """
    _, rows = read_csv(os.path.join(cfg.out_dir, "curves", name))
    return any(np.isfinite(float(row[3])) for row in rows)


class TestSeedRegistry:
    def test_streams_deterministic_and_named(self):
        a = SeedRegistry(7)
        b = SeedRegistry(7)
        assert a.rng("channel").integers(1 << 62) == b.rng("channel").integers(1 << 62)
        assert a.rng("channel").integers(1 << 62) != a.rng("cluster").integers(1 << 62)

    def test_master_changes_all_streams(self):
        draws = [SeedRegistry(master).rng("x").integers(1 << 62) for master in (1, 2)]
        assert draws[0] != draws[1]


class TestConfig:
    def test_power_range_enforced(self):
        with pytest.raises(ValueError):
            ExperimentConfig(powers_dbm=(500.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(power_dbm=-10.0)

    def test_seed_list_required(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())

    def test_algorithm_whitelist(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="genetic")

    def test_from_json_with_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"algorithm": "tabular", "seeds": [5]}))
        cfg = ExperimentConfig.from_json(path, out_dir="elsewhere", seeds=(9,))
        assert cfg.algorithm == "tabular"
        assert cfg.seeds == (9,)
        assert cfg.out_dir == "elsewhere"

    def test_default_power_sweep_matches_20_to_90(self):
        cfg = ExperimentConfig()
        assert cfg.powers_dbm == tuple(float(p) for p in range(20, 100, 10))

    def test_clustering_epsilon_default(self):
        assert ExperimentConfig().clustering_epsilon == 1e-15

    def test_scenario_file_lifts_the_user_count_check(self):
        cfg = ExperimentConfig(n_users=2, m_clusters=5, scenario_path="s.json")
        assert cfg.m_clusters == 5

    def test_oracle_split_bound_is_the_fewest_splits_of_any_clustering(self):
        # Every cluster size vector of n users in m non-empty clusters.
        for n in range(1, 9):
            for m in range(1, n + 1):
                grid = itertools.product(range(1, n + 1), repeat=m)
                sizes = [c for c in grid if sum(c) == n]
                for units in (1, 2, 5, 10):
                    fewest = min(
                        math.prod(composition_count(units, s) for s in c) for c in sizes
                    )
                    assert fewest == composition_count(units, n - m + 1)

    def test_scenario_file_keeps_the_phase_only_oracle_check(self):
        doc = dict(ORACLE_SPLITS_OVERSIZE, scenario_path="s.json")
        assert ExperimentConfig(**doc).alpha_step == 0.01
        with pytest.raises(ValueError, match="2\\*\\*27 oracle phase configs x 1 "):
            ExperimentConfig(**{**doc, "k_elements": 27})


class TestCsvHelpers:
    def test_roundtrip_with_schema_header(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["a", "b"], [(1, 0.5), (2, 0.25)])
        text = path.read_text()
        assert text.startswith("# irsnoma-lab v")
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["1", "0.5"], ["2", "0.25"]]

    def test_write_ignores_a_squatted_temp_name(self, tmp_path):
        # A fixed "<path>.tmp" name would collide with this directory.
        os.makedirs(tmp_path / "pipeline.csv.tmp")
        write_csv(tmp_path / "pipeline.csv", ["a"], [(1,)])
        assert read_csv(tmp_path / "pipeline.csv") == (["a"], [["1"]])
        assert sorted(os.listdir(tmp_path)) == ["pipeline.csv", "pipeline.csv.tmp"]

    def test_written_file_gets_the_umask_mode(self, tmp_path):
        umask = os.umask(0o022)
        try:
            write_csv(tmp_path / "table.csv", ["a"], [(1,)])
        finally:
            os.umask(umask)
        assert stat.S_IMODE(os.stat(tmp_path / "table.csv").st_mode) == 0o644


class TestGenerate:
    def test_regenerates_bit_identically(self, tmp_path):
        cfg = small_config(tmp_path)
        paths = cmd_generate(cfg)
        first = {k: Path(v).read_bytes() for k, v in paths.items()}
        paths = cmd_generate(cfg)
        second = {k: Path(v).read_bytes() for k, v in paths.items()}
        assert first == second

    def test_single_slot_trajectory_is_initial_positions(self, tmp_path):
        cfg = small_config(tmp_path, slots=1)
        paths = cmd_generate(cfg)
        trajs = read_trajectories(paths["trajectories"])
        assert len(trajs) == cfg.n_users
        assert all(len(t) == 1 for t in trajs)
        geometry, _, _ = load_scenario(paths["scenario"])
        for traj, start in zip(trajs, geometry.user_positions):
            assert np.allclose(traj[0], start[:2])

    def test_positions_pass_region_check(self, tmp_path):
        cfg = small_config(tmp_path, slots=6)
        paths = cmd_generate(cfg)
        geometry, _, _ = load_scenario(paths["scenario"])
        for traj in read_trajectories(paths["trajectories"]):
            assert geometry.region.contains_many(traj).all()


class TestPipeline:
    def test_occupancy_sums_to_user_count(self, tmp_path):
        cfg = small_config(tmp_path)
        rows = cmd_pipeline(cfg)
        assert len(rows) == cfg.slots
        for row in rows:
            occupancy = [int(v) for v in row[4].split("-")]
            assert sum(occupancy) == cfg.n_users

    def test_bit_identical_reruns(self, tmp_path):
        cfg = small_config(
            tmp_path, algorithm="dqn", episodes=12, steps_per_episode=20,
            save_curves=True,
        )
        cmd_pipeline(cfg)
        first = Path(cfg.out_dir, "pipeline.csv").read_bytes()
        cmd_pipeline(cfg)
        second = Path(cfg.out_dir, "pipeline.csv").read_bytes()
        assert first == second
        for slot in range(cfg.slots):
            assert has_finite_loss(cfg, f"curve_seed1_slot{slot}.csv")

    def test_dqn_beats_random_phase_on_paired_slots(self, tmp_path):
        base = small_config(
            tmp_path, slots=10, episodes=12, steps_per_episode=20, random_samples=20
        )
        random_rows = cmd_pipeline(base.with_overrides(algorithm="random-phase"))
        dqn = base.with_overrides(algorithm="dqn", save_curves=True)
        dqn_rows = cmd_pipeline(dqn)
        random_mean = np.mean([r[2] for r in random_rows])
        dqn_mean = np.mean([r[2] for r in dqn_rows])
        assert dqn_mean >= random_mean
        for slot in range(dqn.slots):
            assert has_finite_loss(dqn, f"curve_seed1_slot{slot}.csv")

    def test_learning_curves_written(self, tmp_path):
        cfg = small_config(
            tmp_path, algorithm="dqn", episodes=12, steps_per_episode=20,
            slots=1, save_curves=True,
        )
        cmd_pipeline(cfg)
        curve = os.path.join(cfg.out_dir, "curves", "curve_seed1_slot0.csv")
        header, rows = read_csv(curve)
        assert header == ["episode", "best_reward", "epsilon", "loss"]
        assert len(rows) == 12
        assert has_finite_loss(cfg, "curve_seed1_slot0.csv")


class TestWinnerPlan:
    @pytest.mark.parametrize("algorithm", ["oracle", "random-phase", "dqn", "tabular"])
    def test_decoding_order_matches_reference(self, tmp_path, monkeypatch, algorithm):
        recorded = []
        build_orders = harness.decoding_orders

        def spy(scenario, own_gains):
            recorded.append(own_gains)
            return build_orders(scenario, own_gains)

        monkeypatch.setattr(harness, "decoding_orders", spy)
        budget = dict(episodes=12, steps_per_episode=20) if algorithm == "dqn" else {}
        cfg = small_config(tmp_path, algorithm=algorithm, n_users=6, **budget)
        setup = prepare(cfg, 1)
        channels, fit = setup.draw(cfg.k_elements)
        scenario = setup.scenario(channels, fit.assignment)
        (outcome,) = optimize_scenario([(scenario, setup.registry.rng("agent/test"))], cfg)
        assert outcome.feasible
        assert max(len(order) for order in outcome.orders) > 1
        if algorithm == "dqn":
            assert any(np.isfinite(point.loss) for point in outcome.curve)
        ref = reference_point(
            scenario, outcome.phase.indices, cfg.resolution_bits, outcome.splits
        )
        assert outcome.orders == ref.plan.decoding_order
        # The orders are built from the gains the search recorded for its
        # winner, and those gains equal a fresh evaluation of that point.
        (gains,) = recorded
        fresh = evaluate_point(scenario, outcome.phase, outcome.splits)
        assert np.array_equal(gains, fresh.own_gains)


class TestSweeps:
    def test_power_sweep_monotone_under_oracle(self, tmp_path):
        cfg = oracle_1u_config(
            tmp_path,
            seeds=(0, 1, 2),
            powers_dbm=(20.0, 40.0, 60.0, 80.0),
        )
        rows = cmd_sweep_power(cfg)
        for seed in cfg.seeds:
            rates = [r[3] for r in rows if r[2] == seed]
            assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_single_power_single_row_per_seed(self, tmp_path):
        cfg = oracle_1u_config(
            tmp_path,
            powers_dbm=(30.0,),
        )
        rows = cmd_sweep_power(cfg)
        assert len(rows) == 1
        header, _ = read_csv(os.path.join(cfg.out_dir, "sweep_power.csv"))
        assert header == ["power_dbm", "algorithm", "seed", "sum_rate"]

    def test_element_sweep_monotone_under_oracle(self, tmp_path):
        cfg = oracle_1u_config(
            tmp_path,
            seeds=(0, 1, 2),
            element_counts=(1, 2, 3, 4),
        )
        rows = cmd_sweep_elements(cfg)
        for seed in cfg.seeds:
            rates = [r[3] for r in rows if r[2] == seed]
            assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_element_sweep_diminishing_returns(self, tmp_path):
        # Averaged over 20 seeds, the growth of rate with element count
        # slows down: the coarse-grid second difference is non-positive.
        cfg = oracle_1u_config(
            tmp_path,
            seeds=tuple(range(20)),
            k_elements=8,
            resolution_bits=1,
            element_counts=(2, 5, 8),
            power_dbm=60.0,  # log regime; at low SNR growth is still convex
        )
        rows = cmd_sweep_elements(cfg)
        means = [
            np.mean([r[3] for r in rows if r[0] == k]) for k in cfg.element_counts
        ]
        assert means[2] - 2 * means[1] + means[0] <= 0.0

    def test_degenerate_element_sweep(self, tmp_path):
        cfg = oracle_1u_config(
            tmp_path,
            element_counts=(3,),
        )
        rows = cmd_sweep_elements(cfg)
        assert len(rows) == 1
        assert rows[0][0] == 3

    def test_mean_files_written(self, tmp_path):
        cfg = oracle_1u_config(
            tmp_path,
            seeds=(0, 1),
            powers_dbm=(20.0, 30.0),
        )
        cmd_sweep_power(cfg)
        header, rows = read_csv(os.path.join(cfg.out_dir, "sweep_power_mean.csv"))
        assert header == ["power_dbm", "algorithm", "mean_sum_rate"]
        assert len(rows) == 2


def per_phase_single_user_gain(channels, user, resolution_bits):
    """Best single-user gain as one effective channel and norm per phase."""
    best = 0.0
    levels = 1 << resolution_bits
    for indices in itertools.product(range(levels), repeat=channels.k_elements):
        coeffs = np.exp(2j * np.pi * np.asarray(indices) / levels)
        h_eff = (np.conj(channels.user_channels[user]) * coeffs) @ channels.g_matrix
        best = max(best, float(np.linalg.norm(h_eff)))
    return best


class TestCompareOma:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_single_user_gain_equals_per_phase_loop(self, k, bits):
        rng = np.random.default_rng(100 * k + bits)
        channels = ChannelRealization(
            g_matrix=rng.standard_normal((k, 3)) + 1j * rng.standard_normal((k, 3)),
            user_channels=rng.standard_normal((2, k))
            + 1j * rng.standard_normal((2, k)),
            noise_variance=1.0,
        )
        for user in range(2):
            assert best_single_user_gain(
                channels, user, bits
            ) == per_phase_single_user_gain(channels, user, bits)

    @settings(max_examples=120, deadline=None)
    @given(
        shape=st.integers(1, 6).flatmap(
            lambda k: st.tuples(st.just(k), st.integers(1, 3 if k <= 4 else 2))
        ),
        seed=st.integers(0, 2**32 - 1),
        user=st.integers(0, 1),
    )
    def test_aligned_gain_never_beats_exhaustive(self, shape, seed, user):
        # The paper-scale TDMA path: coordinate ascent visits a subset of
        # the phases the exhaustive search scores.  Its final norm is
        # re-summed in another order, so it may exceed the exhaustive one by
        # rounding (1.7e-16 relative at most on a 120-pair probe).
        k, bits = shape
        rng = np.random.default_rng(seed)
        channels = ChannelRealization(
            g_matrix=rng.standard_normal((k, 3)) + 1j * rng.standard_normal((k, 3)),
            user_channels=rng.standard_normal((2, k))
            + 1j * rng.standard_normal((2, k)),
            noise_variance=1.0,
        )
        aligned = aligned_single_user_gain(channels, user, bits)
        assert aligned <= best_single_user_gain(channels, user, bits) * (1 + 1e-12)

    def test_single_user_schemes_coincide(self, tmp_path):
        cfg = oracle_1u_config(
            tmp_path,
            powers_dbm=(40.0,),
        )
        rows = cmd_compare_oma(cfg)
        assert len(rows) == 1
        assert rows[0][3] == pytest.approx(0.0, abs=1e-6)

    def test_columns_exactly_as_specified(self, tmp_path):
        cfg = oracle_1u_config(
            tmp_path,
            powers_dbm=(40.0,),
        )
        cmd_compare_oma(cfg)
        header, _ = read_csv(os.path.join(cfg.out_dir, "compare_oma.csv"))
        assert header == ["power_dbm", "noma_rate", "oma_rate", "gain_percent"]

    def test_noma_beats_oma_mean_two_users(self, tmp_path):
        cfg = ExperimentConfig(
            algorithm="oracle",
            out_dir=str(tmp_path / "out"),
            seeds=tuple(range(5)),
            n_users=2,
            m_clusters=1,
            k_elements=4,
            resolution_bits=2,
            alpha_step=0.1,
            powers_dbm=(40.0,),
        )
        rows = cmd_compare_oma(cfg)
        noma = np.mean([r[1] for r in rows])
        oma = np.mean([r[2] for r in rows])
        assert noma > oma
        for row in rows:
            assert row[1] >= row[2] - 1e-9  # per-seed dominance under oracle


class TestClusterAndPredict:
    def test_cluster_outputs(self, tmp_path):
        cfg = small_config(tmp_path)
        fit = cmd_cluster(cfg)
        header, rows = read_csv(os.path.join(cfg.out_dir, "assignment.csv"))
        assert header == ["user", "cluster"]
        assert len(rows) == cfg.n_users
        doc = json.loads(Path(cfg.out_dir, "gmm_params.json").read_text())
        assert len(doc["weights"]) == cfg.m_clusters
        assert all(c >= 1 for c in fit.occupancy())

    def test_predict_outputs(self, tmp_path):
        cfg = small_config(tmp_path, slots=3)
        rows = cmd_predict(cfg)
        assert len(rows) == cfg.n_users * cfg.slots
        header, _ = read_csv(os.path.join(cfg.out_dir, "predictions.csv"))
        assert header == ["user", "t", "x", "y"]


class TestCli:
    def test_pipeline_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**SMALL, "out_dir": str(tmp_path / "cli")}))
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        assert os.path.exists(tmp_path / "cli" / "pipeline.csv")

    def test_validation_error_exit_code(self, tmp_path):
        assert main(["pipeline", "--config", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize(
        "doc, field, command",
        [
            ([SMALL], "JSON object", "pipeline"),
            ({**SMALL, "alpha_step": 0.3}, "alpha_step", "pipeline"),
            ({**SMALL, "resolution_bits": 0}, "resolution_bits", "pipeline"),
            ({**SMALL, "m_clusters": 0}, "m_clusters", "pipeline"),
            ({**SMALL, "m_clusters": 5}, "m_clusters", "pipeline"),
            (
                {**SMALL, "interference_model": "bogus"},
                "interference_model",
                "pipeline",
            ),
            ({**SMALL, "alpha_domain": "decibel"}, "alpha_domain", "pipeline"),
            ({**SMALL, "qos_floor": -0.5}, "qos_floor", "pipeline"),
            ({**SMALL, "qos_floor": float("inf")}, "qos_floor", "pipeline"),
            (
                {**SMALL, "algorithm": "oracle", "k_elements": 14},
                "k_elements",
                "pipeline",
            ),
            (
                {**SMALL, "algorithm": "oracle", "element_counts": [2, 14]},
                "element_counts",
                "sweep-elements",
            ),
            ({**SMALL, "algorithm": "dqn", "episodes": 0}, "episodes", "sweep-power"),
            (
                {**SMALL, "algorithm": "tabular", "steps_per_episode": 0},
                "steps_per_episode",
                "pipeline",
            ),
            (
                {**SMALL, "algorithm": "random-phase", "random_samples": -3},
                "random_samples",
                "sweep-power",
            ),
        ],
        ids=[
            "top-level-array",
            "alpha-step",
            "resolution-bits",
            "no-clusters",
            "more-clusters-than-users",
            "interference-model",
            "alpha-domain",
            "negative-qos-floor",
            "infinite-qos-floor",
            "oracle-phases-k-elements",
            "oracle-phases-element-counts",
            "no-episodes",
            "no-steps-per-episode",
            "negative-random-samples",
        ],
    )
    def test_invalid_config_exits_before_any_output(
        self, tmp_path, capsys, doc, field, command
    ):
        out = tmp_path / "out"
        if isinstance(doc, dict):
            doc = {**doc, "out_dir": str(out)}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("steps, warns", [(19, True), (20, False)])
    def test_dqn_below_replay_warmup_warns(self, tmp_path, capsys, steps, warns):
        # 10 x 19 = 190 transitions never reach the 200-transition warmup;
        # 10 x 20 = 200 take exactly one train step.
        doc = dict(
            SMALL, algorithm="dqn", episodes=10, steps_per_episode=steps, powers_dbm=[60.0]
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**doc, "out_dir": str(tmp_path / "cli")}))
        assert main(["sweep-power", "--config", str(cfg_path)]) == 0
        err = capsys.readouterr().err
        warnings = [line for line in err.splitlines() if line.startswith("warning: ")]
        assert len(warnings) == int(warns)
        assert (f"= {10 * steps} transitions" in err) == warns
        # The warning leaves the CSV bytes as a direct harness call writes them.
        cmd_sweep_power(ExperimentConfig(**{**doc, "out_dir": str(tmp_path / "direct")}))
        cli_csv, direct_csv = (tmp_path / d / "sweep_power.csv" for d in ("cli", "direct"))
        assert cli_csv.read_bytes() == direct_csv.read_bytes()

    @pytest.mark.parametrize(
        "algorithm, command", [("tabular", "sweep-power"), ("dqn", "cluster")]
    )
    def test_no_warmup_warning_without_a_dqn_run(
        self, tmp_path, capsys, algorithm, command
    ):
        doc = dict(
            SMALL, algorithm=algorithm, episodes=10, steps_per_episode=19,
            powers_dbm=[60.0], out_dir=str(tmp_path / "cli"),
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg_path)]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_oversize_oracle_split_grid_fails_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("Algorithm 1 started")

        monkeypatch.setattr(harness, "run_algorithm1", spy)
        out = tmp_path / "out"
        cfg_path = tmp_path / "config.json"
        for step, error in (
            # 2 phase configs x C(109, 9) splits = 8,526,843,022,542 evaluations.
            (0.01, "2**1 oracle phase configs x 4263421511271 power splits"),
            # C(29, 9) = 10,015,005 splits: under the evaluation guard, not the split guard.
            (0.05, "alpha_step 0.05 gives 10015005 oracle power splits"),
        ):
            doc = {**ORACLE_SPLITS_OVERSIZE, "alpha_step": step, "out_dir": str(out)}
            cfg_path.write_text(json.dumps(doc))
            assert main(["pipeline", "--config", str(cfg_path)]) == 1
            assert error in capsys.readouterr().err
            assert calls == [] and not out.exists()

    def test_infeasible_oracle_exit_code(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    **ORACLE_1U,
                    "out_dir": str(tmp_path / "orc"),
                    "qos_floor": 1e18,
                    "power_dbm": 0.0,
                }
            )
        )
        assert main(["oracle", "--config", str(cfg_path)]) == 2

    def test_infeasible_pipeline_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        out = tmp_path / "pipe"
        cfg_path.write_text(
            json.dumps({**SMALL, "out_dir": str(out), "qos_floor": 1e18})
        )
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().out == "pipeline: 2 slot rows, 0 feasible\n"
        assert os.path.exists(out / "pipeline.csv")

    def test_seed_and_algorithm_flags_override(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**SMALL, "out_dir": str(tmp_path / "o1")}))
        rc = main(
            [
                "cluster",
                "--config",
                str(cfg_path),
                "--seed",
                "42",
                "--out",
                str(tmp_path / "o2"),
            ]
        )
        assert rc == 0
        assert os.path.exists(tmp_path / "o2" / "assignment.csv")
