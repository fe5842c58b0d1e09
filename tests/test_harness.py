import argparse
import dataclasses
import itertools
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma_lab import harness, noma, oracle
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
from scalar_reference import reference_point

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


# The benchmark's oma-oracle shape on one seed: three exhaustive searches.
OMA_ORACLE = dict(
    algorithm="oracle",
    seeds=(3,),
    n_users=2,
    m_clusters=1,
    k_elements=4,
    resolution_bits=2,
    alpha_step=0.1,
    powers_dbm=(20.0, 40.0, 60.0),
)


def run_cli(*argv, **env):
    """``irsnoma *argv`` in a fresh interpreter on this package's source tree."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    return subprocess.run(
        [sys.executable, "-m", "irsnoma_lab.cli", *argv],
        env={**os.environ, "PYTHONPATH": src, **env},
        capture_output=True,
        text=True,
        timeout=120,
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

    @pytest.mark.parametrize("name", ["powers_dbm", "element_counts"])
    def test_sweep_lists_must_not_be_empty(self, name):
        with pytest.raises(ValueError, match=f"{name} must list at least one value"):
            ExperimentConfig(**{name: ()})

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
        # Every cluster size vector of n users in m non-empty clusters: the
        # gaps between m - 1 cut points chosen from 1 .. n - 1.
        for n in range(1, 9):
            for m in range(1, n + 1):
                cuts = itertools.combinations(range(1, n), m - 1)
                sizes = [tuple(b - a for a, b in zip((0, *c), (*c, n))) for c in cuts]
                for units in (1, 2, 5, 10):
                    fewest = min(
                        math.prod(composition_count(units, s) for s in c) for c in sizes
                    )
                    assert fewest == composition_count(units, n - m + 1)

    @pytest.mark.parametrize("name", [
        "seeds", "element_counts", "n_users", "m_clusters", "k_elements",
        "resolution_bits", "slots", "episodes", "steps_per_episode", "random_samples",
        "n0", "n_max", "window_len", "predictor_train_steps",
    ])
    def test_integer_fields_take_only_integers(self, name):
        default = getattr(ExperimentConfig(), name)
        listed = isinstance(default, tuple)
        for bad in (2.0, True, "2"):
            with pytest.raises(ValueError, match=f"^{name}: {bad!r} is not an integer$"):
                ExperimentConfig(**{name: (bad,) if listed else bad})
        # numpy integers are integers.
        value = tuple(map(np.int64, default)) if listed else np.int64(default)
        assert getattr(ExperimentConfig(**{name: value}), name) == default

    @pytest.mark.parametrize("name", [
        "power_dbm", "alpha_step", "qos_floor", "powers_dbm", "clustering_epsilon",
        "speed", "heading_noise_std",
    ])
    def test_float_fields_take_only_numbers(self, name):
        default = getattr(ExperimentConfig(), name)
        listed = isinstance(default, tuple)
        for bad in (True, "2"):
            with pytest.raises(ValueError, match=f"^{name}: {bad!r} is not a number$"):
                ExperimentConfig(**{name: (bad,) if listed else bad})
        # numpy reals are numbers.
        value = tuple(map(np.float64, default)) if listed else np.float64(default)
        assert getattr(ExperimentConfig(**{name: value}), name) == default

    def test_float_fields_take_ints(self):
        cfg = ExperimentConfig(power_dbm=60, qos_floor=np.int64(0), powers_dbm=(20, np.int64(30)))
        assert (cfg.power_dbm, cfg.qos_floor, cfg.powers_dbm) == (60, 0, (20.0, 30.0))

    def test_save_curves_takes_only_a_bool(self):
        assert ExperimentConfig(save_curves=False).save_curves is False
        for bad in ("no", 0, None, np.True_):
            with pytest.raises(ValueError, match=f"^save_curves: {bad!r} is not a bool$"):
                ExperimentConfig(save_curves=bad)

    def test_resolution_bits_at_most_16(self):
        assert ExperimentConfig(resolution_bits=16).resolution_bits == 16
        with pytest.raises(ValueError, match=r"resolution_bits 17 must be in \[1, 16\]"):
            ExperimentConfig(resolution_bits=17)

    @pytest.mark.parametrize("step", [1e-19, 1e-30, 5e-324])
    def test_alpha_step_above_the_int64_unit_count_rejected(self, step):
        # 1e-18 gives 10**18 units, which multinomial still draws.
        assert ExperimentConfig(alpha_step=1e-18).alpha_step == 1e-18
        with pytest.raises(ValueError, match=f"^alpha_step {step!r} gives more power units"):
            ExperimentConfig(alpha_step=step)

    def test_every_field_checks_its_kind(self):
        # A field whose annotation the rule loop does not check would take these.
        for f in dataclasses.fields(ExperimentConfig):
            for bad in (object(), [object()]):
                with pytest.raises(ValueError, match=f"^{f.name}: "):
                    ExperimentConfig(**{f.name: bad})

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
    def test_decoding_order_matches_reference(self, tmp_path, algorithm):
        budget = dict(episodes=12, steps_per_episode=20) if algorithm == "dqn" else {}
        cfg = small_config(tmp_path, algorithm=algorithm, n_users=6, **budget)
        setup = prepare(cfg, 1)
        channels, fit = setup.draw(cfg.k_elements)
        scenario = setup.scenario(channels, fit.assignment)
        (best,) = optimize_scenario([(scenario, setup.registry.rng("agent/test"))], cfg)
        assert best.best_phase is not None
        assert max(len(order) for order in best.best_orders) > 1
        if algorithm == "dqn":
            assert any(np.isfinite(point.loss) for point in best.curve)
        ref = reference_point(
            scenario, best.best_phase.indices, cfg.resolution_bits, best.best_splits
        )
        assert best.best_orders == ref.plan.decoding_order


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


class TestOraclePassPerDraw:
    @pytest.mark.parametrize("seeds", [(3,), (3, 4)], ids=["one-seed", "two-seeds"])
    @pytest.mark.parametrize("n_powers", [1, 3, 8])
    @pytest.mark.parametrize("command", [cmd_compare_oma, cmd_sweep_power])
    def test_one_grid_one_stack_one_precode_per_chunk(
        self, tmp_path, monkeypatch, command, n_powers, seeds
    ):
        # 16 phases x 3 splits in chunks of 6 points: 8 chunks of 2 phases,
        # one pass per seed's channel draw.
        monkeypatch.setattr(oracle, "CHUNK_POINTS", 6)
        calls = {"alpha_grid": 0, "ScenarioStack": 0, "zf_inverse": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        class CountedStack(noma.ScenarioStack):
            def __init__(self, scenarios):
                calls["ScenarioStack"] += 1
                super().__init__(scenarios)

        monkeypatch.setattr(oracle, "alpha_grid", counted("alpha_grid", oracle.alpha_grid))
        monkeypatch.setattr(oracle, "ScenarioStack", CountedStack)
        monkeypatch.setattr(noma, "zf_inverse", counted("zf_inverse", noma.zf_inverse))
        cfg = ExperimentConfig(
            algorithm="oracle",
            out_dir=str(tmp_path / "out"),
            seeds=seeds,
            n_users=2,
            m_clusters=1,
            k_elements=2,
            resolution_bits=2,
            alpha_step=0.5,
            powers_dbm=tuple(20.0 + 10.0 * i for i in range(n_powers)),
        )
        rows = command(cfg)
        n_seeds = len(seeds)
        assert len(rows) == n_seeds * n_powers
        assert calls == {
            "alpha_grid": n_seeds, "ScenarioStack": n_seeds, "zf_inverse": 8 * n_seeds
        }


class TestAgentStreams:
    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    @pytest.mark.parametrize("command", [cmd_compare_oma, cmd_sweep_power])
    def test_one_agent_stream_per_learner_run_and_none_for_the_oracle(
        self, tmp_path, monkeypatch, command, algorithm
    ):
        derived = []
        rng = SeedRegistry.rng

        def spy(registry, name):
            derived.append((registry.master, name))
            return rng(registry, name)

        monkeypatch.setattr(SeedRegistry, "rng", spy)
        seeds, powers = (3, 4), (20.0, 40.0)
        command(ExperimentConfig(
            algorithm=algorithm,
            out_dir=str(tmp_path / "out"),
            seeds=seeds,
            n_users=2,
            m_clusters=1,
            k_elements=2,
            resolution_bits=1,
            alpha_step=0.5,
            powers_dbm=powers,
            episodes=1,
            steps_per_episode=2,
            random_samples=2,
        ))
        agent = [(seed, name) for seed, name in derived if name.startswith("agent/")]
        learner = [(seed, f"agent/power{power}") for seed in seeds for power in powers]
        assert agent == ([] if algorithm == "oracle" else learner)
        # The scenario, channel and cluster streams do not depend on the optimizer.
        assert [entry for entry in derived if entry not in agent] == [
            (seed, name) for seed in seeds for name in ("scenario", "channel", "cluster")
        ]


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

    @pytest.mark.parametrize("region, message", [
        ({"bounds": [-50, -50, 50, 50],
          "obstacle": [[-15, -50], [15, -50], [15, float("nan")], [-15, -35]]},
         "obstacle vertex 2 [15.0, nan] is not finite"),
        ({"bounds": [-50, float("-inf"), 50, 50]}, "region bound ymin -inf is not finite"),
    ])
    def test_non_finite_scenario_region_exits_1(self, tmp_path, capsys, region, message):
        scenario = {
            "bs_position": [0.0, -60.0, 10.0],
            "users": [[10.0, 5.0], [20.0, -8.0]],
            "region": region,
        }
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {**SMALL, "scenario_path": str(scenario_path), "out_dir": str(out)}
        ))
        assert main(["pipeline", "--config", str(cfg_path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_file_with_fewer_users_than_clusters_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("Algorithm 1 started")

        monkeypatch.setattr(harness, "run_algorithm1", unreachable)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps({
            "bs_position": [0.0, -60.0, 10.0],
            "users": [[10.0, 5.0], [20.0, -8.0]],
        }))
        out = tmp_path / "out"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            **SMALL, "m_clusters": 3, "scenario_path": str(scenario_path), "out_dir": str(out)
        }))
        assert main(["pipeline", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: m_clusters 3 exceeds the 2 users of {scenario_path}" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message, command", [
        ("path_loss_exponent_g", float("nan"),
         "path_loss_exponent_g must be finite and > 0, got nan", "sweep-power"),
        ("path_loss_exponent_h", float("inf"),
         "path_loss_exponent_h must be finite and > 0, got inf", "cluster"),
        ("reference_loss_db", float("nan"),
         "reference_loss_db must be finite, got nan", "cluster"),
        ("reference_loss_db", float("-inf"),
         "reference_loss_db must be finite, got -inf", "pipeline"),
        ("bs_position", [0.0, float("nan"), 10.0],
         "bs_position [0.0, nan, 10.0] is not finite", "sweep-power"),
        ("irs_position", [0.0, 0.0, float("inf")],
         "irs_position [0.0, 0.0, inf] is not finite", "pipeline"),
        ("users", [[10.0, 5.0, 0.0], [20.0, -8.0, float("-inf")]],
         "user 1 [20.0, -8.0, -inf] is not finite", "cluster"),
        ("noise_dbm", float("nan"), "noise_dbm: nan is not a finite number", "cluster"),
        ("noise_dbm", True, "noise_dbm: True is not a finite number", "sweep-power"),
        ("k_factor_db", "3", "k_factor_db: '3' is not a finite number", "pipeline"),
        ("k_factor_db", float("inf"), "k_factor_db: inf is not a finite number", "cluster"),
    ])
    def test_non_finite_scenario_field_exits_1(
        self, tmp_path, capsys, monkeypatch, key, value, message, command
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("sample_channels", "cluster_users", "run_algorithm1"):
            monkeypatch.setattr(harness, name, unreachable)
        scenario = {"bs_position": [0.0, -60.0, 10.0], "users": [[10.0, 5.0], [20.0, -8.0]]}
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps({**scenario, key: value}))
        out = tmp_path / "out"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {**SMALL, "scenario_path": str(scenario_path), "out_dir": str(out)}
        ))
        assert main([command, "--config", str(cfg_path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_file_mixing_2d_and_3d_users_runs(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps({
            "bs_position": [0.0, -60.0, 10.0],
            "users": [[10.0, 5.0], [20.0, -8.0, 1.5], [35.0, 30.0], [-25.0, 12.0, 2.0]],
        }))
        out = tmp_path / "out"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {**SMALL, "scenario_path": str(scenario_path), "out_dir": str(out)}
        ))
        assert main(["cluster", "--config", str(cfg_path)]) == 0
        _, rows = read_csv(out / "assignment.csv")
        assert len(rows) == 4

    @pytest.mark.parametrize("command, algorithm, seed", [
        ("sweep-power", "random-phase", 7),
        ("cluster", "random-phase", 7),
        ("pipeline", "dqn", 3),
    ])
    def test_generated_scenario_file_reproduces_the_synthesized_run(
        self, tmp_path, command, algorithm, seed
    ):
        # ``generate`` writes the seed's scenario; a run that loads it must
        # write what the run that synthesizes it writes, byte for byte.
        doc = {**SMALL, "algorithm": algorithm, "seeds": [seed]}
        synthesized = tmp_path / "synthesized.json"
        synthesized.write_text(json.dumps(doc))
        assert main(["generate", "--config", str(synthesized), "--out", str(tmp_path / "gen")]) == 0
        loaded = tmp_path / "loaded.json"
        scenario_path = str(tmp_path / "gen" / "scenario.json")
        loaded.write_text(json.dumps({**doc, "scenario_path": scenario_path}))
        outputs = []
        for cfg_path in (synthesized, loaded):
            out = tmp_path / cfg_path.stem
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            outputs.append({
                str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()
            })
        assert outputs[0] and outputs[0] == outputs[1]

    def test_generate_without_a_config_uses_the_defaults(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "cli")]) == 0
        paths = cmd_generate(ExperimentConfig(out_dir=str(tmp_path / "lib")))
        for path in paths.values():
            name = Path(path).name
            assert (tmp_path / "cli" / name).read_bytes() == Path(path).read_bytes()

    @pytest.mark.parametrize(
        "doc, field, command",
        [
            ([SMALL], "JSON object", "pipeline"),
            ({**SMALL, "alpha_step": 0.3}, "alpha_step", "pipeline"),
            ({**SMALL, "resolution_bits": 0}, "resolution_bits", "pipeline"),
            ({**SMALL, "resolution_bits": 17}, "resolution_bits", "sweep-power"),
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
            ({**SMALL, "powers_dbm": []}, "powers_dbm", "sweep-power"),
            ({**SMALL, "powers_dbm": []}, "powers_dbm", "compare-oma"),
            ({**SMALL, "element_counts": []}, "element_counts", "sweep-elements"),
            ({**SMALL, "algorithm": "dqn", "alpha_step": 1e-19}, "alpha_step", "sweep-power"),
        ],
        ids=[
            "top-level-array",
            "alpha-step",
            "resolution-bits",
            "resolution-bits-above-16",
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
            "no-powers-sweep-power",
            "no-powers-compare-oma",
            "no-element-counts",
            "alpha-step-above-int64-units",
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

    @pytest.mark.parametrize("field, value, command", [
        ("seeds", [1.5], "pipeline"),
        ("element_counts", [4.5], "sweep-elements"),
        ("n_users", 4.0, "pipeline"),
        ("m_clusters", True, "pipeline"),
        ("k_elements", "4", "pipeline"),
        ("resolution_bits", 2.0, "sweep-power"),
        ("slots", 2.0, "pipeline"),
        ("episodes", 6.0, "sweep-power"),
        ("steps_per_episode", 6.0, "sweep-power"),
        ("random_samples", 20.0, "sweep-power"),
        ("n0", 12.0, "pipeline"),
        ("n_max", 24.0, "pipeline"),
        ("window_len", 8.0, "pipeline"),
        ("predictor_train_steps", 25.0, "pipeline"),
        # Float fields take no bool or string, and save_curves only a bool.
        ("power_dbm", "60", "sweep-elements"),
        ("alpha_step", True, "sweep-power"),
        ("qos_floor", True, "sweep-power"),
        ("powers_dbm", ["60"], "sweep-power"),
        ("clustering_epsilon", True, "pipeline"),
        ("speed", True, "pipeline"),
        ("heading_noise_std", "0.05", "pipeline"),
        ("save_curves", "no", "sweep-power"),
        # String fields take only a string, and list fields only a list.
        ("scenario_path", 3, "pipeline"),
        ("scenario_path", True, "pipeline"),
        ("algorithm", 1, "sweep-power"),
        ("seeds", 5, "pipeline"),
        ("seeds", "12", "pipeline"),
    ])
    def test_non_integer_field_exits_before_any_output(
        self, tmp_path, capsys, field, value, command
    ):
        out = tmp_path / "out"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**SMALL, field: value, "out_dir": str(out)}))
        assert main([command, "--config", str(cfg_path)]) == 1
        assert f"error: {field}: " in capsys.readouterr().err
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

    @pytest.mark.parametrize("field, value", [
        ("seeds", [0, -1]),
        ("clustering_epsilon", 0.0),
        ("clustering_epsilon", -1e-15),
        ("clustering_epsilon", float("nan")),
        ("clustering_epsilon", float("inf")),
        ("window_len", 0),
        ("n0", 9),
        ("n_max", 15),
        ("predictor_train_steps", -1),
        ("speed", float("nan")),
        ("speed", float("inf")),
        ("speed", -1.5),
        ("heading_noise_std", float("nan")),
        ("heading_noise_std", float("inf")),
        ("heading_noise_std", -0.05),
    ])
    def test_bad_pipeline_value_fails_before_training(
        self, tmp_path, capsys, monkeypatch, field, value
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("Algorithm 1 started")

        monkeypatch.setattr(harness, "run_algorithm1", spy)
        out = tmp_path / "out"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({field: value, "out_dir": str(out)}))
        assert main(["pipeline", "--config", str(cfg_path)]) == 1
        assert f"error: {field} " in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_calls_share_one_parser(self, tmp_path, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        for _ in range(2):
            assert main(["pipeline", "--config", str(tmp_path / "missing.json")]) == 1
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    @pytest.mark.parametrize("failure", ["argparse", "validation"])
    def test_call_after_a_failed_one_writes_what_a_fresh_process_writes(
        self, tmp_path, failure
    ):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(OMA_ORACLE))
        if failure == "argparse":
            with pytest.raises(SystemExit) as exit_info:
                main(["compare-oma", "--seed", "not-a-seed"])
            assert exit_info.value.code == 2
        else:
            bad_path = tmp_path / "bad.json"
            bad_path.write_text(json.dumps({**OMA_ORACLE, "speed": float("nan")}))
            assert main(["compare-oma", "--config", str(bad_path)]) == 1
        assert main(["compare-oma", "--config", str(cfg_path), "--out", str(tmp_path / "in")]) == 0
        fresh = run_cli("compare-oma", "--config", str(cfg_path), "--out", str(tmp_path / "fresh"))
        assert fresh.returncode == 0, fresh.stderr
        names = sorted(os.listdir(tmp_path / "in"))
        assert names and names == sorted(os.listdir(tmp_path / "fresh"))
        for name in names:
            assert (tmp_path / "in" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    @pytest.mark.parametrize("argv", [["--help"], ["compare-oma", "--help"]])
    def test_help_text_equals_a_fresh_process(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            texts.append(capsys.readouterr().out)
        fresh = run_cli(*argv, COLUMNS="80")
        assert fresh.returncode == 0, fresh.stderr
        assert texts == [fresh.stdout] * 2

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
