import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma_lab.channel import (
    TWO_PI,
    ChannelRealization,
    DegenerateGeometryError,
    PhaseConfig,
    RicianConfig,
    ScenarioGeometry,
    ServiceRegion,
    dbm_to_watts,
    default_region,
    effective_channels_batch,
    load_scenario,
    phase_coefficients,
    reflection_coefficients,
    sample_channels,
    scenario_to_json,
)
from scalar_reference import region_contains


def small_geometry(n_users=2):
    users = [[10.0, 5.0], [20.0, -8.0], [35.0, 30.0], [-25.0, 12.0]][:n_users]
    return ScenarioGeometry(
        bs_position=[0.0, -60.0, 10.0],
        user_positions=users,
        irs_position=[0.0, 0.0, 0.0],
    )


def effective_channel(h, phase, g):
    """One user's effective channel row, through the batched function."""
    real = ChannelRealization(
        g_matrix=g, user_channels=np.asarray(h)[None], noise_variance=1.0
    )
    return effective_channels_batch(real, [phase.indices], phase.resolution_bits)[0, 0]


class TestDbmToWatts:
    def test_reference_points(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(0.001)
        assert dbm_to_watts(20.0) == pytest.approx(0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dbm_to_watts(float("nan"))


class TestReflectionCoefficients:
    def test_zero_phase_everywhere(self):
        coeffs = reflection_coefficients(PhaseConfig((0, 0, 0), resolution_bits=3))
        assert np.allclose(coeffs, 1.0 + 0.0j)

    def test_one_bit_half_turn(self):
        coeffs = reflection_coefficients(PhaseConfig((1,), resolution_bits=1))
        assert coeffs[0] == pytest.approx(-1.0 + 0.0j)

    def test_quarter_turn_at_five_bits(self):
        coeffs = reflection_coefficients(PhaseConfig((8,), resolution_bits=5))
        assert coeffs[0] == pytest.approx(1.0j)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_table_is_the_exp_of_each_phase(self, bits):
        levels = 1 << bits
        table = phase_coefficients(bits)
        theta = TWO_PI * np.arange(levels, dtype=float) / levels
        assert table.tobytes() == np.exp(1j * theta).tobytes()
        # Entry by entry, and on the index rows effective channels index it with.
        for n in range(levels):
            assert table[n].tobytes() == np.exp(1j * theta[n]).tobytes()
        idx = np.random.default_rng(bits).integers(0, levels, size=(64, 9))
        assert table[idx].tobytes() == np.exp(1j * (TWO_PI * idx.astype(float) / levels)).tobytes()
        phase = PhaseConfig(tuple(idx[0]), bits)
        assert reflection_coefficients(phase).tobytes() == table[idx[0]].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PhaseConfig((4,), resolution_bits=2)
        with pytest.raises(ValueError):
            PhaseConfig((-1,), resolution_bits=2)

    @given(
        bits=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_unit_modulus(self, bits, data):
        levels = 2**bits
        idx = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=levels - 1), min_size=1, max_size=16
            )
        )
        coeffs = reflection_coefficients(PhaseConfig(tuple(idx), bits))
        assert np.max(np.abs(np.abs(coeffs) - 1.0)) < 1e-12


class TestEffectiveChannel:
    def test_identity_case(self):
        out = effective_channel(
            np.array([1.0 + 0j]), PhaseConfig((0,), 1), np.array([[1.0 + 0j]])
        )
        assert out.shape == (1,)
        assert out[0] == pytest.approx(1.0 + 0j)

    def test_common_index_shift_preserves_magnitudes(self):
        rng = np.random.default_rng(3)
        k, m = 6, 3
        h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        g = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        phase = PhaseConfig(tuple(rng.integers(0, 8, size=k)), 3)
        base = effective_channel(h, phase, g)
        for delta in (1, 3, 7):
            shifted = effective_channel(h, phase.shifted(delta), g)
            assert np.max(np.abs(np.abs(shifted) - np.abs(base))) < 1e-10

    def test_matches_dense_triple_product(self):
        # Independent oracle: explicit h^H diag(coeffs) G and coeffs-row x
        # diag(conj(h)) G factorizations via dense matrix products.
        rng = np.random.default_rng(11)
        k, m = 4, 2
        h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        g = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        phase = PhaseConfig(tuple(rng.integers(0, 32, size=k)), 5)
        coeffs = reflection_coefficients(phase)

        direct = np.conj(h)[None, :] @ np.diag(coeffs) @ g
        factored = coeffs[None, :] @ (np.diag(np.conj(h)) @ g)
        out = effective_channel(h, phase, g)
        assert np.max(np.abs(out - direct.ravel())) < 1e-10
        assert np.max(np.abs(out - factored.ravel())) < 1e-10

    def test_factorization_equality_many_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            m = int(rng.integers(1, 5))
            h = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            g = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
            phase = PhaseConfig(tuple(rng.integers(0, 4, size=k)), 2)
            coeffs = reflection_coefficients(phase)
            a = effective_channel(h, phase, g)
            b = coeffs @ (np.diag(np.conj(h)) @ g)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            effective_channel(
                np.ones(3, dtype=complex), PhaseConfig((0, 0), 1), np.ones((2, 2))
            )
        with pytest.raises(ValueError):
            effective_channel(
                np.ones(2, dtype=complex), PhaseConfig((0, 0, 0), 1), np.ones((2, 2))
            )


class TestSampleChannels:
    def test_high_k_factor_limit_is_line_of_sight(self):
        geometry = small_geometry()
        cfg = RicianConfig(k_factor=1e15)
        real = sample_channels(geometry, cfg, 0, k_elements=4, n_antennas=2)
        ref = 10.0 ** (-cfg.reference_loss_db / 10.0)
        d_g = np.linalg.norm(geometry.bs_position - geometry.irs_position)
        expected_g = np.sqrt(ref * d_g ** (-cfg.path_loss_exponent_g))
        assert np.max(np.abs(real.g_matrix - expected_g)) < 1e-6 * expected_g
        assert np.std(np.abs(real.g_matrix)) < 1e-6 * expected_g

    def test_seeded_determinism(self):
        geometry = small_geometry()
        cfg = RicianConfig()
        a = sample_channels(geometry, cfg, 1234, k_elements=8, n_antennas=3)
        b = sample_channels(geometry, cfg, 1234, k_elements=8, n_antennas=3)
        assert np.array_equal(a.g_matrix, b.g_matrix)
        assert np.array_equal(a.user_channels, b.user_channels)
        c = sample_channels(geometry, cfg, 1235, k_elements=8, n_antennas=3)
        assert not np.array_equal(a.g_matrix, c.g_matrix)

    def test_rayleigh_second_moment(self):
        # k_factor = 0: one entry is CN(0, pl), so |entry|^2 is exponential
        # with mean pl and std pl; the mean of n draws has std pl/sqrt(n).
        geometry = small_geometry(1)
        cfg = RicianConfig(k_factor=0.0)
        n = 100_000
        rng = np.random.default_rng(7)
        samples = np.empty(n)
        # Resampling whole realizations would be slow; draw the entry the
        # same way the generator does, via many small realizations at once.
        real = sample_channels(
            geometry, cfg, rng, k_elements=n, n_antennas=1
        )
        samples = np.abs(real.g_matrix[:, 0]) ** 2
        d_g = np.linalg.norm(geometry.bs_position - geometry.irs_position)
        pl = 10.0 ** (-cfg.reference_loss_db / 10.0) * d_g ** (
            -cfg.path_loss_exponent_g
        )
        assert abs(samples.mean() - pl) < 3.0 * pl / np.sqrt(n)

    def test_path_loss_monotone_in_distance(self):
        cfg = RicianConfig()
        rng = np.random.default_rng(17)
        near = ScenarioGeometry(
            bs_position=[0, -60, 10], user_positions=[[10.0, 0.0]]
        )
        far = ScenarioGeometry(
            bs_position=[0, -60, 10], user_positions=[[20.0, 0.0]]
        )
        n = 10_000
        power_near = np.abs(
            sample_channels(near, cfg, rng, k_elements=n, n_antennas=1).user_channels
        ).ravel() ** 2
        power_far = np.abs(
            sample_channels(far, cfg, rng, k_elements=n, n_antennas=1).user_channels
        ).ravel() ** 2
        assert power_far.mean() < power_near.mean()

    def test_degenerate_geometry(self):
        geometry = ScenarioGeometry(
            bs_position=[0.0, 0.0, 0.0], user_positions=[[10.0, 0.0]]
        )
        with pytest.raises(DegenerateGeometryError):
            sample_channels(geometry, RicianConfig(), 0, k_elements=2, n_antennas=1)
        at_origin = ScenarioGeometry(
            bs_position=[0.0, -60.0, 10.0], user_positions=[[0.0, 0.0]]
        )
        with pytest.raises(DegenerateGeometryError):
            sample_channels(at_origin, RicianConfig(), 0, k_elements=2, n_antennas=1)


class TestGeometryAndRegion:
    def test_user_outside_region_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGeometry(
                bs_position=[0, -60, 10], user_positions=[[500.0, 0.0]]
            )

    def test_obstacle_excluded(self):
        region = default_region()
        assert not region.contains([0.0, -40.0])  # inside the obstacle
        assert region.contains([0.0, 0.0])
        with pytest.raises(ValueError):
            ScenarioGeometry(
                bs_position=[0, -60, 10],
                user_positions=[[0.0, -40.0]],
                region=region,
            )

    def test_contains_many_matches_scalar(self):
        obstacles = {
            "default": default_region().obstacle,
            # Concave, with flat and vertical edges and a reflex corner.
            "l_shape": np.array(
                [[-20.0, -20.0], [20.0, -20.0], [20.0, -5.0], [0.0, -5.0],
                 [0.0, 20.0], [-20.0, 20.0]]
            ),
            "triangle": np.array([[-30.0, -10.0], [25.0, -25.0], [5.0, 35.0]]),
            # Every edge flat: no edge can cross a ray, so no point is inside.
            "all_flat": np.array([[-10.0, 5.0], [10.0, 5.0], [30.0, 5.0]]),
        }
        rng = np.random.default_rng(5)
        for name, poly in obstacles.items():
            region = ServiceRegion(obstacle=poly)
            # Every vertex, points on every edge (the flat edges too), and
            # points on each edge's extension, flat edges' included, where
            # the ray test's boundary rules decide; lattice points land on
            # vertex rows and columns.
            ends = np.roll(poly, -1, axis=0)
            t = np.concatenate([np.linspace(0.0, 1.0, 11), [-1.0, -0.5, 1.5, 2.0]])
            edge_pts = (poly + t[:, None, None] * (ends - poly)).reshape(-1, 2)
            lattice = rng.integers(-40, 41, size=(300, 2)).astype(float)
            pts = np.concatenate([rng.uniform(-60, 60, size=(200, 2)), poly, edge_pts, lattice])
            many = region.contains_many(pts)
            scalar = np.array([region_contains(region, p) for p in pts])
            assert np.array_equal(many, scalar), name
            assert np.array_equal([region.contains(p) for p in pts], scalar), name
        # The all-flat obstacle excludes nothing, its own vertices included.
        flat = ServiceRegion(obstacle=obstacles["all_flat"])
        assert np.array_equal(flat.contains_many(pts), np.abs(pts).max(axis=1) <= 50.0)

    @pytest.mark.parametrize("index, value", [(0, np.nan), (1, -np.inf), (2, np.inf), (3, np.nan)])
    def test_non_finite_bound_rejected(self, index, value):
        bounds = [-50.0, -50.0, 50.0, 50.0]
        bounds[index] = value
        name = ("xmin", "ymin", "xmax", "ymax")[index]
        with pytest.raises(ValueError, match=f"region bound {name} .* is not finite"):
            ServiceRegion(bounds=tuple(bounds))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_obstacle_vertex_rejected(self, value):
        poly = default_region().obstacle.copy()
        poly[2, 1] = value
        with pytest.raises(ValueError, match="obstacle vertex 2 .* is not finite"):
            ServiceRegion(obstacle=poly)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("coordinate", [0, 2])
    @pytest.mark.parametrize("name", ["bs_position", "irs_position", "user 1"])
    def test_non_finite_position_rejected(self, name, coordinate, value):
        positions = {
            "bs_position": [0.0, -60.0, 10.0],
            "irs_position": [0.0, 0.0, 0.0],
            "user 1": [20.0, -8.0, 0.0],
        }
        positions[name][coordinate] = value
        with pytest.raises(ValueError, match=f"^{name} .* is not finite$"):
            ScenarioGeometry(
                bs_position=positions["bs_position"],
                user_positions=[[10.0, 5.0, 0.0], positions["user 1"]],
                irs_position=positions["irs_position"],
            )

    def test_irs_defaults_to_origin(self):
        geom = ScenarioGeometry(bs_position=[0, -60, 10], user_positions=[[5.0, 5.0]])
        assert np.array_equal(geom.irs_position, np.zeros(3))


class TestRicianConfig:
    @pytest.mark.parametrize("name, value", [
        ("path_loss_exponent_g", np.nan),
        ("path_loss_exponent_g", 0.0),
        ("path_loss_exponent_h", np.inf),
        ("path_loss_exponent_h", -1.0),
    ])
    def test_exponent_must_be_finite_and_positive(self, name, value):
        message = f"{name} must be finite and > 0, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RicianConfig(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_reference_loss_must_be_finite(self, value):
        message = f"reference_loss_db must be finite, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RicianConfig(reference_loss_db=value)


class TestRealization:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ChannelRealization(
                g_matrix=np.ones((3, 2), dtype=complex),
                user_channels=np.ones((2, 4), dtype=complex),
                noise_variance=1.0,
            )
        with pytest.raises(ValueError):
            ChannelRealization(
                g_matrix=np.ones((3, 2), dtype=complex),
                user_channels=np.ones((2, 3), dtype=complex),
                noise_variance=0.0,
            )

    def test_slice_elements_is_prefix(self):
        real = sample_channels(
            small_geometry(), RicianConfig(), 3, k_elements=6, n_antennas=2
        )
        sliced = real.slice_elements(4)
        assert sliced.k_elements == 4
        assert np.array_equal(sliced.g_matrix, real.g_matrix[:4])
        assert np.array_equal(sliced.user_channels, real.user_channels[:, :4])

    def test_effective_channels_all_matches_single(self):
        real = sample_channels(
            small_geometry(3), RicianConfig(), 9, k_elements=5, n_antennas=3
        )
        phase = PhaseConfig((0, 1, 2, 3, 0), 2)
        stacked = effective_channels_batch(real, [phase.indices], 2)[0]
        coeffs = reflection_coefficients(phase)
        for u in range(real.n_users):
            single = (np.conj(real.user_channels[u]) * coeffs) @ real.g_matrix
            assert np.max(np.abs(stacked[u] - single)) < 1e-12


class TestScenarioJson:
    def test_roundtrip(self, tmp_path):
        geometry = small_geometry(3)
        cfg = RicianConfig(noise_power_dbm=-75.0)
        path = tmp_path / "scenario.json"
        path.write_text(scenario_to_json(geometry, cfg, seed=42), encoding="utf-8")
        loaded_geom, loaded_cfg, seed = load_scenario(path)
        assert seed == 42
        assert np.allclose(loaded_geom.bs_position, geometry.bs_position)
        assert np.allclose(loaded_geom.user_positions, geometry.user_positions)
        assert loaded_cfg.noise_power_dbm == cfg.noise_power_dbm
        assert loaded_cfg.k_factor == pytest.approx(cfg.k_factor)

    def test_expected_keys_present(self, tmp_path):
        doc = json.loads(scenario_to_json(small_geometry(), RicianConfig(), 7))
        for key in (
            "bs_position",
            "irs_position",
            "users",
            "region",
            "k_factor_db",
            "path_loss_exponent_g",
            "path_loss_exponent_h",
            "noise_dbm",
            "seed",
        ):
            assert key in doc

    def test_users_may_mix_2d_and_3d_rows(self, tmp_path):
        doc = json.loads(scenario_to_json(small_geometry(3), RicianConfig(), 7))
        doc["users"] = [[10.0, 5.0], [20.0, -8.0, 1.5], [35.0, 30.0]]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        geometry, _, _ = load_scenario(path)
        assert geometry.user_positions.tolist() == [
            [10.0, 5.0, 0.0], [20.0, -8.0, 1.5], [35.0, 30.0, 0.0]
        ]

    def test_mixed_rows_still_name_a_bad_user(self):
        with pytest.raises(ValueError, match="^user 1 must be a 2- or 3-vector"):
            ScenarioGeometry(bs_position=[0, -60, 10], user_positions=[[5.0, 5.0], [1.0]])

    # A null k_factor_db keeps the default factor and -Infinity is a factor of 0,
    # as before; a null or -Infinity noise_dbm is rejected.
    @pytest.mark.parametrize("key, value", [
        (key, value)
        for key in ("noise_dbm", "k_factor_db")
        for value in (True, False, "3", float("nan"), float("inf"), [3.0])
    ] + [("noise_dbm", None), ("noise_dbm", float("-inf"))])
    def test_number_keys_reject_non_numbers(self, tmp_path, key, value):
        doc = json.loads(scenario_to_json(small_geometry(), RicianConfig(), 7))
        doc[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{key}: .* is not a finite number$"):
            load_scenario(path)

    @pytest.mark.parametrize("key, value, expected", [
        ("noise_dbm", -75, ("noise_power_dbm", -75.0)),
        ("k_factor_db", 10, ("k_factor", 10.0)),
        ("k_factor_db", 0.0, ("k_factor", 1.0)),
        ("k_factor_db", float("-inf"), ("k_factor", 0.0)),
    ])
    def test_number_keys_take_ints_and_floats(self, tmp_path, key, value, expected):
        doc = json.loads(scenario_to_json(small_geometry(), RicianConfig(), 7))
        doc[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _, cfg, _ = load_scenario(path)
        name, want = expected
        assert getattr(cfg, name) == want

    def test_rayleigh_roundtrip(self, tmp_path):
        # scenario_to_json writes a k_factor of 0 as -Infinity dB.
        path = tmp_path / "scenario.json"
        path.write_text(scenario_to_json(small_geometry(), RicianConfig(k_factor=0.0), 7))
        assert load_scenario(path)[1].k_factor == 0.0
