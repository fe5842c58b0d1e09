"""Seeded experiment harness wiring all stages into reproducible runs.

Every command funnels its randomness through a named-seed registry, so each
sub-stream (scenario, per-slot channels, clustering, agent) is independently
replayable and every CSV is bit-identical given (config, seed).  Output
files start with the schema header comment ``# irsnoma-lab v<version>``.

Every command sets up each seed through one path, :func:`prepare`.

Column conventions: the per-slot pipeline emits
(seed, slot, sum_rate, feasible, occupancy, decoding_orders) where
``occupancy`` joins cluster sizes with '-' and ``decoding_orders`` joins
each cluster's user ids with '>' and clusters with '|'.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import tempfile
import zlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .channel import (
    RicianConfig,
    ScenarioGeometry,
    dbm_to_watts,
    default_region,
    effective_channels_batch,
    load_scenario,
    phase_coefficients,
    sample_channels,
    scenario_to_json,
)
from .clustering import cluster_users
from .mobility import (
    ConstantVelocityModel,
    predict_next,
    rejection_sample_positions,
    run_algorithm1,
)
from .noma import (
    ALPHA_DOMAINS,
    INTERFERENCE_MODELS,
    NetworkScenario,
    oma_tdma_sum_rate,
)
from .oracle import (
    CHUNK_POINTS,
    EVALUATION_GUARD,
    SPLIT_GUARD,
    SearchSpaceTooLargeError,
    _units_from_step,
    brute_force_optima,
    composition_count,
    phase_index_block,
)
from .rl import (
    NomaPhaseEnv,
    QApproximator,
    random_search,
    train_agent,
    train_tabular_agent,
)

SCHEMA_HEADER = f"# irsnoma-lab v{__version__}"
ALGORITHMS = ("dqn", "tabular", "random-phase", "oracle")
# Most runs one lockstep search steps at once.  Runs are independent, so a
# command's runs step in chunks of this size with the same outputs; the
# cap bounds the memory of many seeds (20 seeds x 5 pipeline slots).
LOCKSTEP_RUNS = 16
# Every evaluator call indexes the 2**B phase table; 16 bits make it 1 MiB.
MAX_RESOLUTION_BITS = 16


class SeedRegistry:
    """Derives independent, replayable random streams from one master seed."""

    def __init__(self, master: int):
        self.master = int(master)

    def seed_sequence(self, name: str) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.master, zlib.crc32(name.encode())])

    def rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng(self.seed_sequence(name))


def _kind(name: str, kind: str, value):
    """``value`` as a field of annotation ``kind`` holds it, or a ValueError naming ``name``.

    An int is an int or numpy integer, a float any finite real, never a
    bool; a list is a non-empty list or tuple, each entry of its kind.
    """
    if kind.startswith("tuple["):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name}: {value!r} is not a list")
        if not value:
            raise ValueError(f"{name} must list at least one value")
        entry = kind[len("tuple["):-len(", ...]")]
        value = tuple(_kind(name, entry, v) for v in value)
        return tuple(map(float, value)) if entry == "float" else value
    if kind == "str | None" and value is None:
        return value
    types, noun = {
        "int": ((int, np.integer), "an integer"),
        "float": ((int, float, np.integer, np.floating), "a number"),
        "bool": (bool, "a bool"),
        "str": (str, "a string"),
        "str | None": (str, "a string"),
    }[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
        raise ValueError(f"{name}: {value!r} is not {noun}")
    if kind == "float" and not math.isfinite(value):
        raise ValueError(f"{name} {value} must be finite")
    return int(value) if kind == "int" else value


def _rule(default, **rule):
    """A field's default and its rule: ``min`` and ``max`` (inclusive),
    ``above`` (exclusive) or ``choices``; a list's rule holds for each entry."""
    return field(default=default, metadata=rule)


def _check_rule(name: str, value, rule) -> None:
    low, high = rule.get("min"), rule.get("max")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} {value} must be in [{low}, {high}]")
    if low is not None and not value >= low:
        raise ValueError(f"{name} {value} must be >= {low}")
    if "above" in rule and not value > rule["above"]:
        raise ValueError(f"{name} {value} must be > {rule['above']}")
    if "choices" in rule and value not in rule["choices"]:
        raise ValueError(f"unknown {name} {value!r}; pick one of {rule['choices']}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment family, validated on creation.

    Each field declares its rule beside its default; ``__post_init__``
    checks every field's kind and rule, then the rules across fields.
    """

    scenario_path: str | None = None
    out_dir: str = "results"
    algorithm: str = _rule("dqn", choices=ALGORITHMS)
    seeds: tuple[int, ...] = _rule((0,), min=0)

    n_users: int = 10
    m_clusters: int = _rule(5, min=1)
    k_elements: int = _rule(25, min=1)
    resolution_bits: int = _rule(5, min=1, max=MAX_RESOLUTION_BITS)
    power_dbm: float = _rule(60.0, min=0, max=120)
    alpha_step: float = 0.1
    qos_floor: float = _rule(0.0, min=0)
    interference_model: str = _rule("incoherent", choices=INTERFERENCE_MODELS)
    alpha_domain: str = _rule("amplitude", choices=ALPHA_DOMAINS)

    powers_dbm: tuple[float, ...] = _rule(
        (20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0), min=0, max=120
    )
    element_counts: tuple[int, ...] = _rule((5, 10, 15, 20, 25), min=1)

    slots: int = _rule(5, min=1)
    clustering_epsilon: float = _rule(1e-15, above=0)

    episodes: int = _rule(30, min=1)
    steps_per_episode: int = _rule(20, min=1)
    random_samples: int = _rule(60, min=1)

    n0: int = 16
    n_max: int = 64
    window_len: int = _rule(8, min=1)
    speed: float = _rule(1.5, min=0)
    heading_noise_std: float = _rule(0.05, min=0)
    predictor_train_steps: int = _rule(600, min=0)
    save_curves: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = _kind(f.name, f.type, getattr(self, f.name))
            for entry in value if isinstance(value, tuple) else (value,):
                _check_rule(f.name, entry, f.metadata)
            object.__setattr__(self, f.name, value)
        if self.n0 < self.window_len + 2:
            raise ValueError(f"n0 {self.n0} must be >= window_len + 2 = {self.window_len + 2}")
        if self.n_max < self.n0:
            raise ValueError(f"n_max {self.n_max} must be >= n0 {self.n0}")
        # A scenario file brings its own user count; ``prepare`` checks it.
        if not self.scenario_path and self.m_clusters > self.n_users:
            raise ValueError(
                f"m_clusters {self.m_clusters} exceeds n_users {self.n_users}"
            )
        _units_from_step(self.alpha_step)
        if self.algorithm == "oracle":
            self.check_oracle_size(self.k_elements, "k_elements")

    def check_oracle_size(self, k_elements: int, field: str) -> None:
        """Reject an oracle search above either guard under every clustering.

        m - 1 singleton clusters give the fewest splits (a scenario file brings
        its own users: phases only); 2**64 phases alone exceed the guard.
        """
        exponent = self.resolution_bits * k_elements
        parts = 1 if self.scenario_path else self.n_users - self.m_clusters + 1
        splits = composition_count(_units_from_step(self.alpha_step), parts)
        if splits << min(exponent, 64) > EVALUATION_GUARD:
            raise ValueError(
                f"{field} {k_elements} at resolution_bits {self.resolution_bits} gives "
                f"2**{exponent} oracle phase configs x {splits} power splits at least, "
                f"above the guard {EVALUATION_GUARD}"
            )
        if splits > SPLIT_GUARD:
            raise ValueError(
                f"alpha_step {self.alpha_step} gives {splits} oracle power splits at "
                f"least, above the guard {SPLIT_GUARD}"
            )

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        doc.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**doc)

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    """Atomically write a schema-stamped CSV (full float precision)."""
    buf = io.StringIO()
    buf.write(SCHEMA_HEADER + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _atomic_write(path, buf.getvalue())


def _atomic_write(path, text: str) -> None:
    """Write via a temp file unique to this call in the target directory."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            # mkstemp creates the file owner-only; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Read back a schema-stamped CSV; returns (header, rows)."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [row for row in reader]


def _out(config: ExperimentConfig, name: str) -> str:
    return os.path.join(config.out_dir, name)


def _emit(config: ExperimentConfig, name: str, header: list[str], rows):
    """Write a command's rows to ``<out_dir>/<name>`` and return them."""
    write_csv(_out(config, name), header, rows)
    return rows


def _emit_sweep(config: ExperimentConfig, name: str, header: list[str], rows):
    """Emit (x, series, seed, sum_rate) rows and their mean per (x, series)."""
    _emit(config, f"{name}.csv", header, rows)
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[:2], []).append(row[3])
    means = [(*key, float(np.mean(vals))) for key, vals in groups.items()]
    _emit(config, f"{name}_mean.csv", [*header[:2], "mean_sum_rate"], means)
    return rows


def _occupancy_string(sizes) -> str:
    return "-".join(str(int(s)) for s in sizes)


def _orders_string(orders) -> str:
    if orders is None:
        return ""
    return "|".join(">".join(str(u) for u in order) for order in orders)


# ---------------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Setup:
    """One seed's stream registry and scenario; each stage reads its own stream."""

    config: ExperimentConfig
    registry: SeedRegistry
    geometry: ScenarioGeometry
    rician: RicianConfig

    def channels(self, k_elements: int, suffix: str = "", geometry=None):
        return sample_channels(
            self.geometry if geometry is None else geometry,
            self.rician,
            self.registry.rng("channel" + suffix),
            k_elements=k_elements,
            n_antennas=self.config.m_clusters,
        )

    def cluster(self, channels, suffix: str = ""):
        return cluster_users(
            channels.user_channels,
            self.config.m_clusters,
            epsilon=self.config.clustering_epsilon,
            seed=self.registry.rng("cluster" + suffix),
        )

    def draw(self, k_elements: int, suffix: str = "", geometry=None):
        """One channel realization and its cluster fit: (channels, fit)."""
        channels = self.channels(k_elements, suffix, geometry)
        return channels, self.cluster(channels, suffix)

    def scenario(self, channels, assignment, power_dbm=None) -> NetworkScenario:
        config = self.config
        return NetworkScenario(
            channels=channels,
            assignment=tuple(int(c) for c in assignment),
            total_power=dbm_to_watts(
                config.power_dbm if power_dbm is None else power_dbm
            ),
            qos_floors=config.qos_floor,
            interference_model=config.interference_model,
            alpha_domain=config.alpha_domain,
        )

    def runs(self, channels, assignment, streams, powers_dbm=None) -> list:
        """One (scenario, generator) run per stream, run i on ``agent/{streams[i]}``.

        Run i spends ``powers_dbm[i]`` (the configured power by default).
        """
        if powers_dbm is None:
            powers_dbm = [None] * len(streams)
        return [
            (self.scenario(channels, assignment, power), self.registry.rng(f"agent/{stream}"))
            for stream, power in zip(streams, powers_dbm)
        ]

    def truths(self, horizon: int) -> list[np.ndarray]:
        """Ground-truth trajectories of ``horizon`` positions per user."""
        motion = ConstantVelocityModel(self.config.speed, self.config.heading_noise_std)
        return [
            motion.simulate(
                self.geometry.region,
                self.geometry.user_positions[u][:2],
                horizon - 1,
                self.registry.rng(f"truth/user{u}"),
            )
            for u in range(self.geometry.n_users)
        ]

    def forecasts(self) -> list[np.ndarray]:
        """Per-slot one-step position forecasts after ``n_max``, kept in the region."""
        config, region = self.config, self.geometry.region
        truths = np.stack(self.truths(config.n_max + config.slots))
        algo1 = run_algorithm1(
            region,
            self.geometry.n_users,
            config.n0,
            config.n_max,
            seed=self.registry.rng("mobility"),
            window_len=config.window_len,
            train_steps_per_round=config.predictor_train_steps,
            trajectories=truths,
        )
        w, base = config.window_len + 1, config.n_max
        forecasts = []
        for slot in range(config.slots):
            windows = truths[:, base - w + slot : base + slot]
            predicted = predict_next(algo1.predictors, algo1.scaler, windows)
            inside = region.contains_many(predicted)
            forecasts.append(np.where(inside[:, None], predicted, windows[:, -1]))
        return forecasts


def prepare(config: ExperimentConfig, seed: int) -> Setup:
    """Load the configured scenario file or synthesize one from the registry."""
    registry = SeedRegistry(seed)
    if config.scenario_path:
        geometry, rician, _ = load_scenario(config.scenario_path)
        if config.m_clusters > geometry.n_users:
            raise ValueError(
                f"m_clusters {config.m_clusters} exceeds the {geometry.n_users} "
                f"users of {config.scenario_path}"
            )
        return Setup(config, registry, geometry, rician)
    region = default_region()
    positions = rejection_sample_positions(
        region, config.n_users, registry.rng("scenario")
    )
    geometry = ScenarioGeometry(
        bs_position=[0.0, -60.0, 10.0],
        user_positions=positions,
        region=region,
    )
    return Setup(config, registry, geometry, RicianConfig())


def _search(scenarios, config: ExperimentConfig, rngs) -> list:
    """One lockstep search of the configured learner over these runs."""
    env = NomaPhaseEnv(
        scenarios,
        resolution_bits=config.resolution_bits,
        alpha_step=config.alpha_step,
    )
    budget = (config.episodes, config.steps_per_episode, rngs)
    if config.algorithm == "random-phase":
        return random_search(env, config.random_samples, rngs)
    if config.algorithm == "dqn":
        approx = QApproximator(env.feature_dim, env.n_actions, seeds=rngs)
        return train_agent(env, approx, *budget)
    return train_tabular_agent(env, *budget)


def optimize_scenario(runs, config: ExperimentConfig) -> list:
    """Run the configured optimizer on (scenario, generator) runs of one size.

    The learners step the runs in lockstep, up to ``LOCKSTEP_RUNS`` at a
    time; the oracle searches consecutive runs of one channel draw (a
    seed's powers, which differ only in power) in one pass.  Returns each
    run's ``TrainResult`` or ``OracleResult``: a run without a feasible
    point has no ``best_phase`` and rate 0.
    """
    scenarios, rngs = zip(*runs)
    bests = []
    if config.algorithm == "oracle":
        for _, draw in itertools.groupby(scenarios, key=lambda s: id(s.channels)):
            draw = list(draw)
            powers = [s.total_power for s in draw]
            bests += brute_force_optima(
                draw[0], config.resolution_bits, config.alpha_step, powers
            )
        return bests
    for start in range(0, len(scenarios), LOCKSTEP_RUNS):
        chunk = slice(start, start + LOCKSTEP_RUNS)
        bests += _search(scenarios[chunk], config, rngs[chunk])
    return bests


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(config: ExperimentConfig) -> dict:
    """Write the scenario JSON and a ground-truth trajectory CSV."""
    setup = prepare(config, config.seeds[0])
    rows = [
        (u, t, x, y)
        for u, path in enumerate(setup.truths(config.slots))
        for t, (x, y) in enumerate(path)
    ]
    scenario_file = _out(config, "scenario.json")
    scenario = scenario_to_json(setup.geometry, setup.rician, setup.registry.master)
    _atomic_write(scenario_file, scenario)
    traj_file = _out(config, "trajectories.csv")
    write_csv(traj_file, ["user", "t", "x", "y"], rows)
    return {"scenario": scenario_file, "trajectories": traj_file}


def cmd_pipeline(config: ExperimentConfig) -> list[tuple]:
    """Predict -> resample channels -> cluster -> optimize, for every seed and slot.

    Each seed forecasts its slots first, then draws every slot's channels
    and cluster fit; one lockstep search then covers all (seed, slot) runs.
    Every stage reads its own named stream, so this order changes no draw.
    """
    slots, runs = [], []
    for seed in config.seeds:
        setup = prepare(config, seed)
        for slot, predicted in enumerate(setup.forecasts()):
            channels, fit = setup.draw(
                config.k_elements,
                f"/slot{slot}",
                setup.geometry.with_user_positions(predicted),
            )
            slots.append((seed, slot, fit))
            runs += setup.runs(channels, fit.assignment, [f"slot{slot}"])
    bests = optimize_scenario(runs, config)
    rows = [
        (
            seed,
            slot,
            best.best_rate,
            int(best.best_phase is not None),
            _occupancy_string(fit.occupancy()),
            _orders_string(best.best_orders),
        )
        for (seed, slot, fit), best in zip(slots, bests)
    ]
    header = ["seed", "slot", "sum_rate", "feasible", "occupancy", "decoding_orders"]
    _emit(config, "pipeline.csv", header, rows)
    if config.save_curves and config.algorithm in ("dqn", "tabular"):
        for (seed, slot, _), best in zip(slots, bests):
            _emit(
                config,
                f"curves/curve_seed{seed}_slot{slot}.csv",
                ["episode", "best_reward", "epsilon", "loss"],
                [(p.episode, p.best_reward, p.epsilon, p.loss) for p in best.curve],
            )
    return rows


def _power_runs(config: ExperimentConfig, seed: int):
    """A seed's channels and its runs, one per configured power."""
    setup = prepare(config, seed)
    channels, fit = setup.draw(config.k_elements)
    streams = [f"power{power}" for power in config.powers_dbm]
    return channels, setup.runs(channels, fit.assignment, streams, config.powers_dbm)


def cmd_sweep_power(config: ExperimentConfig) -> list[tuple]:
    """Sum rate over the transmit-power grid; one lockstep search over seeds x powers."""
    runs = [run for seed in config.seeds for run in _power_runs(config, seed)[1]]
    keys = [(seed, power) for seed in config.seeds for power in config.powers_dbm]
    rows = [
        (power, config.algorithm, seed, best.best_rate)
        for (seed, power), best in zip(keys, optimize_scenario(runs, config))
    ]
    header = ["power_dbm", "algorithm", "seed", "sum_rate"]
    return _emit_sweep(config, "sweep_power", header, rows)


def cmd_sweep_elements(config: ExperimentConfig) -> list[tuple]:
    """Sum rate over element counts; smaller surfaces are prefixes of larger.

    One lockstep search per element count covers every seed.
    """
    if config.algorithm == "oracle":
        config.check_oracle_size(max(config.element_counts), "element_counts")
    setups = [prepare(config, seed) for seed in config.seeds]
    fulls = [setup.channels(max(config.element_counts)) for setup in setups]
    per_k = []  # per element count, one lockstep search over the seeds
    for k in config.element_counts:
        runs = []
        for setup, full in zip(setups, fulls):
            channels = full.slice_elements(k)
            runs += setup.runs(channels, setup.cluster(channels).assignment, [f"k{k}"])
        per_k.append(optimize_scenario(runs, config))
    rows = [
        (k, config.power_dbm, seed, bests[i].best_rate)
        for i, seed in enumerate(config.seeds)
        for k, bests in zip(config.element_counts, per_k)
    ]
    header = ["k_elements", "power_dbm", "seed", "sum_rate"]
    return _emit_sweep(config, "sweep_elements", header, rows)


def best_single_user_gain(channels, user: int, resolution_bits: int) -> float:
    """Exact best effective-channel norm for one user over all phase configs."""
    k = channels.k_elements
    count = (1 << resolution_bits) ** k
    if count > EVALUATION_GUARD:
        raise SearchSpaceTooLargeError(count)
    best = 0.0
    for start in range(0, count, CHUNK_POINTS):
        phase_idx = phase_index_block(
            k, resolution_bits, start, min(start + CHUNK_POINTS, count)
        )
        h = effective_channels_batch(channels, phase_idx, resolution_bits, [user])
        # np.linalg.norm of a complex row: one BLAS dot per real/imaginary part.
        re, im = h.real, h.imag
        norms = np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))
        best = float(np.fmax.reduce(norms.ravel(), initial=best))
    return best


def aligned_single_user_gain(channels, user: int, resolution_bits: int) -> float:
    """Coordinate-ascent phase alignment for one user (large surfaces)."""
    grid = phase_coefficients(resolution_bits)
    k = channels.k_elements
    coeffs = np.ones(k, dtype=complex)
    terms = np.conj(channels.user_channels[user])[:, None] * channels.g_matrix
    for _ in range(3):
        for idx in range(k):
            rest = (coeffs[:, None] * terms).sum(axis=0) - coeffs[idx] * terms[idx]
            norms = np.linalg.norm(
                rest[None, :] + grid[:, None] * terms[idx][None, :], axis=1
            )
            coeffs[idx] = grid[int(np.argmax(norms))]
    return float(np.linalg.norm((coeffs[:, None] * terms).sum(axis=0)))


def cmd_compare_oma(config: ExperimentConfig) -> list[tuple]:
    """Paired NOMA-vs-TDMA comparison on identical channels per seed.

    Each seed's channels, assignment and TDMA gains are drawn once, and one
    lockstep search covers seeds x powers; rows run power-major, then seed.
    """
    exhaustive_ok = (1 << config.resolution_bits) ** config.k_elements <= 10**6
    gain_fn = best_single_user_gain if exhaustive_ok else aligned_single_user_gain
    powers = config.powers_dbm
    prepared, runs = [], []
    for seed in config.seeds:
        channels, seed_runs = _power_runs(config, seed)
        gains = [
            gain_fn(channels, u, config.resolution_bits)
            for u in range(channels.n_users)
        ]
        prepared.append((channels, gains))
        runs += seed_runs
    bests = optimize_scenario(runs, config)
    rows = []
    for i, power in enumerate(powers):
        for j, (channels, gains) in enumerate(prepared):
            noma_rate = bests[j * len(powers) + i].best_rate
            oma_rate = oma_tdma_sum_rate(
                gains, dbm_to_watts(power), channels.noise_variance
            )
            gain_percent = (
                100.0 * (noma_rate - oma_rate) / oma_rate if oma_rate > 0 else 0.0
            )
            rows.append((power, noma_rate, oma_rate, gain_percent))
    header = ["power_dbm", "noma_rate", "oma_rate", "gain_percent"]
    return _emit(config, "compare_oma.csv", header, rows)


def cmd_oracle(config: ExperimentConfig):
    """Exhaustive optimum for the configured (small) instance."""
    setup = prepare(config, config.seeds[0])
    channels, fit = setup.draw(config.k_elements)
    scenario = setup.scenario(channels, fit.assignment)
    (result,) = brute_force_optima(
        scenario, config.resolution_bits, config.alpha_step, [scenario.total_power]
    )
    _atomic_write(_out(config, "oracle.json"), result.to_json())
    return result


def cmd_cluster(config: ExperimentConfig):
    """Cluster one channel draw; writes the assignment CSV and mixture JSON."""
    _, fit = prepare(config, config.seeds[0]).draw(config.k_elements)
    rows = [(u, int(c)) for u, c in enumerate(fit.assignment)]
    _emit(config, "assignment.csv", ["user", "cluster"], rows)
    params_doc = fit.params.to_json_dict()
    params_doc["converged"] = fit.converged
    params_doc["n_iter"] = fit.n_iter
    params_doc["log_likelihood"] = fit.log_likelihood
    _atomic_write(
        _out(config, "gmm_params.json"),
        json.dumps(params_doc, indent=2, sort_keys=True),
    )
    return fit


def cmd_predict(config: ExperimentConfig):
    """Train the mobility predictor and emit one-step forecasts per slot."""
    forecasts = prepare(config, config.seeds[0]).forecasts()
    rows = [
        (u, slot, x, y)
        for slot, predicted in enumerate(forecasts)
        for u, (x, y) in enumerate(predicted)
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    return _emit(config, "predictions.csv", ["user", "t", "x", "y"], rows)
