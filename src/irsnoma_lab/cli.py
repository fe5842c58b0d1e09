"""Command-line front-end for the experiment harness.

Subcommands: generate, pipeline, sweep-power, sweep-elements, compare-oma,
oracle, cluster, predict.  Every subcommand accepts --config <path> (a JSON
object of :class:`~irsnoma_lab.harness.ExperimentConfig` fields), --seed,
--out, and --algorithm; flags override the config file.

The config is validated before any command starts work or writes output: a
top level that is not a JSON object, an unknown field, a float, bool or
string in an integer field or list, a bool or string in a float field or
in ``powers_dbm``, a ``save_curves`` that is not a bool,
``resolution_bits`` outside [1, 16],
``m_clusters`` below 1, ``m_clusters > n_users`` without a
``scenario_path``, an ``alpha_step`` that does not divide 1, an empty
``seeds``, ``powers_dbm`` or ``element_counts`` list, a negative seed, an
unknown algorithm, ``interference_model`` or ``alpha_domain``, a negative
or non-finite ``qos_floor``, ``speed`` or ``heading_noise_std``, powers,
element counts or slot counts out of range, a ``clustering_epsilon`` that
is not finite and positive, ``window_len < 1``, ``n0 < window_len + 2``,
``n_max < n0``, a negative ``predictor_train_steps``, and, under the
oracle, more than 1e8 evaluations (2**(B*K) phase configs times the fewest
power splits of any clustering, or the phase configs alone with a
``scenario_path``) at ``k_elements`` (at the largest of ``element_counts``
for sweep-elements) are all rejected.

A ``dqn`` run of a command that trains an agent (pipeline, sweep-power,
sweep-elements, compare-oma) whose ``episodes * steps_per_episode`` stays
below the replay warmup never takes a train step; it still runs, after one
``warning: ...`` line on stderr.

Exit codes: 0 on success; 1 on a validation error, reported on stderr as
``error: <message>``; 2 when a run ends infeasible or without a result (no
feasible pipeline slot, or no feasible oracle configuration).
"""

from __future__ import annotations

import argparse
import functools
import sys

# ``main`` dispatches through these module bindings at call time.
from .harness import (  # noqa: F401
    ALGORITHMS,
    ExperimentConfig,
    cmd_cluster,
    cmd_compare_oma,
    cmd_generate,
    cmd_oracle,
    cmd_pipeline,
    cmd_predict,
    cmd_sweep_elements,
    cmd_sweep_power,
)
from .rl import BATCH_SIZE, WARMUP

# Commands that train one agent per run with the configured algorithm.
AGENT_COMMANDS = ("pipeline", "sweep-power", "sweep-elements", "compare-oma")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_RESULT = 2


def _say(text: str, code: int = EXIT_OK, file=None) -> int:
    print(text, file=file)
    return code


def _rows(label: str):
    return lambda rows: _say(f"{label}: {len(rows)} rows")


def _pipeline_summary(rows) -> int:
    feasible = sum(int(r[3]) for r in rows)
    text = f"pipeline: {len(rows)} slot rows, {feasible} feasible"
    return _say(text, EXIT_OK if feasible else EXIT_NO_RESULT)


def _oracle_summary(result) -> int:
    if result.feasible_count == 0:
        return _say("oracle: no feasible configuration", EXIT_NO_RESULT, sys.stderr)
    return _say(
        f"oracle: best rate {result.best_rate} over "
        f"{result.evaluated_count} evaluations"
    )


# name -> (help, summary): ``main`` runs ``cmd_<name>``, then the summary
# prints its result and returns the exit code.
COMMANDS = {
    "generate": (
        "write a scenario JSON and ground-truth trajectories",
        lambda paths: _say(f"wrote {paths['scenario']} and {paths['trajectories']}"),
    ),
    "pipeline": (
        "run the per-slot predict/cluster/optimize pipeline",
        _pipeline_summary,
    ),
    "sweep-power": ("sum rate over the transmit-power grid", _rows("sweep-power")),
    "sweep-elements": ("sum rate over surface element counts", _rows("sweep-elements")),
    "compare-oma": ("paired NOMA vs TDMA comparison", _rows("compare-oma")),
    "oracle": ("exhaustive optimum on a small instance", _oracle_summary),
    "cluster": (
        "cluster one channel draw",
        lambda fit: _say(f"cluster: occupancy {list(fit.occupancy())}"),
    ),
    "predict": (
        "train the mobility predictor and emit forecasts",
        lambda rows: _say(f"predict: {len(rows)} forecast rows"),
    ),
}


# Built on the first ``main`` call, not at import, and reused after that:
# ``COMMANDS`` and ``ALGORITHMS`` are constants, so the tree never changes.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsnoma",
        description="IRS-aided MISO-NOMA experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON experiment config file")
        cmd.add_argument(
            "--seed", type=int, help="master seed (replaces the seed list)"
        )
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--algorithm", choices=ALGORITHMS, help="optimizer to run")
    return parser


def load_config(args) -> ExperimentConfig:
    overrides = {
        "seeds": (args.seed,) if args.seed is not None else None,
        "out_dir": args.out,
        "algorithm": args.algorithm,
    }
    if args.config:
        return ExperimentConfig.from_json(args.config, **overrides)
    return ExperimentConfig().with_overrides(**overrides)


def _warn_untrained_dqn(command: str, config: ExperimentConfig) -> None:
    steps = config.episodes * config.steps_per_episode
    warmup = max(BATCH_SIZE, WARMUP)
    if config.algorithm == "dqn" and command in AGENT_COMMANDS and steps < warmup:
        print(
            f"warning: {config.episodes} episodes x {config.steps_per_episode} steps "
            f"= {steps} transitions per DQN run, below the replay warmup of "
            f"{warmup}; the agent never trains",
            file=sys.stderr,
        )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, summarize = COMMANDS[args.command]
    try:
        config = load_config(args)
        _warn_untrained_dqn(args.command, config)
        result = globals()["cmd_" + args.command.replace("-", "_")](config)
    except (ValueError, OSError, KeyError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    return summarize(result)


if __name__ == "__main__":
    sys.exit(main())
