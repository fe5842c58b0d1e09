"""irsnoma-lab benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmark/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

One worker process per run executes ``irsnoma_lab.cli.main`` in-process, one
command call at a time (a closed loop with a single client), with BLAS
pinned to one thread.  Every call runs one seed derived from ``--seed`` and
is checked by the correctness gate.  ``--trace 0`` issues calls while the
next one is expected to end within ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of seeds twice each, untraced
and traced, checks that the traced CSV bytes equal the untraced ones, and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, environment included, is written under
``.bench_out/results/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_ROOT = ".bench_out"
SCHEMA_HEADER = "# irsnoma-lab v0.1.0"
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170.0
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    csv: str
    key_column: str  # identifies a row within one seed's output
    rate_columns: tuple[str, ...]  # the first one is the sum rate
    trace_seeds: int  # seeds in a traced run: fixed, so per-layer calls repeat
    exact: bool = False  # rates must equal the reference within EXACT_TOL


PAPER_SCALE = {"n_users": 10, "m_clusters": 5, "k_elements": 25, "resolution_bits": 5}
DQN = {"algorithm": "dqn", "episodes": 30, "steps_per_episode": 20}

WORKLOADS = {
    # The only workload that trains the mobility predictor; it also touches
    # every other layer once per slot.
    "pipeline": Workload(
        command="pipeline",
        config={**PAPER_SCALE, **DQN, "slots": 5, "predictor_train_steps": 600},
        csv="pipeline.csv",
        key_column="slot",
        rate_columns=("sum_rate",),
        trace_seeds=1,
    ),
    # Acceptance-criterion-8 shape: exhaustive search, no learners, so the
    # evaluator (noma, precoding, channel) dominates.  The exhaustive optimum
    # does not depend on how it is computed, so its rates are exact.
    "oma-oracle": Workload(
        command="compare-oma",
        config={"algorithm": "oracle", "n_users": 2, "m_clusters": 1, "k_elements": 4,
                "resolution_bits": 2, "alpha_step": 0.1, "powers_dbm": [20.0, 40.0, 60.0]},
        csv="compare_oma.csv",
        key_column="power_dbm",
        rate_columns=("noma_rate", "oma_rate"),
        trace_seeds=3,
        exact=True,
    ),
    # DQN at paper scale over the default power grid: the evaluator one point
    # at a time from env.step, plus the DQN train step; no mobility.
    "power-dqn": Workload(
        command="sweep-power",
        config={**PAPER_SCALE, **DQN,
                "powers_dbm": [20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]},
        csv="sweep_power.csv",
        key_column="power_dbm",
        rate_columns=("sum_rate",),
        trace_seeds=1,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "cpu_per_row_s": "s/row",
    "peak_rss_mb": "MiB",
    "sum_rate_vs_ref": "ratio",
    "success_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict[int, list[list[float]]]:
    """Rows [key, *rates] per channel seed, recorded by make_reference.py."""
    with open(reference_path(workload), encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["config"] != WORKLOADS[workload].config:
        raise ValueError(f"{reference_path(workload)} was recorded for another config")
    return {int(seed): rows for seed, rows in doc["rows"].items()}


def seed_stream(workload: str, seed: int, pool):
    """Endless, reproducible channel seeds for one run.

    The run cycles through a permutation of the workload's reference pool,
    so every row it produces has a recorded reference to be compared with.
    """
    order = random.Random(f"{workload}/{seed}").sample(sorted(pool), len(pool))
    while True:
        yield from order


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def read_outputs(out_dir: str) -> dict[str, bytes]:
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out_dir)] = fh.read()
    return files


def parse_csv(data: bytes) -> list[dict[str, str]]:
    lines = [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def table(wl: Workload, data: bytes) -> list[list[float]]:
    """The main CSV's rows as [key, *rates]."""
    return [[float(r[c]) for c in (wl.key_column, *wl.rate_columns)] for r in parse_csv(data)]


def check_call(wl: Workload, reply: dict, files: dict, want: list[list[float]]):
    """(problems, rows) for one command call; ``want`` is the reference rows."""
    if reply.get("code") != 0:
        return [f"exit code {reply.get('code')!r}: {reply.get('error') or ''}"], []
    problems = [
        f"{name} lacks the {SCHEMA_HEADER!r} header"
        for name, data in files.items()
        if name.endswith(".csv") and not data.startswith((SCHEMA_HEADER + "\n").encode())
    ]
    if wl.csv not in files:
        return problems + [f"{wl.csv} missing"], []
    rows = table(wl, files[wl.csv])
    if [r[0] for r in rows] != [w[0] for w in want]:
        problems.append(f"{wl.csv}: {len(rows)} rows, expected {len(want)}")
    for row in rows:
        if not all(math.isfinite(v) and v >= 0.0 for v in row[1:]):
            problems.append(f"{wl.csv}: rate not finite and non-negative in {row}")
    if wl.exact and any(
        abs(g - w) > EXACT_TOL for got, ref in zip(rows, want) for g, w in zip(got[1:], ref[1:])
    ):
        problems.append(f"rates {rows} differ from the reference {want}")
    return problems, rows


# ---------------------------------------------------------------------------
# Worker plumbing
# ---------------------------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders in every worker
    return env


class WorkerError(RuntimeError):
    pass


def probe_setup(config_path: str, env: dict) -> float:
    proc = subprocess.run(
        [sys.executable, WORKER, "probe", config_path],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise WorkerError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.strip())


class Worker:
    """One serving worker process, driven one request at a time.

    A watchdog kills it after RUN_TIMEOUT_S, so a hung call ends the run.
    """

    def __init__(self, config_path: str, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "serve", config_path],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.watchdog = threading.Timer(RUN_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        try:
            self.setup_s = self._read()["setup_s"]
        except WorkerError:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, doc: dict) -> dict:
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(trace: dict, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from the tracer summary."""
    metrics = {}
    for name, t in trace.items():
        metrics[f"{name}.calls"] = (t["calls"], "count")
        metrics[f"{name}.self_s"] = (t["self_s"], "s")

    def counter(name, key):
        return trace[name]["counters"].get(key, 0)

    def calls(name):
        return trace[name]["calls"]

    zf = "precoding.zf_precoder"
    metrics[f"{zf}.ill_conditioned"] = (
        trace[zf]["errors"].get("IllConditionedChannelError", 0), "count")
    ev = "noma.evaluate_configuration"
    metrics[f"{ev}.feasible_ratio"] = (_ratio(counter(ev, "feasible"), calls(ev)), "ratio")
    cu = "clustering.cluster_users"
    metrics[f"{cu}.em_iters"] = (counter(cu, "em_iters"), "count")
    metrics[f"{cu}.converged_ratio"] = (_ratio(counter(cu, "converged"), calls(cu)), "ratio")
    for ts in ("mobility.RecurrentPredictor.train_step", "rl.QApproximator.train_step"):
        metrics[f"{ts}.clipped_ratio"] = (_ratio(counter(ts, "clipped"), calls(ts)), "ratio")
    bf = "oracle.brute_force_optimum"
    points = counter(bf, "points")
    metrics[f"{bf}.points"] = (points, "count")
    metrics[f"{bf}.feasible_ratio"] = (_ratio(counter(bf, "feasible"), points), "ratio")
    metrics[f"{bf}.points_per_s"] = (_ratio(points, trace[bf]["total_s"]), "1/s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def source_record() -> dict:
    """A hash of ./src, plus the git SHA and dirty flag when run from a git checkout."""
    digest = hashlib.sha256()
    for root, dirs, names in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    record = {"src_sha256": digest.hexdigest(), "git_sha": None, "git_dirty": None}
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return record
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True)
    if sha.returncode == 0 and status.returncode == 0:
        record["git_sha"] = sha.stdout.strip()
        record["git_dirty"] = bool(status.stdout.strip())
    return record


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    reference = load_reference(workload)
    run_dir = os.path.join(OUT_ROOT, f"run-{os.getpid()}")
    results_dir = os.path.join(OUT_ROOT, "results")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(wl.config, fh)
    env = worker_env()
    seeds = seed_stream(workload, seed, reference)
    calls, problems = [], []
    rates = {"got": 0.0, "ref": 0.0, "rows": 0}

    def call(request: int, call_seed: int, traced: bool):
        out_dir = os.path.join(run_dir, f"call{request}{'-traced' if traced else ''}")
        argv = [wl.command, "--config", config_path, "--seed", str(call_seed), "--out", out_dir]
        reply = worker.request({"op": "call", "argv": argv, "trace": traced, "request": request})
        files = read_outputs(out_dir) if os.path.isdir(out_dir) else {}
        shutil.rmtree(out_dir, ignore_errors=True)
        found, rows = check_call(wl, reply, files, reference[call_seed])
        if not found:
            rates["got"] += sum(r[1] for r in rows)
            rates["ref"] += sum(r[1] for r in reference[call_seed])
            rates["rows"] += len(rows)
        calls.append({"request": request, "seed": call_seed, "traced": traced,
                      "wall_s": reply.get("wall_s"), "cpu_s": reply.get("cpu_s"),
                      "rows": len(rows), "problems": found})
        problems.extend(f"call {request} (seed {call_seed}): {p}" for p in found)
        return reply, files

    worker = None
    try:
        probe_setup(config_path, env)  # warm-up: fills the bytecode cache
        setups = [probe_setup(config_path, env) for _ in range(SETUP_PROBES)]
        worker = Worker(config_path, env)
        if trace:
            walls = {False: 0.0, True: 0.0}
            for i in range(wl.trace_seeds):
                call_seed = next(seeds)
                # Alternate which side runs first so warm-up favours neither.
                outputs = {}
                for traced in (i % 2 == 1, i % 2 == 0):
                    reply, files = call(len(calls), call_seed, traced)
                    walls[traced] += reply.get("wall_s") or 0.0
                    outputs[traced] = files
                if outputs[True] != outputs[False]:
                    problems.append(f"seed {call_seed}: traced outputs differ from untraced")
                    calls[-1]["problems"].append("traced outputs differ")
            spans_path = os.path.join(results_dir, f"{workload}-seed{seed}-spans.npz")
            final = worker.request({"op": "finish", "spans_path": spans_path})
            overhead = _ratio(walls[True], walls[False]) - 1.0
            metrics = per_layer_metrics(final["trace"], overhead)
        else:
            # Issue calls while the next one, at the mean call time so far, is
            # expected to end within the budget; always make at least one.
            start = time.perf_counter()
            while True:
                call(len(calls), next(seeds), False)
                elapsed = time.perf_counter() - start
                if elapsed * (len(calls) + 1) / len(calls) > seconds:
                    break
            final = worker.request({"op": "finish"})
            ok = [c for c in calls if not c["problems"]]
            rows = sum(c["rows"] for c in ok)
            metrics = {
                "setup_s": (statistics.median(setups + [worker.setup_s]), "s"),
                "rows_per_s": (_ratio(rows, sum(c["wall_s"] for c in ok)), "rows/s"),
                "cpu_per_row_s": (_ratio(sum(c["cpu_s"] for c in ok), rows), "s/row"),
                "peak_rss_mb": (final["maxrss_mb"], "MiB"),
                "sum_rate_vs_ref": (_ratio(rates["got"], rates["ref"]), "ratio"),
                "success_ratio": (_ratio(len(ok), len(calls)), "ratio"),
            }
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for c in calls if c["problems"])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {**final["env"], **source_record(), "benchmark_seed": seed},
        "setup_samples_s": setups + [worker.setup_s],
        "calls": calls,
        "problems": problems,
        "mean_sum_rate": _ratio(rates["got"], rates["rows"]),
        "absent_targets": sorted(n for n, t in final.get("trace", {}).items() if t["absent"]),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    record["summary"] = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": record["metrics"],
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.SubprocessError, OSError, ValueError, KeyError) as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 1
    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"{args.workload:>10}  {'mean_sum_rate (info)':<48} {record['mean_sum_rate']:>14.6g} bit/s/Hz")
    for name, m in record["metrics"].items():
        print(f"{args.workload:>10}  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
