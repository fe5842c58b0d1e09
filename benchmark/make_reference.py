"""Record the reference rows each benchmark workload is compared with.

For every channel seed in a workload's pool this runs the workload's command
once and stores the main CSV's rows as [key, *rates].  The benchmark draws
its seeds from these pools.  oma-oracle rates are exact (the exhaustive
optimum does not depend on how it is computed), so the correctness gate
holds them to 1e-9; the learners' rates feed ``sum_rate_vs_ref``.  Run from
the repository root with BLAS pinned, as the benchmark runs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmark/make_reference.py [WORKLOAD ...]

It takes about 25 s per pipeline seed, 11 s per power-dqn seed and 3 s per
oma-oracle seed on one core.
"""

import contextlib
import json
import os
import sys
import tempfile

from run import WORKLOADS, reference_path, table

POOLS = {"pipeline": range(10), "oma-oracle": range(40), "power-dqn": range(16)}


def record(workload: str):
    import irsnoma_lab.cli as cli

    wl = WORKLOADS[workload]
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(wl.config, fh)
        for seed in POOLS[workload]:
            out = os.path.join(tmp, f"seed{seed}")
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main([wl.command, "--config", config_path, "--seed", str(seed), "--out", out])
            if code != 0:
                sys.exit(f"{workload} seed {seed}: exit code {code}")
            with open(os.path.join(out, wl.csv), "rb") as fh:
                rows[str(seed)] = table(wl, fh.read())
    doc = {"config": wl.config, "columns": [wl.key_column, *wl.rate_columns], "rows": rows}
    os.makedirs(os.path.dirname(reference_path(workload)), exist_ok=True)
    with open(reference_path(workload), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {reference_path(workload)}", file=sys.stderr)


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(name)
