"""Benchmark worker: a fresh process that runs ``irsnoma`` commands in-process.

``run.py`` starts it from the checkout root with ``PYTHONPATH=src`` and BLAS
pinned to one thread:

    python3 benchmark/worker.py probe CONFIG   time the set-up, print it, exit
    python3 benchmark/worker.py serve CONFIG   time the set-up, then answer one
                                               JSON request per stdin line

Set-up is the time to import ``irsnoma_lab.cli`` and to build and validate
the workload's ``ExperimentConfig``.  Nothing else is imported before it is
timed.
"""

import sys
import time


def setup(config_path: str) -> float:
    start = time.perf_counter()
    import irsnoma_lab.cli  # noqa: F401
    from irsnoma_lab.harness import ExperimentConfig

    ExperimentConfig.from_json(config_path)
    return time.perf_counter() - start


def _check_source():
    """Refuse to measure an ``irsnoma_lab`` imported from outside ./src."""
    import os

    import irsnoma_lab

    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(irsnoma_lab.__file__).startswith(src):
        sys.exit(f"worker: irsnoma_lab imported from {irsnoma_lab.__file__}, not ./src")


def _blas_runtime() -> dict:
    """OpenBLAS version and thread count as the loaded library reports them."""
    import ctypes
    import glob
    import os

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"blas_threads": threads(), "blas_config": config().decode()}
    return {"blas_threads": None, "blas_config": None}


def environment() -> dict:
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "openblas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        **_blas_runtime(),
    }


def serve(setup_s: float):
    import contextlib
    import io
    import json
    import resource
    import traceback

    import irsnoma_lab.cli as cli

    from tracer import Tracer

    proto = sys.stdout
    tracer = Tracer()
    traced_any = False

    def send(doc):
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    send({"setup_s": setup_s})
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "finish":
            usage = resource.getrusage(resource.RUSAGE_SELF)
            doc = {"maxrss_mb": usage.ru_maxrss / 1024.0, "env": environment()}
            if traced_any:
                doc["trace"] = tracer.summary()
                tracer.save(req["spans_path"])
            send(doc)
            return
        if req["trace"]:
            tracer.request = req["request"]
            tracer.install()
            traced_any = True
        printed = io.StringIO()
        error = None
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = cli.main(req["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing command is a failed call, not a crashed run
            code, error = None, traceback.format_exc()
        finally:
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            tracer.uninstall()
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        send({"code": code, "wall_s": wall, "cpu_s": cpu,
              "stdout": printed.getvalue(), "error": error})


def main():
    mode, config_path = sys.argv[1], sys.argv[2]
    setup_s = setup(config_path)
    _check_source()
    if mode == "probe":
        print(repr(setup_s))
    elif mode == "serve":
        serve(setup_s)
    else:
        sys.exit(f"worker: unknown mode {mode!r}")


if __name__ == "__main__":
    main()
