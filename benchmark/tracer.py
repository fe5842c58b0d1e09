"""Outside-in tracer for the irsnoma_lab package.

The tracer edits no package source.  It wraps each target function or
method wherever the package binds it -- every module attribute and every
class attribute that *is* the target object -- so calls made through
``from .x import f`` copies are caught as well as calls through ``x.f``.
Spans live in flat in-memory arrays and are written out once, at the end of
a run.  A target missing from the package (a later refactor may delete it)
is reported as absent rather than raising.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "irsnoma_lab"

# metric prefix -> (module, qualified name, ...).  Several names under one
# prefix share a metric (``harness.cmd`` covers every command the workloads
# call).
TARGETS: dict[str, tuple[str, ...]] = {
    "channel.sample_channels": ("channel", "sample_channels"),
    "channel.effective_channels_all": ("channel", "effective_channels_all"),
    "precoding.cluster_channel_matrix": ("precoding", "cluster_channel_matrix"),
    "precoding.zf_precoder": ("precoding", "zf_precoder"),
    "noma.evaluate_configuration": ("noma", "evaluate_configuration"),
    "noma.evaluate": ("noma", "evaluate"),
    "noma.sinr_cross": ("noma", "sinr_cross"),
    "clustering.cluster_users": ("clustering", "cluster_users"),
    "mobility.run_algorithm1": ("mobility", "run_algorithm1"),
    "mobility.RecurrentPredictor.train_step": ("mobility", "RecurrentPredictor.train_step"),
    "mobility.RecurrentPredictor.forward": ("mobility", "RecurrentPredictor.forward"),
    "mobility.predict_next": ("mobility", "predict_next"),
    "rl.train_agent": ("rl", "train_agent"),
    "rl.NomaPhaseEnv.step": ("rl", "NomaPhaseEnv.step"),
    "rl.NomaPhaseEnv.random_state": ("rl", "NomaPhaseEnv.random_state"),
    "rl.QApproximator.train_step": ("rl", "QApproximator.train_step"),
    "rl.QApproximator.td_target": ("rl", "QApproximator.td_target"),
    "rl.QApproximator.forward": ("rl", "QApproximator.forward"),
    "oracle.brute_force_optimum": ("oracle", "brute_force_optimum"),
    "harness.optimize_scenario": ("harness", "optimize_scenario"),
    "harness.best_single_user_gain": ("harness", "best_single_user_gain"),
    "harness.write_csv": ("harness", "write_csv"),
    "harness.cmd": ("harness", "cmd_pipeline", "cmd_sweep_power", "cmd_compare_oma"),
    "cli.main": ("cli", "main"),
}


def _clipped(result):
    return {"clipped": int(bool(result[1]))}


# Counters read from a target's return value after each successful call.
OBSERVERS = {
    "noma.evaluate_configuration": lambda r: {"feasible": int(bool(r.feasible))},
    "clustering.cluster_users": lambda r: {
        "em_iters": int(r.n_iter),
        "converged": int(bool(r.converged)),
    },
    "mobility.RecurrentPredictor.train_step": _clipped,
    "rl.QApproximator.train_step": _clipped,
    "oracle.brute_force_optimum": lambda r: {
        "points": int(r.evaluated_count),
        "feasible": int(r.feasible_count),
    },
}


def _resolve(module_name: str, qualname: str):
    """The target object, or None when the package no longer defines it."""
    try:
        obj = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for part in qualname.split("."):
        holder = obj
        obj = vars(holder).get(part) if isinstance(holder, type) else getattr(holder, part, None)
        if obj is None:
            return None
    return obj


def _bindings(target):
    """Every (namespace owner, attribute name) in the package bound to ``target``."""
    found = []
    modules = [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    classes = []
    for module in modules:
        for attr, value in vars(module).items():
            if value is target:
                found.append((module, attr))
            if isinstance(value, type) and value.__module__.startswith(PACKAGE) and value not in classes:
                classes.append(value)
    for cls in classes:
        for attr, value in vars(cls).items():
            if value is target:
                found.append((cls, attr))
    return found


class Tracer:
    """Span recorder.  ``install()`` wraps the targets, ``uninstall()`` restores them."""

    def __init__(self, targets=None, observers=None):
        self.targets = dict(TARGETS if targets is None else targets)
        self.observers = dict(OBSERVERS if observers is None else observers)
        self.names = list(self.targets)
        self.absent: list[str] = []
        self.request = 0
        self._stack: list[int] = [-1]  # -1: the parent of a root span
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self.counters = {name: {} for name in self.names}
        self.errors = {name: {} for name in self.names}
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: str):
        """Return a pass-through wrapper of ``fn`` that records one span per call."""
        name_id = self.names.index(name)
        request = self.request
        observe = self.observers.get(name)
        counters = self.counters[name]
        errors = self.errors[name]
        stack = self._stack
        push, pop = stack.append, stack.pop
        add_name, add_parent = self._name.append, self._parent.append
        add_request, add_start = self._request.append, self._start.append
        add_end, ends = self._end.append, self._end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            add_name(name_id)
            add_parent(stack[-1])
            add_request(request)
            add_end(0.0)
            push(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                errors[kind] = errors.get(kind, 0) + 1
                raise
            finally:
                ends[idx] = clock()
                pop()
            if observe is not None:
                for key, n in observe(result).items():
                    counters[key] = counters.get(key, 0) + n
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for name, (module_name, *qualnames) in self.targets.items():
            present = False
            for qualname in qualnames:
                target = _resolve(module_name, qualname)
                if target is None:
                    continue
                present = True
                wrapper = self.wrap(target, name)
                for owner, attr in _bindings(target):
                    self._saved.append((owner, attr, target))
                    setattr(owner, attr, wrapper)
            if not present:
                self.absent.append(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self._request, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def summary(self) -> dict:
        """Per target: calls, inclusive and self seconds, counters, exceptions."""
        s = self.spans()
        calls, total, own = aggregate(s["name"], s["parent"], s["start"], s["end"], len(self.names))
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
                "counters": dict(self.counters[name]),
                "errors": dict(self.errors[name]),
                "absent": name in self.absent,
            }
            for i, name in enumerate(self.names)
        }


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the durations of its direct child spans."""
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    child = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    return duration - child


def aggregate(name, parent, start, end, n_names: int):
    """(calls, inclusive seconds, self seconds) per name id.

    Inclusive seconds sum every span of a name, which counts a recursive
    call twice; none of the traced targets recurses.
    """
    name = np.asarray(name, dtype=np.int64)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=duration, minlength=n_names)
    own = np.bincount(name, weights=self_times(parent, start, end), minlength=n_names)
    return calls, total, own
