"""Self-tests of the benchmark's own logic.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

import json
import os
import re
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK_JSON = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")


def test_self_time_on_a_nested_call_tree():
    # root [0, 10] -> a [1, 4] -> c [2, 3]
    #              -> b [5, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    np.testing.assert_allclose(tracer.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])
    calls, total, own = tracer.aggregate([0, 1, 1, 1], parent, start, end, 3)
    assert calls.tolist() == [1, 3, 0]
    np.testing.assert_allclose(total, [10.0, 8.0, 0.0])
    np.testing.assert_allclose(own, [3.0, 7.0, 0.0])


def _fake_package(monkeypatch):
    """A two-module stand-in for the package, with an alias and a method."""

    class Failure(ValueError):
        pass

    def leaf(x):
        if x < 0:
            raise Failure("negative")
        return x * 2

    def outer(x):
        return fake_b.leaf_alias(x) + 1

    class Box:
        def double(self, x):
            return fake.leaf(x)

    fake = types.ModuleType(f"{tracer.PACKAGE}.fake")
    fake.leaf, fake.outer, fake.Box = leaf, outer, Box
    Box.__module__ = fake.__name__
    fake_b = types.ModuleType(f"{tracer.PACKAGE}.fake_b")
    fake_b.leaf_alias = leaf
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    monkeypatch.setitem(sys.modules, fake_b.__name__, fake_b)
    targets = {
        "fake.leaf": ("fake", "leaf"),
        "fake.outer": ("fake", "outer"),
        "fake.Box.double": ("fake", "Box.double"),
        "fake.gone": ("fake", "deleted_function"),
    }
    observers = {"fake.leaf": lambda r: {"big": int(r > 10)}}
    return fake, fake_b, Failure, tracer.Tracer(targets, observers)


def test_wrappers_pass_values_and_exceptions_through(monkeypatch):
    fake, fake_b, Failure, t = _fake_package(monkeypatch)
    original = fake.leaf
    t.install()
    try:
        assert fake_b.leaf_alias is fake.leaf is not original  # every binding wrapped
        assert fake.outer(3) == 7
        assert fake.Box().double(8) == 16
        with pytest.raises(Failure, match="negative"):
            fake.leaf(-1)
    finally:
        t.uninstall()
    assert fake.leaf is original and fake_b.leaf_alias is original
    assert fake.outer(3) == 7  # untraced after uninstall: no new spans
    summary = t.summary()
    assert summary["fake.leaf"]["calls"] == 3
    assert summary["fake.outer"]["calls"] == 1
    assert summary["fake.Box.double"]["calls"] == 1
    assert summary["fake.leaf"]["errors"] == {"Failure": 1}
    assert summary["fake.leaf"]["counters"] == {"big": 1}
    assert summary["fake.gone"]["absent"] and summary["fake.gone"]["calls"] == 0
    spans = t.spans()
    outer_id = t.names.index("fake.outer")
    (outer_idx,) = np.flatnonzero(spans["name"] == outer_id)
    assert spans["parent"][outer_idx + 1] == outer_idx  # leaf nested under outer


def test_install_wraps_and_restores_the_package():
    cli = pytest.importorskip("irsnoma_lab.cli")
    harness = pytest.importorskip("irsnoma_lab.harness")
    main, cmd = cli.main, harness.cmd_pipeline
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main is not main and cli.cmd_pipeline is harness.cmd_pipeline is not cmd
    finally:
        t.uninstall()
    assert cli.main is main and cli.cmd_pipeline is harness.cmd_pipeline is cmd
    # A target a later refactor deletes is reported as absent, not raised.
    assert set(t.absent) <= set(tracer.TARGETS)


def _metric_names(trace_metrics: bool) -> dict[str, str]:
    if trace_metrics:
        names = tracer.TARGETS
        summary = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": {}, "errors": {}, "absent": False}
            for n in names
        }
        return {k: u for k, (_, u) in run.per_layer_metrics(summary, 0.0).items()}
    return dict(run.END_TO_END_UNITS)


@pytest.mark.parametrize("trace_metrics", [False, True])
def test_metric_names_follow_the_grammar_and_match_benchmark_json(trace_metrics):
    emitted = _metric_names(trace_metrics)
    for name, unit in emitted.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), unit
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace_metrics else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == emitted


def test_metric_grammar_rejects_bad_names():
    for bad in ("", "a b", "noma/evaluate", "x:y"):
        assert not NAME.fullmatch(bad)


def test_seed_stream_is_reproducible_and_cycles_the_pool():
    pool = range(6)
    first = run.seed_stream("pipeline", 7, pool)
    again = run.seed_stream("pipeline", 7, pool)
    drawn = [next(first) for _ in range(12)]
    assert drawn == [next(again) for _ in range(12)]
    assert sorted(drawn[:6]) == list(pool) and drawn[6:] == drawn[:6]
    other = run.seed_stream("pipeline", 8, pool)
    assert [next(other) for _ in range(6)] != drawn[:6]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reference_matches_the_workload_config(workload):
    reference = run.load_reference(workload)
    assert len(reference) >= 10
    for rows in reference.values():
        assert all(len(r) == 1 + len(run.WORKLOADS[workload].rate_columns) for r in rows)


def test_correctness_gate_flags_each_failure_kind():
    wl = run.WORKLOADS["oma-oracle"]
    want = [[20.0, 1.0, 0.5], [40.0, 2.0, 1.0], [60.0, 3.0, 1.5]]

    def csv(rows, header=run.SCHEMA_HEADER):
        lines = [header, "power_dbm,noma_rate,oma_rate,gain_percent"]
        lines += [f"{p},{n},{o},0.0" for p, n, o in rows]
        return ("\n".join(lines) + "\n").encode()

    ok = {"code": 0}
    assert run.check_call(wl, ok, {wl.csv: csv(want)}, want) == ([], want)
    cases = [
        ({"code": 2}, {wl.csv: csv(want)}),
        (ok, {wl.csv: csv(want), "curves/c.csv": b"seed,slot\n"}),
        (ok, {wl.csv: csv(want, header="# other v9")}),
        (ok, {wl.csv: csv(want[:2])}),
        (ok, {wl.csv: csv([[20.0, float("nan"), 0.5], *want[1:]])}),
        (ok, {wl.csv: csv([[20.0, -1.0, 0.5], *want[1:]])}),
        (ok, {wl.csv: csv([[20.0, 1.0 + 2e-9, 0.5], *want[1:]])}),
        (ok, {}),
    ]
    for reply, files in cases:
        problems, _ = run.check_call(wl, reply, files, want)
        assert problems, (reply, files)
    inexact = run.WORKLOADS["power-dqn"]
    dqn_want = [[p, 1.0] for p in (20.0, 30.0)]
    dqn_csv = (run.SCHEMA_HEADER + "\npower_dbm,algorithm,seed,sum_rate\n20.0,dqn,1,1.5\n30.0,dqn,1,0.5\n").encode()
    assert run.check_call(inexact, ok, {inexact.csv: dqn_csv}, dqn_want)[0] == []
