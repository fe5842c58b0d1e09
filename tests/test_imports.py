"""The package imports only the standard library and numpy.

The runtime dependency is numpy alone; scipy is a test-only reference.  This
parses every module of ``src/irsnoma_lab`` and lists each import whose
top-level name is neither of those and not the package itself (relative
imports included), and checks that importing the CLI loads no scipy and
builds no argument parser and no cached constant.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "irsnoma_lab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "irsnoma_lab"}


def imported_roots(tree):
    """(line, top-level module) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    outside = [
        f"{path.name}:{line}: {root}"
        for path in modules
        for line, root in imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in ALLOWED
    ]
    assert not outside, "imports outside stdlib and numpy:\n" + "\n".join(outside)


def test_cli_import_loads_no_scipy():
    # A fresh interpreter: this test session has scipy loaded already.  The
    # import builds no parser either; the first ``main`` call does.
    code = (
        "import sys, irsnoma_lab.cli as cli; "
        "print('scipy' in sys.modules, cli.build_parser.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False 0"


def test_cli_import_builds_no_cached_constant():
    # The constants cached on first use (the default region, the split grid,
    # the phase block and the phase table) stay unbuilt until a command runs.
    caches = [
        "channel.default_region", "channel.phase_coefficients",
        "oracle.alpha_grid", "oracle.phase_index_block",
    ]
    code = (
        "import irsnoma_lab.cli; from irsnoma_lab import channel, oracle; "
        f"print([eval(name).cache_info().currsize for name in {caches!r}])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([0] * len(caches))
