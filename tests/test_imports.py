"""The package imports only the standard library, numpy and scipy.

Runtime dependencies stay at numpy + scipy.  This parses every module of
``src/irsnoma_lab`` and lists each import whose top-level name is none of
those and not the package itself (relative imports included).
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "irsnoma_lab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "irsnoma_lab"}


def imported_roots(tree):
    """(line, top-level module) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_numpy_and_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    outside = [
        f"{path.name}:{line}: {root}"
        for path in modules
        for line, root in imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in ALLOWED
    ]
    assert not outside, "imports outside stdlib, numpy and scipy:\n" + "\n".join(outside)
