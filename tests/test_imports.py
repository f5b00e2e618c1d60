"""No module of the package imports a private SciPy module."""

import ast
from pathlib import Path

import mtlab

PACKAGE = Path(mtlab.__file__).parent


def _scipy_imports(path):
    """(line, dotted path) of every SciPy import in ``path``; a ``from``
    import contributes the module path and each imported name."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        yield from ((node.lineno, p) for p in paths if p.split(".")[0] == "scipy")


def test_no_private_scipy_imports():
    # a private module (any dotted part starting with "_") may change or
    # go between SciPy releases; what the package needs from one it writes out
    private = [f"{path.name}:{line} {dotted}"
               for path in sorted(PACKAGE.rglob("*.py"))
               for line, dotted in _scipy_imports(path)
               if any(part.startswith("_") for part in dotted.split("."))]
    assert not private, private
