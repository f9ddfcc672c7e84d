"""Import hygiene: no module of the package imports another module's
private (single-underscore) name."""

import ast
from pathlib import Path

import modcmdp

PACKAGE = Path(modcmdp.__file__).parent


def private_relative_imports(source: str) -> list[str]:
    """Names a relative import in ``source`` takes that start with one
    underscore; dunders such as ``__version__`` are allowed."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.startswith("__"):
                    out.append(f"line {node.lineno}: {name}")
    return out


def test_the_rule_flags_private_names_only():
    source = "from .vertices import _finite_cmdp, solve\nfrom . import __version__\n"
    assert private_relative_imports(source) == ["line 1: _finite_cmdp"]
    assert private_relative_imports("from numpy import _private\n") == []


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    bad = {
        p.name: found
        for p in modules
        if (found := private_relative_imports(p.read_text()))
    }
    assert bad == {}
