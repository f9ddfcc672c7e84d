"""Import hygiene: no module of the package uses another module's
private (single-underscore) name, whether imported by name or read as
an attribute of the imported module; no module but the package's
``__init__`` imports a name it never uses; every exported name
resolves, once; and every module is imported from the package or its
console script."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import modcmdp

PACKAGE = Path(modcmdp.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_names(source: str) -> list[str]:
    """Private names ``source`` takes from the package: names a relative
    import takes that start with one underscore, and such attributes
    read off a module bound by a relative import (``from . import lp as
    lpmod`` makes ``lpmod._solve_highs`` one). Dunders such as
    ``__version__`` are allowed."""
    tree = ast.parse(source)
    out, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if _private(alias.name):
                    out.append(f"line {node.lineno}: {alias.name}")
                if not node.module:  # from . import lp: a package module
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            out.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return out


def test_the_rule_flags_private_names_only():
    source = "from .vertices import _finite_cmdp, solve\nfrom . import __version__\n"
    assert private_names(source) == ["line 1: _finite_cmdp"]
    assert private_names("from numpy import _private\n") == []
    source = "from . import lp as lpmod\nx = lpmod._solve_highs(p)\ny = lpmod.solve_lp(p)\n"
    assert private_names(source) == ["line 2: lpmod._solve_highs"]
    source = "from . import lp\nimport numpy as np\nlp.__name__, np._core, lp.solve_lp\n"
    assert private_names(source) == []


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    bad = {
        p.name: found
        for p in modules
        if (found := private_names(p.read_text()))
    }
    assert bad == {}


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and never reads: the name each import
    binds (its ``as`` name, or the first part of a dotted module) that no
    ``Name`` node of the module holds; ``from __future__`` imports bind
    nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_the_rule_flags_unused_imports_only():
    source = ("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
              "from .lp import column_entries, solve_lp\nfrom dataclasses import replace\n"
              "x: np.ndarray = solve_lp(os.path.sep)\n")
    assert unused_imports(source) == ["line 4: column_entries", "line 5: replace"]


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports names to export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    bad = {
        p.name: found
        for p in modules
        if (found := unused_imports(p.read_text()))
    }
    assert bad == {}


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    """``import modcmdp`` stays cheap: ``scipy.optimize``, which the first
    LP loads, takes about 0.4 s to import, so no module may import it at
    import time."""
    code = "import sys, modcmdp; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_module_loads_the_highs_binding_at_import():
    """Every module of the package imports without ``scipy.optimize`` or
    its HiGHS binding: they load with the first LP, so that the import,
    and the benchmark's set-up time, do not pay for them."""
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    code = ("import importlib, sys\n"
            f"for name in {names!r}: importlib.import_module('modcmdp.' + name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ``perfbench/spans.py`` imports ``modcmdp.extend`` by name when it
# instruments the package; the module holds nothing else
IMPORTED_BY_NAME_ONLY = {"extend"}


def relative_imports(source: str) -> set[str]:
    """The package modules a module's relative imports name: ``x`` of
    ``from .x import y`` and ``a`` of ``from . import a``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_every_export_resolves_once():
    names = modcmdp.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(modcmdp, n)] == []


def test_every_module_is_imported():
    # the roots: the package and its console script (modcmdp.cli:main)
    files = {p.stem: p for p in PACKAGE.glob("*.py")}
    seen, todo = set(), ["__init__", "cli"]
    while todo:
        name = todo.pop()
        if name in seen or name not in files:
            continue
        seen.add(name)
        todo.extend(relative_imports(files[name].read_text()))
    assert sorted(set(files) - seen) == sorted(IMPORTED_BY_NAME_ONLY)
    for name in IMPORTED_BY_NAME_ONLY:
        body = ast.parse(files[name].read_text()).body
        assert len(body) == 1 and isinstance(body[0].value, ast.Constant), name
