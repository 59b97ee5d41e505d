"""Imports: importing the CLI must not pull in ``dataclasses``,
``importlib.resources`` or the source-introspection modules they import, no
module of the repository imports a name it never uses, and each package module
imports only the modules above it in the README's module table.

The cold-start import runs in a fresh ``python -S`` process, so only the
package's own imports count, not the environment's ``.pth`` files.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules a cold start of the CLI leaves out on every supported Python.
SKIPPED = ("dataclasses", "importlib.resources", "inspect", "ast", "dis", "tokenize")


def test_cli_import_skips_dataclasses_and_introspection():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import fano95.cli, sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = set(done.stdout.split())
    assert "fano95.cli" in loaded
    assert sorted(m for m in SKIPPED if m in loaded) == []


def _module_imports(tree):
    """(line, bound name) of each import at module level, in ``if`` and ``try``
    blocks too; ``from __future__`` binds nothing."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_unused_module_level_import():
    # A name counts as used when the module reads it or lists it in __all__.
    unused = []
    for folder in ("src/fano95", "tests", "demos", "ci"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:
                if isinstance(node, ast.Assign) and "__all__" in {
                        getattr(t, "id", None) for t in node.targets}:
                    used.update(ast.literal_eval(node.value))
            unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                       for line, name in _module_imports(tree) if name not in used]
    assert unused == []


def test_star_import_binds_each_public_name_once():
    import fano95

    namespace = {}
    exec("from fano95 import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(fano95.__all__)
    assert len(fano95.__all__) == len(set(fano95.__all__))


def _runtime_relative_imports(tree):
    """The package modules that a module's module-level relative imports name,
    in ``if`` and ``try`` blocks too, but not under ``if TYPE_CHECKING:``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            stack.extend(node.orelse)
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ImportFrom) and node.level:
            yield from [node.module] if node.module else (a.name for a in node.names)


def test_modules_import_only_the_rows_above_them_in_the_readme_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    order = re.findall(r"^\| `fano95\.(\w+)` ", readme, re.MULTILINE)
    package = SRC / "fano95"
    modules = sorted(p.stem for p in package.glob("*.py"))
    assert sorted(order) == [m for m in modules if m not in ("__init__", "__main__")]
    wrong = []
    for row, name in enumerate(order):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        wrong += [f"{name} imports {target}" for target in _runtime_relative_imports(tree)
                  if target not in order[:row]]
    assert wrong == []
