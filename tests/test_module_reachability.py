"""Every module under ``src/repro`` is reached from a real entry point.

A module that only tests import is code no scenario, figure or example
runs.  This guard follows imports from the entry points -- every script
under ``examples/``, ``benchmarks/`` and ``perfbench/``, plus
``repro.__main__`` -- and fails on any module they never reach.

Imports anywhere in a file count, function-level ones included.  A
package ``__init__`` is not a use of everything it re-exports: it
reaches only the names its own code uses (as ``campaigns.kinds`` does
for ``KINDS``) and the names a reached module imports from it.
"""

from __future__ import annotations

import ast
import pathlib
from typing import NamedTuple

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
_ENTRY_DIRS = ("examples", "benchmarks", "perfbench")


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(_SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


_MODULES = {_module_name(p): p for p in (_SRC / "repro").rglob("*.py")}


def _is_package(name: str) -> bool:
    return _MODULES[name].name == "__init__.py"


class _Import(NamedTuple):
    node: ast.AST
    module: str
    name: str | None  # None for ``import a.b``
    bound: str  # the local name the import binds


def _imports(tree: ast.AST, package: str) -> list[_Import]:
    """Every import in ``tree``; relative ones resolve against ``package``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                found.append(_Import(node, alias.name, None, bound))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parent = parts[: len(parts) - node.level + 1]
                base = ".".join([*parent, base] if base else parent)
            for alias in node.names:
                found.append(
                    _Import(node, base, alias.name, alias.asname or alias.name)
                )
    return found


def reachable_modules(
    entry_files: list[pathlib.Path], entry_modules: tuple[str, ...] = ()
) -> set[str]:
    """The ``repro`` modules the entry files and modules reach."""
    reached: set[str] = set()
    seen: set[tuple[str, str | None]] = set()
    todo = [(module, None) for module in entry_modules]

    def follow(imports) -> None:
        todo.extend((entry.module, entry.name) for entry in imports)

    for path in entry_files:
        follow(_imports(ast.parse(path.read_text(), str(path)), ""))

    while todo:
        module, name = todo.pop()
        if module not in _MODULES:
            continue
        package = _is_package(module)
        if not package:
            name = None  # a plain module runs whole, whatever is taken from it
        if (module, name) in seen:
            continue
        seen.add((module, name))
        # Importing ``a.b.c`` runs the ``a`` and ``a.b`` packages' own code.
        parts = module.split(".")
        todo.extend((".".join(parts[:i]), None) for i in range(1, len(parts)))
        tree = ast.parse(_MODULES[module].read_text(), str(_MODULES[module]))
        imports = _imports(tree, module if package else module.rpartition(".")[0])
        if not package:
            reached.add(module)
            follow(imports)
            continue
        if name is not None:
            # A name taken from the package: a submodule, or its binding there.
            todo.append((f"{module}.{name}", None))
            follow(entry for entry in imports if entry.bound == name)
        if module not in reached:
            reached.add(module)
            # The package's own code: function-level imports, and the
            # module-level imports whose bound name that code loads.
            top_level = {id(node) for node in tree.body}
            used = {
                node.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            follow(
                entry
                for entry in imports
                if id(entry.node) not in top_level or entry.bound in used
            )
    return reached


def _entry_files() -> list[pathlib.Path]:
    return [
        path
        for directory in _ENTRY_DIRS
        for path in sorted((_ROOT / directory).rglob("*.py"))
    ]


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(
        name.removeprefix("repro.")
        for name in set(_MODULES)
        - reachable_modules(_entry_files(), ("repro.__main__",))
    )
    assert not unreached, f"modules no entry point reaches: {unreached}"


def test_a_reexport_alone_is_not_use(tmp_path):
    # ``repro.phy``'s ``__all__`` lists many names; importing one of them
    # from the package reaches that name's module only.
    entry = tmp_path / "entry.py"
    entry.write_text("from repro.phy import FSKConfig\n")
    reached = reachable_modules([entry])
    assert {"repro", "repro.phy", "repro.phy.fsk"} <= reached
    assert "repro.phy.gmsk" not in reached
    assert "repro.campaigns.cli" not in reached


def test_function_level_imports_count(tmp_path):
    entry = tmp_path / "entry.py"
    entry.write_text("def main():\n    from repro.phy.gmsk import GMSKModulator\n")
    assert "repro.phy.gmsk" in reachable_modules([entry])
