"""Every module and function under ``src/repro`` has a real caller.

A module that only tests import is code no scenario, figure or example
runs.  The module guard follows imports from the entry points -- every
script under ``examples/``, ``benchmarks/`` and ``perfbench/``, plus
``repro.__main__`` -- and fails on any module they never reach.

Imports anywhere in a file count, function-level ones included.  A
package ``__init__`` is not a use of everything it re-exports: it
reaches only the names its own code uses (as ``campaigns.kinds`` does
for ``KINDS``) and the names a reached module imports from it.

The function guard looks inside live modules: every top-level function
and every non-dunder method of a top-level class must be named somewhere
in ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/`` outside its
own definition -- as a name, an attribute, an import, or a string
constant (``perfbench/layers.py`` patches methods by name).  Re-exports
are not uses: a package ``__init__``'s imports and any ``__all__``
listing are skipped.  The match is by bare name, so it errs towards
keeping code.  The only exceptions are :data:`TEST_ORACLES`: scalar
reference paths the tests pin batched code against.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import NamedTuple

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
_ENTRY_DIRS = ("examples", "benchmarks", "perfbench")

#: Functions only tests call, each mapped to the batched path it checks.
TEST_ORACLES = {
    "repro.physio.codec.WaveformCodec.encode_window":
        "repro.physio.codec.WaveformCodec.encode_batch",
    "repro.physio.codec.WaveformCodec.decode_window":
        "repro.physio.codec.WaveformCodec.decode_batch",
    "repro.physio.codec.WaveformCodec.encode_record":
        "repro.physio.codec.WaveformCodec.encode_batch",
    "repro.physio.ecg.ECGGenerator.sample_record":
        "repro.physio.ecg.ECGGenerator.sample_batch",
    "repro.physio.inference.AttackerInference.infer_record":
        "repro.physio.inference.AttackerInference.infer_batch",
    "repro.protocol.crc._crc16_ccitt_bitwise":
        "repro.protocol.crc.crc16_bits_batch",
    "repro.obs.export.validate_exposition":
        "repro.obs.export.render_exposition",
}


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


# ----------------------------------------------------------------------
# Functions
# ----------------------------------------------------------------------

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _definitions(tree: ast.Module):
    """``(qualified suffix, node)`` of each function the guard checks."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _reexports(tree: ast.Module, package: bool) -> set[int]:
    """Ids of the nodes that only re-export a name: every string of an
    ``__all__`` listing, and a package ``__init__``'s imported names."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                skipped.update(map(id, ast.walk(node.value)))
        elif package and isinstance(node, ast.alias):
            skipped.add(id(node))
    return skipped


def _mentions(tree: ast.Module, package: bool = False):
    """``(name, line)`` of every identifier the tree mentions, re-exports
    aside."""
    skipped = _reexports(tree, package)
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            parts = node.name.split(".") + [node.asname or ""]
            for part in parts:
                yield part, getattr(node, "lineno", 0)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED.fullmatch(node.value)
        ):
            for part in node.value.split("."):
                yield part, node.lineno


def unreferenced_functions(
    src: pathlib.Path, use_dirs: list[pathlib.Path]
) -> list[str]:
    """Functions under ``src`` no file under ``use_dirs`` names.

    A mention inside the function's own definition (recursion) does
    not count.  Names are module-qualified, e.g.
    ``repro.protocol.crc._crc16_ccitt_bitwise``.
    """
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for directory in use_dirs
        for path in sorted(directory.rglob("*.py"))
    }
    mentions: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _mentions(tree, path.name == "__init__.py"):
            mentions.setdefault(name, []).append((path, line))
    unreferenced = []
    for path, tree in trees.items():
        if not path.is_relative_to(src):
            continue
        module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for suffix, node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                where != path or line not in own
                for where, line in mentions.get(node.name, ())
            ):
                unreferenced.append(f"{module}.{suffix}")
    return unreferenced


def _use_dirs() -> list[pathlib.Path]:
    return [_SRC, *(_ROOT / directory for directory in _ENTRY_DIRS)]


def test_every_function_is_named_outside_its_definition():
    flagged = set(unreferenced_functions(_SRC / "repro", _use_dirs()))
    uncalled = sorted(flagged - set(TEST_ORACLES))
    assert not uncalled, f"functions no entry point names: {uncalled}"


def test_every_oracle_is_test_only_and_names_a_live_batched_path():
    # An oracle an entry point started calling, or one that was deleted,
    # is a stale entry; so is one whose batched path is gone.
    flagged = set(unreferenced_functions(_SRC / "repro", _use_dirs()))
    assert set(TEST_ORACLES) <= flagged
    defined = {
        f"{_module_name(path)}.{suffix}"
        for path in _MODULES.values()
        for suffix, _ in _definitions(ast.parse(path.read_text()))
    }
    assert set(TEST_ORACLES.values()) <= defined - flagged


def test_an_uncalled_function_fails_the_guard(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def uncalled():\n    return uncalled()\n\n\n"
        "class Box:\n"
        "    def __repr__(self):\n        return 'Box'\n\n"
        "    def patched(self):\n        return used()\n\n"
        "    def orphan(self):\n        return 2\n"
    )
    entry = tmp_path / "perfbench"
    entry.mkdir()
    (entry / "shim.py").write_text(
        "import pkg.mod\n\nPATCHES = [(pkg.mod.Box, 'patched')]\n"
    )
    flagged = unreferenced_functions(src, [src, entry])
    # Recursion is not a caller, dunders are exempt, and a string
    # constant naming a method (as perfbench patches by name) counts.
    assert flagged == ["pkg.mod.uncalled", "pkg.mod.Box.orphan"]


def test_a_reexported_uncalled_function_fails_the_guard(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(
        "__all__ = ['exported', 'used']\n\n\n"
        "def exported():\n    return 1\n\n\n"
        "def used():\n    return 2\n"
    )
    (src / "__init__.py").write_text(
        "from pkg.mod import exported, used\n\n"
        "__all__ = ['exported', 'used']\n\n"
        "DEFAULT = used()\n"
    )
    # The package's own call counts; its import and both ``__all__``
    # listings do not.
    assert unreferenced_functions(src, [src]) == ["pkg.mod.exported"]
