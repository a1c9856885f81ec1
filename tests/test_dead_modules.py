"""Dead-module census: every ``repro`` module must be imported by a run path.

A run path is any non-``__init__`` file under ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` (its own tests excluded): the package,
its benchmark drivers, the examples CI runs, and the performance
harness.  Tests do not count — a module only tests import is code no run
exercises.  ``from repro.pkg import name`` is resolved through the
package ``__init__`` re-exports to the module that defines ``name``, so
a re-export alone keeps nothing alive.

``ALLOWED_UNIMPORTED`` lists the known exceptions.  An entry that no
longer exists, or that a run path now imports, fails the census too, so
the list only shrinks.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_PATH_DIRS = ("src", "benchmarks", "examples", "perfbench")
EXCLUDED_DIRS = (ROOT / "perfbench" / "tests",)

ALLOWED_UNIMPORTED = {
    # The ``python -m repro`` entry point: run by the interpreter, never
    # imported.
    "repro.__main__",
    # Only its tests import it; queued for deletion (ROADMAP item 7).
    "repro.metrics.timeline",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _modules() -> dict[str, Path]:
    """Every module and package under ``src/repro``, by dotted name."""
    return {
        _module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))
    }


def _imports(tree: ast.AST):
    """Yield ``(module, name)`` pairs; ``name`` is None for ``import m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                yield node.module, alias.name


class _Resolver:
    def __init__(self, modules: dict[str, Path]):
        self.modules = modules
        self._reexports: dict[str, dict[str, str]] = {}

    def _package_exports(self, package: str) -> dict[str, str]:
        """Names a package ``__init__`` binds by import -> source module."""
        if package not in self._reexports:
            tree = ast.parse(self.modules[package].read_text())
            self._reexports[package] = {
                name: module
                for module, name in _imports(tree)
                if name is not None and module.startswith("repro")
            }
        return self._reexports[package]

    def resolve(self, module: str, name: str | None) -> set[str]:
        """The modules an import statement reaches (no ``__init__``s)."""
        if module not in self.modules:
            return set()
        reached = set()
        if self.modules[module].name != "__init__.py":
            reached.add(module)
        if name is None:
            return reached
        child = f"{module}.{name}"
        if child in self.modules:
            reached |= self.resolve(child, None)
        elif self.modules[module].name == "__init__.py":
            source = self._package_exports(module).get(name)
            if source is not None and source != module:
                reached |= self.resolve(source, name)
        return reached


def _run_path_files() -> list[Path]:
    files = []
    for directory in RUN_PATH_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            if any(path.is_relative_to(excluded) for excluded in EXCLUDED_DIRS):
                continue
            files.append(path)
    return files


def imported_modules(modules: dict[str, Path]) -> set[str]:
    resolver = _Resolver(modules)
    reached: set[str] = set()
    for path in _run_path_files():
        for module, name in _imports(ast.parse(path.read_text(), str(path))):
            if module == "repro" or module.startswith("repro."):
                reached |= resolver.resolve(module, name)
    return reached


def census(modules: dict[str, Path]) -> tuple[list[str], list[str]]:
    """``(unimported, stale_allowlist_entries)``, both sorted."""
    plain = {name for name, path in modules.items() if path.name != "__init__.py"}
    reached = imported_modules(modules)
    dead = plain - reached
    unimported = sorted(dead - ALLOWED_UNIMPORTED)
    stale = sorted(ALLOWED_UNIMPORTED - dead)
    return unimported, stale


def test_every_module_is_imported_by_a_run_path():
    unimported, _ = census(_modules())
    assert unimported == [], (
        f"no run path imports {unimported}: delete the module, or import "
        "it from src/, benchmarks/, examples/ or perfbench/"
    )


def test_allowlist_holds_only_live_dead_modules():
    _, stale = census(_modules())
    assert stale == [], (
        f"allowlist entries {stale} are missing or now imported: remove "
        "them from ALLOWED_UNIMPORTED"
    )

