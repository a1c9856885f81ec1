"""Dead-code census: every ``repro`` module must be imported, and every
top-level function and class referenced, by a run path.

A run path is any file under ``src/``, ``benchmarks/``, ``examples/`` or
``perfbench/`` (its own tests excluded): the package, its benchmark
drivers, the examples CI runs, and the performance harness.  Tests do
not count — code only tests reach is code no run exercises.

Modules: ``from repro.pkg import name`` is resolved through the package
``__init__`` re-exports to the module that defines ``name``, so a
re-export alone keeps nothing alive.  ``__init__`` files themselves are
not importers.

Names: a top-level function or class is referenced when a run-path file
uses it — its own module's code outside its own body, or a file that
imports it (directly, aliased, or through re-exports) and uses the bound
name, or that reaches it as an attribute of an imported module.  Dunder
names (``__getattr__``) are hooks the interpreter calls.

Options: every keyword-only parameter with a default in ``src/repro``
needs a setter outside its own function — a ``name=`` keyword or a
``"name"`` string (a dict key such as a ``ScenarioCase`` override) in
``src/``, ``tests/``, ``benchmarks/``, ``examples/`` or ``perfbench/``.
An option nothing sets is a constant that says it is a knob: make it
one in its module.  Setters are matched by name, so this is a floor.

``ALLOWED_UNIMPORTED``, ``ALLOWED_UNREFERENCED`` and
``ALLOWED_UNSET_OPTIONS`` list the known exceptions.  An entry that no
longer exists, or that a run path now reaches (or code now sets), fails
the census too, so the lists only shrink.
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
}

ALLOWED_UNREFERENCED = {
    # Paper-equation references, kept next to the code they document.
    "repro.partitioning.batch_scaling.fit_alpha",  # Eq. 3's alpha fit
    "repro.scaling.decision.slo_feasible_stages",  # Eq. 12
}

# ``module.Function.param`` (``module.Class.method.param``) of keyword-only
# options that stay unset on purpose; none do.
ALLOWED_UNSET_OPTIONS: set[str] = set()
OPTION_SETTER_DIRS = ("src", "tests", "benchmarks", "examples", "perfbench")


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

    def defining_module(self, module: str, name: str) -> str | None:
        """The module whose top level defines ``module.name``, following
        package re-exports; None outside ``repro`` or for a submodule."""
        if module not in self.modules:
            return None
        if name in _top_level_names(self.modules[module]):
            return module
        if self.modules[module].name == "__init__.py":
            source = self._package_exports(module).get(name)
            if source is not None and source != module:
                return self.defining_module(source, name)
        return None

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


def _run_path_files(*, inits: bool = False) -> list[Path]:
    files = []
    for directory in RUN_PATH_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py" and not inits:
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


def _definitions(tree: ast.Module) -> list[ast.AST]:
    """Top-level functions and classes, dunder hooks excluded."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


_NAMES: dict[Path, frozenset[str]] = {}


def _top_level_names(path: Path) -> frozenset[str]:
    if path not in _NAMES:
        _NAMES[path] = frozenset(
            node.name for node in _definitions(ast.parse(path.read_text()))
        )
    return _NAMES[path]


def _dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def _file_references(
    path: Path, modules: dict[str, Path], resolver: _Resolver
) -> set[tuple[str, str]]:
    """``(defining module, name)`` pairs one run-path file uses."""
    tree = ast.parse(path.read_text(), str(path))
    # Local name -> ("module", dotted module) or ("name", (module, name)).
    bound: dict[str, tuple] = {}
    # A definition's uses of its own name (recursion, a class naming
    # itself) do not keep it alive.
    own_uses: set[int] = set()
    if path.is_relative_to(SRC):
        own = _module_name(path)
        for node in _definitions(tree):
            bound[node.name] = ("name", (own, node.name))
            own_uses.update(
                id(sub)
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and sub.id == node.name
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if not node.module.startswith("repro"):
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                child = f"{node.module}.{alias.name}"
                if child in modules:
                    bound[local] = ("module", child)
                else:
                    site = resolver.defining_module(node.module, alias.name)
                    if site is not None:
                        bound[local] = ("name", (site, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    if alias.asname:
                        bound[alias.asname] = ("module", alias.name)
                    else:
                        bound["repro"] = ("module", "repro")
    refs: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and id(node) not in own_uses:
            kind, target = bound.get(node.id, (None, None))
            if kind == "name":
                refs.add(target)
        elif isinstance(node, ast.Attribute):
            parts = _dotted(node.value)
            if parts is None or bound.get(parts[0], (None,))[0] != "module":
                continue
            module = ".".join([bound[parts[0]][1], *parts[1:]])
            site = resolver.defining_module(module, node.attr)
            if site is not None:
                refs.add((site, node.attr))
    return refs


def name_census(modules: dict[str, Path]) -> tuple[list[str], list[str]]:
    """``(unreferenced, stale_allowlist_entries)`` over top-level names,
    as dotted ``module.name`` strings, both sorted."""
    defined = {
        f"{module}.{name}"
        for module, path in modules.items()
        for name in _top_level_names(path)
    }
    resolver = _Resolver(modules)
    referenced = {
        f"{module}.{name}"
        for path in _run_path_files(inits=True)
        for module, name in _file_references(path, modules, resolver)
    }
    dead = defined - referenced
    return sorted(dead - ALLOWED_UNREFERENCED), sorted(ALLOWED_UNREFERENCED - dead)


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



def test_every_top_level_name_is_referenced_by_a_run_path():
    unreferenced, _ = name_census(_modules())
    assert unreferenced == [], (
        f"no run path references {unreferenced}: delete them, or use them "
        "from src/, benchmarks/, examples/ or perfbench/"
    )


def test_name_allowlist_holds_only_live_dead_names():
    _, stale = name_census(_modules())
    assert stale == [], (
        f"allowlist entries {stale} are missing or now referenced: remove "
        "them from ALLOWED_UNREFERENCED"
    )


def _defaulted_options(modules: dict[str, Path]):
    """Yield ``(dotted name, path, function node, parameter)`` for every
    keyword-only parameter with a default under ``src/repro``."""
    for module, path in modules.items():
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(module, tree.body)]
        while scopes:
            prefix, body = scopes.pop()
            for node in body:
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{prefix}.{node.name}", node.body))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            yield f"{prefix}.{node.name}.{arg.arg}", path, node, arg.arg
                    scopes.append((f"{prefix}.{node.name}", node.body))


def _option_setters() -> dict[str, list[tuple[Path, int]]]:
    """Parameter name -> ``(file, line)`` of every ``name=`` keyword and
    every string constant equal to a name."""
    setters: dict[str, list[tuple[Path, int]]] = {}
    for directory in OPTION_SETTER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    setters.setdefault(node.arg, []).append((path, node.lineno))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    setters.setdefault(node.value, []).append((path, node.lineno))
    return setters


def option_census(modules: dict[str, Path]) -> tuple[list[str], list[str]]:
    """``(unset options, stale allowlist entries)``, both sorted."""
    setters = _option_setters()
    unset = {
        name
        for name, path, function, param in _defaulted_options(modules)
        if not any(
            site != path or not function.lineno <= line <= function.end_lineno
            for site, line in setters.get(param, ())
        )
    }
    return sorted(unset - ALLOWED_UNSET_OPTIONS), sorted(ALLOWED_UNSET_OPTIONS - unset)


def test_every_keyword_option_is_set_somewhere():
    unset, _ = option_census(_modules())
    assert unset == [], (
        f"nothing sets the keyword-only options {unset}: make each a "
        "constant in its module, or pass it from src/, tests/, benchmarks/, "
        "examples/ or perfbench/"
    )


def test_option_allowlist_holds_only_unset_options():
    _, stale = option_census(_modules())
    assert stale == [], (
        f"allowlist entries {stale} are missing or now set: remove them "
        "from ALLOWED_UNSET_OPTIONS"
    )
