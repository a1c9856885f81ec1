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
needs a setter outside its own function in ``src/``, ``tests/``,
``benchmarks/``, ``examples/`` or ``perfbench/``.  A ``name=`` keyword
sets only its callee's option: ``Name(...)`` sets ``Name.__init__``
(through inherited and ``**kwargs``-forwarding constructors), ``f(...)``
and ``x.f(...)`` any function named ``f``.  Keywords that travel through
a ``**kwargs``-forwarding entry point, and ``"name"`` strings (dict keys
such as a ``ScenarioCase`` override), set the options of the callees
``KWARGS_FORWARDERS`` lists for it.  An option nothing sets is a
constant that says it is a knob: make it one in its module.  Callees
are matched by name, not by type, so this is still a floor.

``ALLOWED_UNIMPORTED``, ``ALLOWED_UNREFERENCED``,
``ALLOWED_UNSET_OPTIONS`` and ``KWARGS_FORWARDERS`` list the known
exceptions.  An entry that no longer exists, or that a run path now
reaches (or code now sets, or no option needs), fails the census too,
so the lists only shrink.
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

# ``**kwargs``-forwarding entry points, ``module.function`` -> the callees
# its forwarding call may reach (a class stands for its constructor and
# every subclass's).  Their keywords and the ``"name"`` strings feeding
# them are resolved against these callees only; see ``_option_setters``.
KWARGS_FORWARDERS: dict[str, tuple[str, ...]] = {
    # ``row.system(...)``: any system of the registry.
    "repro.experiments.systems.build_system": ("ServingSystem",),
    # ``self.factory.deploy(...)``.
    "repro.core.serving.ServingSystem._deploy": ("deploy",),
    # ``gate.cells(...)``: the policy gates' cells.
    "repro.cli._run_gate": ("qos_run", "coldstart_run"),
}
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


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _functions(modules: dict[str, Path]):
    """Yield ``(dotted name, path, function node, owner)`` for every
    function under ``src/repro``; ``owner`` is the class a method is
    defined in, None elsewhere."""
    for module, path in modules.items():
        scopes = [(module, _parse(path).body, None)]
        while scopes:
            prefix, body, owner = scopes.pop()
            for node in body:
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{prefix}.{node.name}", node.body, node.name))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{prefix}.{node.name}", path, node, owner
                    scopes.append((f"{prefix}.{node.name}", node.body, None))


def _defaulted_options(modules: dict[str, Path]):
    """Yield ``(dotted name, path, function node, parameter, owner)`` for
    every keyword-only parameter with a default under ``src/repro``."""
    for dotted, path, node, owner in _functions(modules):
        args = node.args
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{dotted}.{arg.arg}", path, node, arg.arg, owner


def _named(function: ast.AST) -> set[str]:
    args = function.args
    return {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}


def _splats(node: ast.AST) -> bool:
    """Whether ``node`` makes a call that splats ``**`` keywords."""
    return any(
        isinstance(call, ast.Call) and any(k.arg is None for k in call.keywords)
        for call in ast.walk(node)
    )


class _Callees:
    """Resolves a keyword to the options it sets, each as ``(class,
    "__init__", name)`` for a constructor or ``(None, function, name)``
    for any function of that name."""

    def __init__(self, modules: dict[str, Path]):
        # Class name -> (base names, __init__ or None), per definition.
        self.classes: dict[str, list[tuple[list[str], ast.AST | None]]] = {}
        for path in modules.values():
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.ClassDef):
                    init = next(
                        (f for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name == "__init__"),
                        None,
                    )
                    bases = [_dotted(base) for base in node.bases]
                    self.classes.setdefault(node.name, []).append(
                        ([b[-1] for b in bases if b], init)
                    )
        self.children: dict[str, list[str]] = {}
        for cls in self.classes:
            for base in self.bases(cls):
                self.children.setdefault(base, []).append(cls)
        self._reach: dict[tuple[str, str], set[tuple]] = {}

    def bases(self, cls: str) -> list[str]:
        return [base for bases, _ in self.classes.get(cls, ()) for base in bases]

    def constructor(self, cls: str, kw: str) -> set[tuple]:
        """``cls(kw=...)`` sets the ``__init__`` that names ``kw``, found up
        the bases through inherited and ``**kwargs``-forwarding ones."""
        found: set[tuple] = set()
        for bases, init in self.classes.get(cls, ()):
            if init is not None:
                if kw in _named(init):
                    found.add((cls, "__init__", kw))
                    continue
                if init.args.kwarg is None:
                    continue
            for base in bases:
                found |= self.constructor(base, kw)
        return found

    def callee(self, name: str, kw: str) -> set[tuple]:
        if name in self.classes:
            return self.constructor(name, kw)
        return {(None, name, kw)}

    def reach(self, forwarder: str, kw: str) -> set[tuple]:
        """What ``kw`` sets through a forwarder's ``**kwargs``: a class
        stands for its constructor and every subclass's."""
        if (forwarder, kw) in self._reach:
            return self._reach[forwarder, kw]
        found: set[tuple] = set()
        for name in KWARGS_FORWARDERS[forwarder]:
            if name not in self.classes:
                found.add((None, name, kw))
                continue
            family, frontier = {name}, [name]
            while frontier:
                parent = frontier.pop()
                for child in self.children.get(parent, ()):
                    if child not in family:
                        family.add(child)
                        frontier.append(child)
            for cls in family:
                found |= self.constructor(cls, kw)
        self._reach[forwarder, kw] = found
        return found


class _SetterScan(ast.NodeVisitor):
    """Records, for one file, the options its keywords and strings set,
    each with the forwarder it travelled through (None: set directly)."""

    def __init__(self, path: Path, scope: list[str], callees: _Callees,
                 forwarders: dict[str, set[str]], setters: dict):
        self.path, self.scope, self.callees = path, scope, callees
        self.forwarders, self.setters = forwarders, setters
        self.by_name = {entry.rsplit(".", 1)[1]: entry for entry in forwarders}
        self.classes: list[str] = []

    def add(self, options: set[tuple], line: int, via: str | None = None) -> None:
        for option in options:
            self.setters.setdefault(option, []).append((self.path, line, via))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.visit_FunctionDef(node)  # a class is a scope of dotted names too
        self.classes.pop()

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            for entry in self.forwarders:
                self.add(self.callees.reach(entry, node.value), node.lineno, entry)

    def visit_Call(self, node: ast.Call) -> None:
        func, cls = node.func, self.classes[-1] if self.classes else None
        here = ".".join(self.scope)
        splat = here in self.forwarders and any(k.arg is None for k in node.keywords)
        for keyword in node.keywords:
            kw, line = keyword.arg, keyword.lineno
            if kw is None:
                continue
            if splat:
                self.add(self.callees.reach(here, kw), line, here)
            if isinstance(func, ast.Name):
                name = cls if func.id == "cls" and cls else func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
                base = func.value
                if (isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
                        and base.func.id == "super" and cls):
                    for parent in self.callees.bases(cls):
                        self.add(self.callees.constructor(parent, kw), line)
                    continue
            else:
                continue
            self.add(self.callees.callee(name, kw), line)
            entry = self.by_name.get(name)
            if entry is not None and kw not in self.forwarders[entry]:
                self.add(self.callees.reach(entry, kw), line, entry)
        self.generic_visit(node)


def _option_setters(modules: dict[str, Path]) -> dict:
    """``(owner, function, parameter)`` -> ``(file, line, forwarder)`` of
    each setter, with ``owner`` None except for an ``__init__``.

    A keyword sets its callee's options: ``Name(...)`` sets
    ``Name.__init__`` (``cls(...)`` and ``super().__init__(...)`` resolve
    from the enclosing class), ``f(...)`` and ``x.f(...)`` any function
    named ``f``.  Through a ``KWARGS_FORWARDERS`` entry point, a keyword
    it does not name, a keyword at its ``**``-splatting call, and any
    ``"name"`` string (the dict keys such calls are fed from) reach its
    callees.
    """
    callees = _Callees(modules)
    functions = {dotted: node for dotted, _, node, _ in _functions(modules)}
    named = {
        entry: _named(functions[entry])
        for entry in KWARGS_FORWARDERS
        if entry in functions
    }
    setters: dict = {}
    for directory in OPTION_SETTER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            scope = [_module_name(path)] if path.is_relative_to(SRC) else []
            _SetterScan(path, scope, callees, named, setters).visit(_parse(path))
    return setters


def _unset(modules: dict[str, Path], setters: dict, forwarders: set[str]) -> set[str]:
    """Options with no setter outside their own function, counting only
    setters that are direct or travel through ``forwarders``."""
    return {
        name
        for name, path, function, param, owner in _defaulted_options(modules)
        if not any(
            (via is None or via in forwarders)
            and (site != path or not function.lineno <= line <= function.end_lineno)
            for site, line, via in setters.get(
                (owner if function.name == "__init__" else None, function.name, param),
                (),
            )
        )
    }


def option_census(modules: dict[str, Path]) -> tuple[list[str], list[str]]:
    """``(unset options, stale allowlist entries)``, both sorted."""
    unset = _unset(modules, _option_setters(modules), set(KWARGS_FORWARDERS))
    return sorted(unset - ALLOWED_UNSET_OPTIONS), sorted(ALLOWED_UNSET_OPTIONS - unset)


def forwarder_census(modules: dict[str, Path]) -> list[str]:
    """``KWARGS_FORWARDERS`` entries that are gone, forward nothing, or
    set no option that nothing else sets; sorted."""
    functions = {dotted: node for dotted, _, node, _ in _functions(modules)}
    setters = _option_setters(modules)
    unset = _unset(modules, setters, set(KWARGS_FORWARDERS))
    return sorted(
        entry
        for entry in KWARGS_FORWARDERS
        if entry not in functions
        or not _splats(functions[entry])
        or _unset(modules, setters, set(KWARGS_FORWARDERS) - {entry}) == unset
    )


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


def test_forwarder_allowlist_holds_only_needed_entry_points():
    stale = forwarder_census(_modules())
    assert stale == [], (
        f"forwarder entries {stale} are missing, forward no keywords, or "
        "are needed by no option: remove them from KWARGS_FORWARDERS"
    )
