"""Source model: parsed modules with import, scope and lock tracking.

The checks in :mod:`repro.lint.checks` do not walk raw ASTs.  They consume
a :class:`Project` of :class:`SourceModule` objects that already carry the
facts most concurrency/contract checks need:

* **import aliases** — every local name mapped to a dotted origin, so a
  check matches ``sleep(...)`` against ``time.sleep`` no matter how it was
  imported (``resolve_call``);
* **lock ownership** — per class, the instance attributes bound to
  ``threading.Lock/RLock/Condition/Semaphore`` factories (conditions are
  canonicalised onto the lock they wrap), plus module-level locks;
* **held-lock regions** — for every AST node, the set of lock tokens held
  at that point, derived from ``with self._lock:`` nesting.  Functions
  whose name ends in ``_locked`` are assumed (by this repository's naming
  convention) to run with a lock already held;
* **acquisition records** — every ``with <lock>:`` entry with the locks
  held at that moment, which is exactly the edge list of the lock-order
  graph;
* **attribute access sites** — every ``self.X`` read/write in a
  lock-owning class, tagged with the enclosing function and held locks
  (the input of the unlocked-shared-write race detector);
* **inline suppressions** — ``# repro-lint: disable=<check>[,<check>]``
  on a finding's line (or on a standalone comment line directly above it)
  marks matching findings as suppressed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ASSUMED_LOCK",
    "AccessSite",
    "Acquisition",
    "ClassModel",
    "Project",
    "SourceModule",
    "build_project",
    "build_project_from_sources",
    "collect_files",
]

#: Call suffixes recognised as lock factories, mapped to the lock kind.
_LOCK_FACTORIES = {
    "threading.Lock": "Lock",
    "threading.RLock": "RLock",
    "threading.Condition": "Condition",
    "threading.Semaphore": "Semaphore",
    "threading.BoundedSemaphore": "Semaphore",
    "multiprocessing.Lock": "Lock",
    "multiprocessing.RLock": "RLock",
}

#: Token standing for "some owned lock" inside ``*_locked`` helpers.
ASSUMED_LOCK = "<assumed>"

#: Functions whose ``self.X = ...`` writes are construction, not sharing.
_CONSTRUCTOR_NAMES = frozenset({"__init__", "__new__", "__post_init__", "__init_subclass__"})

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")


@dataclass
class AccessSite:
    """One ``self.X`` access inside a lock-owning class."""

    attr: str
    node: ast.AST
    function: str  # enclosing function qualname, e.g. "JobManager.close"
    func_name: str  # bare name of the enclosing function
    is_write: bool
    held: FrozenSet[str]

    @property
    def locked(self) -> bool:
        return bool(self.held)


@dataclass
class Acquisition:
    """One ``with <lock>:`` entry: the acquired token plus held context."""

    token: str
    kind: str  # lock kind ("Lock", "RLock", ...) or "?" for module locks
    node: ast.AST
    function: str
    held: FrozenSet[str]


@dataclass
class ClassModel:
    """Lock-ownership facts of one class definition."""

    name: str
    node: ast.ClassDef
    lock_attrs: Dict[str, str] = field(default_factory=dict)  # attr -> kind
    #: Condition attrs wrapping another owned lock: alias -> canonical attr.
    lock_aliases: Dict[str, str] = field(default_factory=dict)
    access_sites: List[AccessSite] = field(default_factory=list)

    def canonical(self, attr: str) -> str:
        return self.lock_aliases.get(attr, attr)

    def owns_locks(self) -> bool:
        return bool(self.lock_attrs)


class SourceModule:
    """One parsed python file plus the derived facts (see module docstring)."""

    def __init__(self, relpath: str, text: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.text = text
        self.lines = text.splitlines()
        self.modname = self._modname(self.relpath)
        self.syntax_error: Optional[SyntaxError] = None
        self.tree: Optional[ast.Module] = None
        self.parents: Dict[ast.AST, ast.AST] = {}
        self.imports: Dict[str, str] = {}
        self.module_locks: Dict[str, str] = {}  # name -> kind
        self.classes: List[ClassModel] = []
        self.held: Dict[ast.AST, FrozenSet[str]] = {}
        self.enclosing: Dict[ast.AST, str] = {}
        self.acquisitions: List[Acquisition] = []
        self.suppressions: Dict[int, Set[str]] = _parse_suppressions(self.lines)
        try:
            self.tree = ast.parse(text)
        except SyntaxError as exc:
            self.syntax_error = exc
            return
        self._index_parents()
        self._index_imports()
        self._class_by_node = self._index_classes()
        self._walk_scopes()
        self._collect_access_sites()

    # ------------------------------------------------------------------ #
    # Derivation passes
    # ------------------------------------------------------------------ #
    @staticmethod
    def _modname(relpath: str) -> str:
        parts = [part for part in relpath.split("/") if part not in ("", ".")]
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][: -len(".py")]
        return ".".join(parts)

    def _index_parents(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                prefix = "." * node.level + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{prefix}.{alias.name}" if prefix else alias.name

    def _index_classes(self) -> Dict[ast.ClassDef, ClassModel]:
        by_node: Dict[ast.ClassDef, ClassModel] = {}
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            model = ClassModel(name=node.name, node=node)
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Assign) or not isinstance(stmt.value, ast.Call):
                    continue
                kind = self._lock_factory_kind(stmt.value)
                if kind is None:
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        model.lock_attrs[target.attr] = kind
                        if kind == "Condition" and stmt.value.args:
                            wrapped = stmt.value.args[0]
                            if (
                                isinstance(wrapped, ast.Attribute)
                                and isinstance(wrapped.value, ast.Name)
                                and wrapped.value.id == "self"
                            ):
                                model.lock_aliases[target.attr] = wrapped.attr
            by_node[node] = model
            self.classes.append(model)
        # Module-level locks: NAME = threading.Lock() at any module position.
        for stmt in ast.walk(self.tree):
            if not isinstance(stmt, ast.Assign) or not isinstance(stmt.value, ast.Call):
                continue
            kind = self._lock_factory_kind(stmt.value)
            if kind is None:
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    enclosing_class = self._nearest(stmt, ast.ClassDef)
                    enclosing_func = self._nearest(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    if enclosing_class is None and enclosing_func is None:
                        self.module_locks[target.id] = kind
        return by_node

    def _lock_factory_kind(self, call: ast.Call) -> Optional[str]:
        name = self.resolve_expr(call.func)
        if name is None:
            return None
        for suffix, kind in _LOCK_FACTORIES.items():
            if name == suffix or name.endswith("." + suffix):
                return kind
            # ``from threading import Lock`` resolves to "threading.Lock"
            # already; a bare local name that resolves to just "Lock" et al
            # is accepted too (fixtures, vendored shims).
            if name == suffix.split(".")[-1]:
                return kind
        return None

    def _nearest(self, node: ast.AST, types) -> Optional[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, types):
                return current
            current = self.parents.get(current)
        return None

    # -------------------- scope / held-lock walk ----------------------- #
    def _walk_scopes(self) -> None:
        def lock_token(expr: ast.expr, cls: Optional[ClassModel]) -> Optional[Tuple[str, str]]:
            if (
                cls is not None
                and isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in cls.lock_attrs
            ):
                canonical = cls.canonical(expr.attr)
                return (
                    f"class::{cls.name}::{canonical}",
                    cls.lock_attrs.get(canonical, cls.lock_attrs[expr.attr]),
                )
            if isinstance(expr, ast.Name) and expr.id in self.module_locks:
                return (f"mod::{self.modname}::{expr.id}", self.module_locks[expr.id])
            return None

        def visit(
            node: ast.AST,
            held: FrozenSet[str],
            cls: Optional[ClassModel],
            func_stack: Tuple[str, ...],
        ) -> None:
            self.held[node] = held
            self.enclosing[node] = ".".join(func_stack)
            if isinstance(node, ast.ClassDef):
                model = self._class_by_node.get(node)
                for child in ast.iter_child_nodes(node):
                    visit(child, frozenset(), model, func_stack + (node.name,))
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (
                    frozenset({ASSUMED_LOCK})
                    if node.name.endswith("_locked")
                    else frozenset()
                )
                for child in ast.iter_child_nodes(node):
                    visit(child, inner, cls, func_stack + (node.name,))
                return
            if isinstance(node, ast.Lambda):
                for child in ast.iter_child_nodes(node):
                    visit(child, frozenset(), cls, func_stack + ("<lambda>",))
                return
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired: Set[str] = set(held)
                for item in node.items:
                    token = lock_token(item.context_expr, cls)
                    visit(item.context_expr, held, cls, func_stack)
                    if item.optional_vars is not None:
                        visit(item.optional_vars, held, cls, func_stack)
                    if token is not None:
                        self.acquisitions.append(
                            Acquisition(
                                token=token[0],
                                kind=token[1],
                                node=item.context_expr,
                                function=".".join(func_stack),
                                held=frozenset(acquired),
                            )
                        )
                        acquired.add(token[0])
                body_held = frozenset(acquired)
                for stmt in node.body:
                    visit(stmt, body_held, cls, func_stack)
                return
            for child in ast.iter_child_nodes(node):
                visit(child, held, cls, func_stack)

        for stmt in self.tree.body:
            visit(stmt, frozenset(), None, ())

    def _collect_access_sites(self) -> None:
        for cls in self.classes:
            if not cls.owns_locks():
                continue
            for node in ast.walk(cls.node):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    continue
                attr = node.attr
                if attr in cls.lock_attrs or attr.startswith("__"):
                    continue
                # Skip accesses that belong to a *nested* class definition.
                owner = self._nearest(node, ast.ClassDef)
                if owner is not cls.node:
                    continue
                qualname = self.enclosing.get(node, "")
                func_name = qualname.rsplit(".", 1)[-1] if qualname else ""
                cls.access_sites.append(
                    AccessSite(
                        attr=attr,
                        node=node,
                        function=qualname,
                        func_name=func_name,
                        is_write=isinstance(node.ctx, (ast.Store, ast.Del)),
                        held=self.held.get(node, frozenset()),
                    )
                )

    # ------------------------------------------------------------------ #
    # Query helpers for checks
    # ------------------------------------------------------------------ #
    def resolve_expr(self, expr: ast.expr) -> Optional[str]:
        """Dotted origin of a name/attribute chain, or ``None``.

        ``sleep`` imported via ``from time import sleep`` resolves to
        ``time.sleep``; ``forward`` from ``from .proxy import forward``
        resolves to ``.proxy.forward`` (leading dots preserved so suffix
        matching still works).  Chains rooted in calls or ``self`` do not
        resolve.
        """
        if isinstance(expr, ast.Name):
            return self.imports.get(expr.id, expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.resolve_expr(expr.value)
            if base is None:
                return None
            return f"{base}.{expr.attr}"
        return None

    def call_name(self, call: ast.Call) -> Optional[str]:
        return self.resolve_expr(call.func)

    def walk(self) -> Iterable[ast.AST]:
        if self.tree is None:
            return ()
        return ast.walk(self.tree)

    def held_at(self, node: ast.AST) -> FrozenSet[str]:
        return self.held.get(node, frozenset())

    def enclosing_function(self, node: ast.AST) -> str:
        return self.enclosing.get(node, "")

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def in_finally(self, node: ast.AST) -> bool:
        """``True`` when ``node`` sits inside some ``finally:`` suite."""
        current = node
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.Try):
                for stmt in ancestor.finalbody:
                    if current is stmt or _contains(stmt, current):
                        return True
            current = ancestor
        return False

    def is_suppressed(self, line: int, check: str) -> bool:
        names = self.suppressions.get(line)
        if not names:
            return False
        return check in names or "all" in names


def _contains(root: ast.AST, target: ast.AST) -> bool:
    for node in ast.walk(root):
        if node is target:
            return True
    return False


def _parse_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    suppressions: Dict[int, Set[str]] = {}
    pending: Set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        match = _SUPPRESS_RE.search(line)
        if match:
            names = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if stripped.startswith("#"):
                pending |= names  # standalone comment: applies to next code line
            else:
                suppressions.setdefault(lineno, set()).update(names)
        elif stripped and not stripped.startswith("#"):
            if pending:
                suppressions.setdefault(lineno, set()).update(pending)
                pending = set()
    return suppressions


@dataclass
class Project:
    """Every analysed module, plus the root the relative paths hang off."""

    root: Path
    modules: List[SourceModule] = field(default_factory=list)

    def module(self, relpath: str) -> Optional[SourceModule]:
        for module in self.modules:
            if module.relpath == relpath:
                return module
        return None


# --------------------------------------------------------------------------- #
# Project construction
# --------------------------------------------------------------------------- #
def collect_files(paths: Sequence[str], root: Optional[Path] = None) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    root = root or Path.cwd()
    seen: Set[Path] = set()
    ordered: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(candidate)
    return ordered


def find_repo_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor holding ``pyproject.toml`` or ``.git`` (else cwd)."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").exists() or (candidate / ".git").exists():
            return candidate
    return current


def build_project(paths: Sequence[str], root: Optional[Path] = None) -> Project:
    """Parse every ``.py`` under ``paths`` into a :class:`Project`."""
    root = (root or find_repo_root()).resolve()
    project = Project(root=root)
    for path in collect_files(paths, root=root):
        resolved = path.resolve()
        try:
            relpath = str(resolved.relative_to(root))
        except ValueError:
            relpath = str(resolved)
        text = resolved.read_text(encoding="utf-8")
        project.modules.append(SourceModule(relpath, text))
    return project


def build_project_from_sources(sources: Dict[str, str]) -> Project:
    """Build a project straight from ``{relpath: source}`` (test fixtures)."""
    project = Project(root=Path.cwd())
    for relpath in sorted(sources):
        project.modules.append(SourceModule(relpath, sources[relpath]))
    return project
