"""Data-contract checks: epoch-keyed cache keys and resource cleanup.

These encode two invariants PRs 3–9 established by convention:

* every cross-request cache key embeds ``graph.epoch`` so a mutated graph
  can never serve stale artefacts (the epoch-key contract);
* every process-lifetime resource (shared memory, subprocesses, temp
  files) has a cleanup reachable on all paths — a context manager or a
  ``try/finally`` — so a crash mid-request cannot leak segments.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..finding import Finding
from ..model import Project, SourceModule
from ..registry import Check, register_check

__all__ = ["EpochKeyContract", "ResourceCleanup"]

#: Names whose use marks a module as cache-key territory: imported (under
#: any alias), defined, referenced, called, read as an attribute, or named
#: by an exact string (``__all__``, ``getattr``).
_CACHE_MARKERS = frozenset({"ByteBudgetLRU", "ResultCache", "result_cache_key"})

#: Attributes that hold a cache: ``KPlexService.result_cache`` is its
#: ``ResultCache``.
_CACHE_ATTRIBUTES = frozenset({"result_cache"})


def _uses_cache(node: ast.AST) -> bool:
    """Whether one AST node imports, defines or references a cache marker.

    Comments are not in the tree and a docstring is a longer string than
    any marker, so prose that names a cache selects nothing.
    """
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(alias.name.rsplit(".", 1)[-1] in _CACHE_MARKERS for alias in node.names)
    if isinstance(node, ast.Name):
        return node.id in _CACHE_MARKERS
    if isinstance(node, ast.Attribute):
        return node.attr in _CACHE_MARKERS or node.attr in _CACHE_ATTRIBUTES
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name in _CACHE_MARKERS
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in _CACHE_MARKERS
    return False


def _is_key_builder(name: str) -> bool:
    if name.startswith("test_"):
        return False  # test functions named after keys are not key builders
    return name in ("_key", "key") or "cache_key" in name or name.endswith("_key")


@register_check("epoch-key-contract")
class EpochKeyContract(Check):
    """Cache-key construction that omits the graph epoch.

    In modules whose code touches the byte-budgeted caches, any key-builder
    function (``_key``, ``*_cache_key``, ``*_key``) must reference
    ``.epoch`` (or take an explicit ``epoch`` parameter, or delegate to
    another key builder).  In every module, a literal tuple passed straight
    into ``<cache>.put(...)``/``.get(...)`` must carry ``.epoch``: the
    receiver's name already says it is a cache.  Keys
    without the epoch serve results computed from a *previous* state of a
    mutated graph — the exact staleness bug the epoch token exists to
    make impossible.
    """

    description = "cache key built without graph.epoch in cache-owning modules"

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if module.tree is None:
                continue
            if self._is_cache_module(module):
                yield from self._check_key_builders(module)
            yield from self._check_inline_keys(module)

    @staticmethod
    def _is_cache_module(module: SourceModule) -> bool:
        """Modules whose code, not prose, touches a cache (see ``_uses_cache``)."""
        return any(_uses_cache(node) for node in module.walk())

    def _check_key_builders(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_key_builder(node.name):
                continue
            if self._mentions_epoch(node) or self._delegates(module, node):
                continue
            qualname = module.enclosing_function(node)
            symbol = f"{qualname}.{node.name}" if qualname else node.name
            yield Finding(
                file=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                check=self.name,
                message=(
                    f"cache key builder '{node.name}' never references "
                    f"graph.epoch (and takes no 'epoch' parameter): entries "
                    f"keyed by it survive graph mutation and serve stale results"
                ),
                symbol=symbol,
                subject=symbol,
            )

    def _check_inline_keys(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.walk():
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("put", "get", "peek")
                and node.args
                and isinstance(node.args[0], ast.Tuple)
            ):
                continue
            receiver = node.func.value
            receiver_name = receiver.attr if isinstance(receiver, ast.Attribute) else (
                receiver.id if isinstance(receiver, ast.Name) else ""
            )
            if not any(tag in receiver_name.lower() for tag in ("lru", "cache")):
                continue
            if self._mentions_epoch(node.args[0]):
                continue
            yield Finding(
                file=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                check=self.name,
                message=(
                    f"literal cache key passed to {receiver_name}.{node.func.attr}() "
                    f"does not include graph.epoch: the entry outlives graph "
                    f"mutation and serves stale results"
                ),
                symbol=module.enclosing_function(node),
                subject=f"{receiver_name}.{node.func.attr}",
            )

    @staticmethod
    def _mentions_epoch(node: ast.AST) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute) and child.attr == "epoch":
                return True
            if isinstance(child, ast.Name) and child.id == "epoch":
                return True
            if isinstance(child, ast.arg) and child.arg == "epoch":
                return True
        return False

    @staticmethod
    def _delegates(module: SourceModule, node: ast.AST) -> bool:
        """Key builder that returns another key builder's result is fine."""
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else ""
            )
            if name and _is_key_builder(name) and name != getattr(node, "name", None):
                return True
        return False


#: Call suffixes creating resources that must be cleaned up.
_CREATORS: Tuple[Tuple[str, str], ...] = (
    ("shared_memory.SharedMemory", "shared-memory segment"),
    ("SharedMemory", "shared-memory segment"),
    ("subprocess.Popen", "subprocess"),
    ("tempfile.NamedTemporaryFile", "temporary file"),
    ("tempfile.TemporaryDirectory", "temporary directory"),
    ("tempfile.mkdtemp", "temporary directory"),
)

_CLEANUP_ATTRS = frozenset(
    {"close", "unlink", "terminate", "kill", "shutdown", "stop", "cleanup",
     "release", "wait", "communicate", "join", "_reap"}
)


@register_check("resource-cleanup")
class ResourceCleanup(Check):
    """Resource creation without a cleanup reachable on all paths.

    Tracks locals bound from ``SharedMemory(...)``, ``subprocess.Popen``
    and tempfile factories.  A handle that never *escapes* the function
    (returned, yielded, stored on ``self``/a container, or passed to
    another call — all of which move cleanup responsibility elsewhere)
    must be cleaned up in-function: via a ``with`` block, or a cleanup
    call (``close``/``unlink``/``terminate``/...) that sits in a
    ``finally:`` suite when other calls between creation and cleanup can
    raise past it.
    """

    description = (
        "SharedMemory/subprocess/tempfile handle without close/unlink/"
        "terminate on all paths"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            for node in module.walk():
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(module, node)

    def _creator_kind(self, module: SourceModule, call: ast.Call) -> Optional[str]:
        dotted = module.call_name(call)
        if dotted is None:
            return None
        for suffix, kind in _CREATORS:
            if dotted == suffix or dotted.endswith("." + suffix):
                return kind
        return None

    def _check_function(
        self, module: SourceModule, func: ast.AST
    ) -> Iterator[Finding]:
        # Creations bound to a simple local: ``var = SharedMemory(...)``.
        creations: List[Tuple[str, ast.Call, str]] = []
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            kind = self._creator_kind(module, node.value)
            if kind is None:
                continue
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                # Inside a nested function? Attribute it to the inner scope
                # only (avoid double-reporting through the outer walk).
                if self._owning_function(module, node) is not func:
                    continue
                creations.append((node.targets[0].id, node.value, kind))
        for var, call, kind in creations:
            yield from self._check_handle(module, func, var, call, kind)

    @staticmethod
    def _owning_function(module: SourceModule, node: ast.AST):
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return ancestor
        return None

    def _check_handle(
        self,
        module: SourceModule,
        func: ast.AST,
        var: str,
        creation: ast.Call,
        kind: str,
    ) -> Iterator[Finding]:
        escaped = False
        cleanup_nodes: List[ast.AST] = []
        other_calls_after_creation = False
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id == var and node is not creation:
                if node.lineno < creation.lineno:
                    continue
                parent = module.parents.get(node)
                if isinstance(node.ctx, ast.Store):
                    if isinstance(parent, ast.Assign) and parent.value is creation:
                        continue  # the creating assignment's own target
                    if self._is_with_alias(module, node, creation):
                        return  # ``with Creator(...) as var:`` — managed
                    escaped = True  # rebound; we lose track, stay quiet
                    continue
                if isinstance(parent, ast.Attribute):
                    grand = module.parents.get(parent)
                    if (
                        parent.attr in _CLEANUP_ATTRS
                        and isinstance(grand, ast.Call)
                        and grand.func is parent
                    ):
                        cleanup_nodes.append(grand)
                    continue
                # Bare use in any other position: returned, yielded, passed
                # as an argument, stored in a container/attribute — the
                # handle escapes and cleanup responsibility moves with it.
                escaped = True
        if escaped:
            return
        if not cleanup_nodes:
            yield Finding(
                file=module.relpath,
                line=creation.lineno,
                col=creation.col_offset,
                check=self.name,
                message=(
                    f"{kind} '{var}' is created here but never closed/unlinked/"
                    f"terminated and never leaves this function: it leaks on "
                    f"every call; use a context manager or try/finally"
                ),
                symbol=module.enclosing_function(creation),
                subject=var,
            )
            return
        protected = any(module.in_finally(node) for node in cleanup_nodes)
        if protected:
            return
        first_cleanup = min(node.lineno for node in cleanup_nodes)
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and node is not creation
                and node not in cleanup_nodes
                and creation.lineno < node.lineno < first_cleanup
            ):
                other_calls_after_creation = True
                break
        if other_calls_after_creation:
            yield Finding(
                file=module.relpath,
                line=creation.lineno,
                col=creation.col_offset,
                check=self.name,
                message=(
                    f"{kind} '{var}' is cleaned up at line {first_cleanup}, but "
                    f"not inside try/finally: an exception raised between "
                    f"creation and cleanup leaks the resource"
                ),
                symbol=module.enclosing_function(creation),
                subject=var,
            )

    @staticmethod
    def _is_with_alias(module: SourceModule, node: ast.AST, creation: ast.Call) -> bool:
        parent = module.parents.get(node)
        return isinstance(parent, ast.withitem) and parent.context_expr is creation
