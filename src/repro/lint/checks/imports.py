"""Import hygiene: module-level imports whose name is never read."""

from __future__ import annotations

import ast
import contextlib
import re
from typing import Iterator, Set

from ..finding import Finding
from ..model import Project
from ..registry import Check, register_check

__all__ = ["UnusedImport"]

_NOQA_F401 = re.compile(r"#\s*noqa:.*\bF401\b")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@register_check("unused-import")
class UnusedImport(Check):
    """A module-level import binding a name the module never reads.

    Exempt: ``__init__.py`` (its imports are re-exports), names listed in
    ``__all__``, names read inside string annotations, and import
    statements marked ``# noqa: F401``.
    """

    description = "module-level import whose name is never read"

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if module.tree is None or module.relpath.endswith("__init__.py"):
                continue
            read = _read_names(module.tree)
            for node in module.walk():
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                lines = module.lines[node.lineno - 1 : node.end_lineno]
                if (
                    getattr(node, "module", None) == "__future__"
                    or any(isinstance(scope, _SCOPES) for scope in module.ancestors(node))
                    or any(_NOQA_F401.search(line) for line in lines)
                ):
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "*" and name not in read:
                        yield Finding(
                            file=module.relpath,
                            line=node.lineno,
                            col=node.col_offset,
                            check=self.name,
                            message=f"{name!r} is imported but never read; delete the import",
                            subject=name,
                        )


def _read_names(tree: ast.Module) -> Set[str]:
    """Names loaded anywhere, listed in ``__all__`` or read in a string annotation."""
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in {
            getattr(target, "id", None) for target in node.targets
        }:
            read.update(
                item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)
            )
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for item in ast.walk(annotation) if isinstance(annotation, ast.AST) else ():
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                with contextlib.suppress(SyntaxError):
                    parsed = ast.parse(item.value, mode="eval")
                    read.update(name.id for name in ast.walk(parsed) if isinstance(name, ast.Name))
    return read
