"""Pluggable solver registry.

Every enumeration algorithm in the repository — the paper's algorithm and
its ablation variants, the baselines, and the parallel executor — is adapted
behind one :class:`Solver` interface and registered by name with
:func:`register_solver`.  :class:`~repro.api.engine.KPlexEngine` resolves
requests through this registry, so adding a new backend is one decorated
class, not another parallel call path.

A solver produces a :class:`SolverRun`: a *lazy* iterator of results plus a
way to read the accumulated :class:`SearchStatistics` once (or while) the
iterator is consumed.  Solvers whose underlying implementation is eager
(brute force, the process-pool executor) wrap the computation in a generator
so that no work happens before the first result is pulled.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterator, List, Tuple, Type

from ..core.kplex import KPlex
from ..core.stats import SearchStatistics
from ..errors import ParameterError
from .request import EnumerationRequest


@dataclass
class SolverRun:
    """A started (but not necessarily consumed) enumeration.

    Attributes
    ----------
    results:
        Lazy iterator over the result k-plexes, in the solver's natural
        order.  Iterating drives the actual search.
    statistics:
        Zero-argument callable returning the statistics accumulated *so
        far*; call it after (or during) consumption of ``results``.
    metadata:
        Solver-specific details for the response (variant label, worker
        count, ...).
    """

    results: Iterator[KPlex]
    statistics: Callable[[], SearchStatistics] = SearchStatistics
    metadata: Dict[str, object] = field(default_factory=dict)


class Solver(abc.ABC):
    """Interface every registered enumeration backend implements."""

    #: Registry name; filled in by :func:`register_solver`.
    name: ClassVar[str] = ""
    #: Human-readable one-liner for listings.
    description: ClassVar[str] = ""
    #: Whether the solver relies on the Theorem 3.3 diameter property and
    #: therefore requires ``q >= 2k - 1``.
    requires_diameter_bound: ClassVar[bool] = True
    #: Whether the solver honours ``request.query_vertices``.
    supports_query: ClassVar[bool] = False
    #: Whether results are produced incrementally (``False`` means the whole
    #: search runs when the first result is pulled).
    incremental: ClassVar[bool] = True

    @abc.abstractmethod
    def start(self, request: EnumerationRequest) -> SolverRun:
        """Validate solver-specific requirements and start the enumeration."""

    @classmethod
    def capabilities(cls) -> Dict[str, object]:
        """Capability summary used by listings and the CLI."""
        return {
            "solver": cls.name,
            "description": cls.description,
            "streaming": "incremental" if cls.incremental else "eager",
            "supports_query": cls.supports_query,
            "requires_diameter_bound": cls.requires_diameter_bound,
        }


_REGISTRY: Dict[str, Type[Solver]] = {}
_PRIMARY_NAMES: List[str] = []


def _normalise(name: str) -> str:
    return name.strip().lower()


def register_solver(
    name: str,
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> Callable[[Type[Solver]], Type[Solver]]:
    """Class decorator registering a :class:`Solver` under ``name``.

    ``aliases`` resolve to the same class; ``replace=True`` allows overriding
    an existing registration (useful for tests and downstream plugins).
    """

    def decorator(cls: Type[Solver]) -> Type[Solver]:
        if not issubclass(cls, Solver):
            raise TypeError(f"{cls.__name__} must subclass Solver to be registered")
        keys = [_normalise(name)] + [_normalise(alias) for alias in aliases]
        for key in keys:
            if not replace and key in _REGISTRY and _REGISTRY[key] is not cls:
                raise ValueError(f"solver name {key!r} is already registered")
        cls.name = _normalise(name)
        for key in keys:
            _REGISTRY[key] = cls
        if cls.name not in _PRIMARY_NAMES:
            _PRIMARY_NAMES.append(cls.name)
        return cls

    return decorator


def unregister_solver(name: str) -> None:
    """Remove a registration (primarily for tests); unknown names are ignored."""
    key = _normalise(name)
    cls = _REGISTRY.pop(key, None)
    if cls is not None and key in _PRIMARY_NAMES:
        _PRIMARY_NAMES.remove(key)
        # Drop any aliases still pointing at the class.
        for alias in [alias for alias, target in _REGISTRY.items() if target is cls]:
            del _REGISTRY[alias]


def get_solver(name: str) -> Type[Solver]:
    """Resolve a registry name to its :class:`Solver` class.

    Raises :class:`~repro.errors.ParameterError` for unknown names — the
    request-level error type, so callers can report it like any other bad
    parameter.
    """
    try:
        return _REGISTRY[_normalise(name)]
    except KeyError:
        known = ", ".join(sorted(solver_names()))
        raise ParameterError(
            f"unknown solver {name!r}; registered solvers: {known}"
        ) from None


def solver_names(include_aliases: bool = False) -> List[str]:
    """Names accepted by :func:`get_solver` (primary names by default)."""
    if include_aliases:
        return sorted(_REGISTRY)
    return list(_PRIMARY_NAMES)


def solver_table() -> List[Dict[str, object]]:
    """Capability rows for every registered solver (CLI ``solvers`` command)."""
    return [_REGISTRY[name].capabilities() for name in _PRIMARY_NAMES]
