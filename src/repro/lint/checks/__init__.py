"""Built-in checks — importing this package performs all registrations."""

from . import contracts, determinism, exceptions, imports, locks  # noqa: F401

__all__ = ["contracts", "determinism", "exceptions", "imports", "locks"]
