"""The exceptions that ``cli.main`` maps to exit codes, apart from the modules
that raise them (each imports its own from here), so that the CLI can name
them without loading those modules."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .exactmath import Matrix


class RepFormatError(ValueError):
    """A representation file is missing a key or has one of the wrong type."""


class RelatorError(ValueError):
    """The defining relator of a representation is not the identity."""

    def __init__(self, residual: Matrix):
        self.residual = residual
        super().__init__(f"relator is not the identity; residual {residual!r}")


class TagError(ValueError):
    """A holonomy matrix violates the structure tag."""


class UsageError(ValueError):
    """The caller's input is at fault: a selector, cycle or bundle that doesn't fit."""


class GenericityError(ValueError):
    """A point tuple failed the genericity required by a symbol."""


class FactorizationError(ArithmeticError):
    """Trial division hit the configured bound before finishing."""
