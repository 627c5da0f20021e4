"""Exception types shared across the package."""

from __future__ import annotations


class BraidForgeError(Exception):
    """Base class for domain errors."""


class WordError(BraidForgeError, ValueError):
    """Invalid braid word input."""


class MoveError(BraidForgeError, ValueError):
    """A word move is not applicable where requested."""


class StrandMismatchError(BraidForgeError, ValueError):
    """Operation on words with different strand counts."""


class NotAForestError(BraidForgeError, ValueError):
    """Tree comparison was asked of a graph containing a cycle."""


class PresentationError(BraidForgeError, ValueError):
    """A hand-built presentation that no braid word yields: a generator
    count that is no int >= 0, a letter outside the generators, or an
    exponent column other than zero or e_i - e_j."""


class ResourceCapError(BraidForgeError):
    """A limit was exceeded, a configured cap or a fixed budget such as
    isomaps.IMAGE_LETTERS or invariants.HOM_SEARCH_VALUES; never a wrong
    answer."""


class GarsideInvariantError(BraidForgeError):
    """A Garside invariant that an answer rests on failed to hold.

    Raised instead of returning an answer that may be wrong; these
    checks stay active under ``python -O``.
    """
