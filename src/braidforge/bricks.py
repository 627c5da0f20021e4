"""Brick diagrams of positive words.

A brick lives between two consecutive occurrences of the same letter
within a column. Bricks are numbered canonically: column-major
ascending, bottom to top within a column; ids are 1-based so they double
as presentation generator indices. So each column's bricks are one id
range, ``BrickDiagram.column_ids``: the one per-column index. Each
process keeps the diagrams of its CACHE_SIZE most recent words.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

from .words import BraidWord

# Entries of each per-process cache: diagrams here, graphs in linking, hom sets in invariants.
CACHE_SIZE = 64


@dataclass(frozen=True)
class Brick:
    """Rectangle between word positions lo < hi in one column.

    letters[lo] == letters[hi] == column and no occurrence of the column
    index lies strictly between them.
    """

    id: int
    column: int
    lo: int
    hi: int

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0


@dataclass(frozen=True)
class BrickDiagram:
    word: BraidWord
    bricks: tuple[Brick, ...]

    def __hash__(self) -> int:  # the word decides the bricks
        return hash(self.word)

    @cached_property
    def column_ids(self) -> Mapping[int, range]:
        """The id range of each column that has bricks, bottom to top; read-only."""
        ids: dict[int, range] = {}
        for b in self.bricks:
            first = ids[b.column].start if b.column in ids else b.id
            ids[b.column] = range(first, b.id + 1)
        return MappingProxyType(ids)

    def by_column(self, column: int) -> tuple[Brick, ...]:
        """Bricks of one column, bottom to top."""
        ids = self.column_ids.get(column, range(1, 1))
        return self.bricks[ids.start - 1 : ids.stop - 1]

    def brick(self, brick_id: int) -> Brick:
        return self.bricks[brick_id - 1]

    def column_rank(self, brick_id: int) -> tuple[int, int]:
        """(column, 1-based rank within that column) of a brick."""
        column = self.bricks[brick_id - 1].column
        return column, brick_id - self.column_ids[column].start + 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "word": {
                    "strands": self.word.strands,
                    "letters": list(self.word.letters),
                },
                "bricks": [
                    {"id": b.id, "column": b.column, "lo": b.lo, "hi": b.hi}
                    for b in self.bricks
                ],
            }
        )


def build_bricks(w: BraidWord) -> BrickDiagram:
    """One brick per adjacent pair of same-index crossings, in canonical order;
    shared by every caller passing an equal word while it is recent."""
    return _bricks(w)


@lru_cache(maxsize=CACHE_SIZE)
def _bricks(w: BraidWord) -> BrickDiagram:
    bricks: list[Brick] = []
    for column, occ in w.occurrences_by_letter().items():
        for lo, hi in zip(occ, occ[1:]):
            bricks.append(Brick(len(bricks) + 1, column, lo, hi))
    return BrickDiagram(w, tuple(bricks))


def brick_count(w: BraidWord) -> int:
    # each letter that occurs has one brick fewer than occurrences
    return len(w.letters) - len(set(w.letters))
