"""Brick diagrams of positive words.

A brick lives between two consecutive occurrences of the same letter
within a column. Bricks are numbered canonically: column-major
ascending, bottom to top within a column; ids are 1-based so they double
as presentation generator indices. So each column's bricks are one id
range, ``BrickDiagram.column_ids``: the one per-column index. The one
constructor, ``BrickDiagram(word)``, reads the word once into each
letter's occurrences and the id ranges, so equal words hold equal
data; the ``Brick`` objects are spelled from those on first read of
``bricks`` and kept; so are its column runs, ``_runs``, the linking
graph's components. Each process keeps the diagrams of its CACHE_SIZE
most recent words.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
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


@dataclass(frozen=True, init=False)
class BrickDiagram:
    """A word, the 1-based positions of each letter that occurs (in
    letter order, read-only) and the id range of each column that has
    bricks, bottom to top (read-only). ``BrickDiagram(word)`` derives
    both from the word, so equal words make equal diagrams."""

    word: BraidWord
    occurrences: Mapping[int, tuple[int, ...]] = field(compare=False, repr=False)
    column_ids: Mapping[int, range] = field(compare=False, repr=False)

    def __init__(self, word: BraidWord) -> None:
        occ = word.occurrences_by_letter()
        ids: dict[int, range] = {}
        first = 1
        for column, positions in occ.items():
            if len(positions) > 1:
                ids[column] = range(first, first + len(positions) - 1)
                first = ids[column].stop
        self.__dict__.update(
            word=word, occurrences=MappingProxyType(occ), column_ids=MappingProxyType(ids)
        )

    def __hash__(self) -> int:  # the word decides the bricks
        return hash(self.word)

    @property
    def n_bricks(self) -> int:
        # each letter that occurs has one brick fewer than occurrences
        return len(self.word.letters) - len(self.occurrences)

    def spans(self) -> Iterator[tuple[int, int, int, int]]:
        """(id, column, lo, hi) per brick, in id order, read off the occurrences."""
        for column, ids in self.column_ids.items():
            occ = self.occurrences[column]
            yield from zip(ids, repeat(column), occ, occ[1:])

    @cached_property
    def _runs(self) -> tuple[range, ...]:
        """The id range of each maximal run of columns joined to the next
        by a lateral edge, in column order, so a run's index labels its
        bricks as linking.components would. Columns c - 1 and c are joined
        iff the one to occur first recurs strictly inside the other's first
        and last occurrence; a column with one occurrence joins nothing."""
        occ, runs = self.occurrences, []
        for column, ids in self.column_ids.items():
            x, y = sorted((occ[column], occ.get(column - 1, ())))
            i = bisect_right(x, y[0])
            if i < len(x) and x[i] < y[-1]:
                runs[-1] = range(runs[-1].start, ids.stop)
            else:
                runs.append(ids)
        return tuple(runs)

    @cached_property
    def bricks(self) -> tuple[Brick, ...]:
        return tuple(Brick(*span) for span in self.spans())

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
                "word": self.word.to_dict(),
                "bricks": [
                    {"id": b, "column": c, "lo": lo, "hi": hi} for b, c, lo, hi in self.spans()
                ],
            }
        )


def build_bricks(w: BraidWord) -> BrickDiagram:
    """One brick per adjacent pair of same-index crossings, in canonical order;
    shared by every caller passing an equal word while it is recent."""
    return _bricks(w)


_bricks = lru_cache(maxsize=CACHE_SIZE)(BrickDiagram)
