"""Brick numbering: each column's bricks are one id range.

BrickDiagram.column_ids is the one per-column index, and by_column and
column_rank are read off it. It must agree with a direct scan of the
word (conftest.brick_pairs_oracle), be column-major and contiguous, and
leave out every column with fewer than two occurrences.
"""

import pytest
from hypothesis import given, settings, strategies as st

from braidforge.bricks import build_bricks
from braidforge.words import BraidWord

from conftest import brick_pairs_oracle

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

# up to 7 strands with short words, so most words leave some columns
# unused and use others once
words = st.integers(2, 7).flatmap(
    lambda n: st.lists(st.integers(1, n - 1), max_size=20).map(
        lambda letters: BraidWord(n, tuple(letters))
    )
)


@SETTINGS
@given(words)
def test_column_ids_are_the_oracle_numbering(w):
    d = build_bricks(w)
    oracle = brick_pairs_oracle(w)
    expected: dict[int, list[int]] = {}
    for brick_id, (column, _, _) in enumerate(oracle, start=1):
        expected.setdefault(column, []).append(brick_id)
    assert {c: list(ids) for c, ids in d.column_ids.items()} == expected
    # column-major and contiguous: the ranges tile 1..len(bricks) in column order
    ranges = list(d.column_ids.values())
    assert list(d.column_ids) == sorted(d.column_ids)
    assert [i for ids in ranges for i in ids] == list(range(1, len(d.bricks) + 1))
    assert all(ids.step == 1 and len(ids) >= 1 for ids in ranges)
    for column in range(1, w.strands):
        ids = d.column_ids.get(column, range(0))
        assert [b.id for b in d.by_column(column)] == list(ids)
        assert len(ids) == max(w.letters.count(column) - 1, 0)
        for rank, brick_id in enumerate(ids, start=1):
            assert d.column_rank(brick_id) == (column, rank)
            assert d.brick(brick_id).column == column


def test_unused_and_single_occurrence_columns_have_no_range():
    # column 1 thrice, 2 once, 3 unused, 4 twice, 5 once
    d = build_bricks(BraidWord(7, (1, 2, 1, 4, 5, 1, 4)))
    assert dict(d.column_ids) == {1: range(1, 3), 4: range(3, 4)}
    assert d.by_column(2) == d.by_column(3) == ()
    assert [b.id for b in d.by_column(4)] == [3]
    assert d.column_rank(3) == (4, 1)


def test_column_ids_is_read_only():
    d = build_bricks(BraidWord(3, (1, 2, 1, 2)))
    with pytest.raises(TypeError):
        d.column_ids[3] = range(5, 6)  # type: ignore[index]
    assert d.column_ids is d.column_ids
