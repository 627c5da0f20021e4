from braidforge.bricks import build_bricks
from braidforge.words import BraidWord, MoveKind, apply_move, enumerate_moves, parse_word

from conftest import brick_pairs_oracle, random_word


def test_worked_example_bricks():
    d = build_bricks(parse_word("1 2 1 1 2 1"))
    assert [(b.column, b.lo, b.hi) for b in d.bricks] == [
        (1, 1, 3), (1, 3, 4), (1, 4, 6), (2, 2, 5),
    ]
    assert [b.id for b in d.bricks] == [1, 2, 3, 4]


def test_single_letter_no_bricks():
    assert build_bricks(parse_word("1", strands=4)).n_bricks == 0


def test_figure_word_counts():
    d = build_bricks(parse_word("1 3 1 2 1 3 1 3 1 2 3 1 3 2"))
    per_column = {c: len(d.by_column(c)) for c in (1, 2, 3)}
    assert per_column == {1: 5, 2: 2, 3: 4}
    assert len(d.bricks) == 11


def test_power_words():
    for n in range(2, 8):
        assert build_bricks(BraidWord(2, (1,) * n)).n_bricks == n - 1
    assert build_bricks(BraidWord(2, ())).n_bricks == 0
    for q in range(1, 6):
        assert build_bricks(BraidWord(3, (1, 2) * q)).n_bricks == 2 * q - 2


def test_matches_direct_scan_oracle(rng):
    for _ in range(200):
        w = random_word(rng)
        d = build_bricks(w)
        assert [(b.column, b.lo, b.hi) for b in d.bricks] == brick_pairs_oracle(w)


def test_canonical_order_and_determinism(rng):
    for _ in range(50):
        w = random_word(rng)
        d1, d2 = build_bricks(w), build_bricks(w)
        assert d1 == d2
        cols = [b.column for b in d1.bricks]
        assert cols == sorted(cols)
        for c in set(cols):
            los = [b.lo for b in d1.by_column(c)]
            assert los == sorted(los)


def test_column_rank():
    d = build_bricks(parse_word("1 2 1 1 2 1"))
    assert d.column_rank(1) == (1, 1)
    assert d.column_rank(3) == (1, 3)
    assert d.column_rank(4) == (2, 1)


def test_brick_count_invariant_under_neutral_moves(rng):
    for _ in range(100):
        w = random_word(rng)
        for m in enumerate_moves(w):
            if m.kind in (MoveKind.FAR_COMM, MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB):
                assert build_bricks(apply_move(w, m)).n_bricks == build_bricks(w).n_bricks
