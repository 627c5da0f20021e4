"""move_map and maps_along_moves against the GeneratorMap chain they replaced.

The reference below is the previous implementation: it builds a linking
graph and a presentation for every word on a move's path (an interior
braid relation rotates its tail to the top and back, 4*tail + 2
presentations) and composes GeneratorMaps. The library reads every step
off brick diagrams and builds presentations for the two end words only;
images, inverse images and both presentations must be identical. A move
that does not apply is refused with apply_move's error, the one check on
a move, where the reference raised errors of its own.
"""

import random

import pytest

from braidforge import isomaps
from braidforge.bricks import BrickDiagram, build_bricks
from braidforge.errors import MoveError
from braidforge.garside import conjugacy_move_sequence_detailed, delta_word
from braidforge.isomaps import GeneratorMap, maps_along_moves, move_map, substitute
from braidforge.linking import build_graph
from braidforge.presentations import GroupWord, Presentation, free_reduce, presentation_of
from braidforge.words import BraidWord, MoveKind, WordMove, apply_move, enumerate_moves, replay


# -- the previous implementation, kept as a test-only reference --------------



def _reference_compose(m1: GeneratorMap, m2: GeneratorMap) -> GeneratorMap:
    images = tuple(substitute(w, m2.images) for w in m1.images)
    inverse = tuple(substitute(w, m1.inverse_images) for w in m2.inverse_images)
    return GeneratorMap(m1.source, m2.target, images, inverse)


def _reference_inverted(m: GeneratorMap) -> GeneratorMap:
    return GeneratorMap(m.target, m.source, m.inverse_images, m.images)


def _rank_index(d: BrickDiagram) -> dict[tuple[int, int], int]:
    """(column, bottom-up rank) -> brick id."""
    out: dict[tuple[int, int], int] = {}
    counts: dict[int, int] = {}
    for b in d.bricks:
        counts[b.column] = counts.get(b.column, 0) + 1
        out[(b.column, counts[b.column])] = b.id
    return out


def _presentations(w: BraidWord) -> tuple[BrickDiagram, Presentation]:
    d = build_bricks(w)
    return d, presentation_of(build_graph(d))


def _relabel_map(
    src: tuple[BrickDiagram, Presentation],
    dst: tuple[BrickDiagram, Presentation],
) -> GeneratorMap:
    """Rank-by-rank correspondence when the move leaves bricks in place."""
    sd, sp = src
    dd, dp = dst
    dst_rank = _rank_index(dd)
    images: list[GroupWord] = []
    for b in sd.bricks:
        col, rank = sd.column_rank(b.id)
        images.append((dst_rank[(col, rank)],))
    src_rank = _rank_index(sd)
    inverse: list[GroupWord] = []
    for b in dd.bricks:
        col, rank = dd.column_rank(b.id)
        inverse.append((src_rank[(col, rank)],))
    return GeneratorMap(sp, dp, tuple(images), tuple(inverse))


def reference_conjugation_map(w: BraidWord, end: str = "right") -> GeneratorMap:
    """Generator map across an elementary conjugation at the given end.

    With n bricks in the moved letter's column, the top source brick maps
    to the new bottom target generator conjugated through the rest of the
    column; n = 0 leaves the graphs equal and the map is the identity
    relabeling.
    """
    if end not in ("left", "right"):
        raise ValueError("end must be 'left' or 'right'")
    if end == "left":
        moved = apply_move(w, WordMove(MoveKind.ELEM_CONJ_LEFT, 1))
        return _reference_inverted(reference_conjugation_map(moved, "right"))

    if not w.letters:
        raise MoveError("elementary conjugation needs a nonempty word")
    move = WordMove(MoveKind.ELEM_CONJ_RIGHT, len(w.letters))
    w2 = apply_move(w, move)
    column = w.letters[-1]
    src = _presentations(w)
    dst = _presentations(w2)
    sd, sp = src
    dd, dp = dst
    n = len(sd.by_column(column))
    if n == 0:
        return _relabel_map(src, dst)

    src_rank = _rank_index(sd)
    dst_rank = _rank_index(dd)

    images: list[GroupWord] = [()] * sp.n_generators
    for b in sd.bricks:
        col, rank = sd.column_rank(b.id)
        if col != column:
            images[b.id - 1] = (dst_rank[(col, rank)],)
        elif rank < n:
            images[b.id - 1] = (dst_rank[(col, rank + 1)],)
        else:
            # top brick wraps to the bottom: T_n T_{n-1} .. T_2 T_1 T_2^-1 .. T_n^-1
            down = [dst_rank[(col, r)] for r in range(n, 1, -1)]
            core = (dst_rank[(col, 1)],)
            word = tuple(down) + core + tuple(-g for g in reversed(down))
            images[b.id - 1] = free_reduce(word)

    inverse: list[GroupWord] = [()] * dp.n_generators
    for b in dd.bricks:
        col, rank = dd.column_rank(b.id)
        if col != column:
            inverse[b.id - 1] = (src_rank[(col, rank)],)
        elif rank > 1:
            inverse[b.id - 1] = (src_rank[(col, rank - 1)],)
        else:
            # new bottom brick: S_1^-1 .. S_{n-1}^-1 S_n S_{n-1} .. S_1
            up = [src_rank[(col, r)] for r in range(1, n)]
            core = (src_rank[(col, n)],)
            word = tuple(-g for g in up) + core + tuple(reversed(up))
            inverse[b.id - 1] = free_reduce(word)

    return GeneratorMap(sp, dp, tuple(images), tuple(inverse))


def reference_braid_relation_map(w: BraidWord, position: int | None = None) -> GeneratorMap:
    """Generator map across a braid relation at the top of the word.

    The word must end with the pattern sigma_i sigma_{i+1} sigma_i (after
    elementary conjugations have brought the relation to the top; interior
    positions go through move_map).
    """
    n_letters = len(w.letters)
    if position is None:
        position = n_letters - 2
    move = WordMove(MoveKind.BRAID_REL, position)
    if position != n_letters - 2:
        raise MoveError("braid_relation_map needs the relation at the top")
    w2 = apply_move(w, move)  # validates the pattern
    i = w.letters[position - 1]
    j = w.letters[position]
    if j != i + 1:
        # Pattern sigma_{i+1} sigma_i sigma_{i+1}: the mirror move shifting a
        # brick from column i+1 down to column i is the inverse situation.
        return _reference_inverted(reference_braid_relation_map(w2, position))

    src = _presentations(w)
    dst = _presentations(w2)
    sd, sp = src
    dd, dp = dst
    n = len(sd.by_column(i))
    src_rank = _rank_index(sd)
    dst_rank = _rank_index(dd)
    m = len(sd.by_column(i + 1))
    shifted = dst_rank[(i + 1, m + 1)]  # the brick that crossed columns

    images: list[GroupWord] = [()] * sp.n_generators
    for b in sd.bricks:
        col, rank = sd.column_rank(b.id)
        if col == i and rank == n:
            images[b.id - 1] = (shifted,)
        elif col == i and rank == n - 1:
            prime = dst_rank[(i, n - 1)]
            images[b.id - 1] = (-shifted, prime, shifted)
        else:
            images[b.id - 1] = (dst_rank[(col, rank)],)

    inverse: list[GroupWord] = [()] * dp.n_generators
    top_src = src_rank[(i, n)]
    for b in dd.bricks:
        col, rank = dd.column_rank(b.id)
        if b.id == shifted:
            inverse[b.id - 1] = (top_src,)
        elif col == i and rank == n - 1:
            below = src_rank[(i, n - 1)]
            inverse[b.id - 1] = (top_src, below, -top_src)
        else:
            inverse[b.id - 1] = (src_rank[(col, rank)],)

    return GeneratorMap(sp, dp, tuple(images), tuple(inverse))


def reference_move_map(w: BraidWord, m: WordMove) -> GeneratorMap:
    """The generator map across any single word move."""
    if m.kind is MoveKind.ELEM_CONJ_RIGHT:
        return reference_conjugation_map(w, "right")
    if m.kind is MoveKind.ELEM_CONJ_LEFT:
        return reference_conjugation_map(w, "left")
    if m.kind in (MoveKind.FAR_COMM, MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB):
        w2 = apply_move(w, m)
        return _relabel_map(_presentations(w), _presentations(w2))
    if m.kind is MoveKind.BRAID_REL:
        tail = len(w.letters) - (m.position + 2)
        if tail == 0:
            return reference_braid_relation_map(w, m.position)
        # Rotate the tail to the front, apply at the top, rotate back.
        maps = []
        cur = w
        for _ in range(tail):
            maps.append(reference_conjugation_map(cur, "right"))
            cur = apply_move(cur, WordMove(MoveKind.ELEM_CONJ_RIGHT, len(cur.letters)))
        maps.append(reference_braid_relation_map(cur))
        cur = apply_move(cur, WordMove(MoveKind.BRAID_REL, len(cur.letters) - 2))
        for _ in range(tail):
            maps.append(reference_conjugation_map(cur, "left"))
            cur = apply_move(cur, WordMove(MoveKind.ELEM_CONJ_LEFT, 1))
        composite = maps[0]
        for nxt in maps[1:]:
            composite = _reference_compose(composite, nxt)
        return composite
    raise MoveError(f"no generator map for move kind {m.kind}")


def reference_maps_along_moves(w: BraidWord, moves: list[WordMove]) -> GeneratorMap:
    """Composite generator map along a move sequence."""
    cur = w
    composite: GeneratorMap | None = None
    for m in moves:
        step = reference_move_map(cur, m)
        composite = step if composite is None else _reference_compose(composite, step)
        cur = apply_move(cur, m)
    if composite is None:
        _, p = _presentations(w)
        gens = tuple((g,) for g in range(1, p.n_generators + 1))
        return GeneratorMap(p, p, gens, gens)
    return composite




# -- corpus -------------------------------------------------------------------

def _random_words(seed: int, count: int) -> list[BraidWord]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(3, 5)
        n = rng.randint(1, 24)
        out.append(BraidWord(strands, tuple(rng.randint(1, strands - 1) for _ in range(n))))
    return out


def _interior_braid_words(seed: int, count: int) -> list[tuple[BraidWord, int]]:
    """Words with a braid relation at a known position and a tail of 8 or more."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randint(3, 5)
        i = rng.randint(1, strands - 2)
        core = (i, i + 1, i) if rng.random() < 0.5 else (i + 1, i, i + 1)
        head = tuple(rng.randint(1, strands - 1) for _ in range(rng.randint(0, 6)))
        tail = tuple(rng.randint(1, strands - 1) for _ in range(rng.randint(8, 15)))
        out.append((BraidWord(strands, head + core + tail), len(head) + 1))
    return out


def _random_walk(seed: int) -> tuple[BraidWord, list[WordMove]]:
    rng = random.Random(seed)
    strands = rng.randint(3, 5)
    w = BraidWord(strands, tuple(rng.randint(1, strands - 1) for _ in range(rng.randint(1, 14))))
    moves, cur = [], w
    for _ in range(rng.randint(1, 8)):
        m = rng.choice(enumerate_moves(cur))
        moves.append(m)
        cur = apply_move(cur, m)
    return w, moves


def assert_same_map(got: GeneratorMap, want: GeneratorMap) -> None:
    assert got.images == want.images
    assert got.inverse_images == want.inverse_images
    assert got.source == want.source
    assert got.target == want.target


# -- differential tests ---------------------------------------------------------

@pytest.mark.parametrize("seed", [11, 12, 13])
def test_every_move_of_random_words(seed):
    for w in _random_words(seed, 12):
        for m in enumerate_moves(w):
            assert_same_map(move_map(w, m), reference_move_map(w, m))


def test_interior_braid_relations_with_long_tails():
    cases = _interior_braid_words(21, 10)
    for w, p in cases:
        m = WordMove(MoveKind.BRAID_REL, p)
        assert len(w.letters) - (p + 2) >= 8
        assert_same_map(move_map(w, m), reference_move_map(w, m))
    # the mirrored pattern occurs too
    assert {w.letters[p] > w.letters[p - 1] for w, p in cases} == {True, False}


def test_wrappers_match_reference():
    # the reference's one-move maps at the ends against the moves they make
    for w in _random_words(31, 20):
        if not w.letters:
            continue
        right = WordMove(MoveKind.ELEM_CONJ_RIGHT, len(w))
        assert_same_map(move_map(w, right), reference_conjugation_map(w, "right"))
        left = WordMove(MoveKind.ELEM_CONJ_LEFT, 1)
        assert_same_map(move_map(w, left), reference_conjugation_map(w, "left"))
    for w, p in _interior_braid_words(32, 6):
        top = BraidWord(w.strands, w.letters[: p + 2])
        m = WordMove(MoveKind.BRAID_REL, p)
        assert_same_map(move_map(top, m), reference_braid_relation_map(top))
        assert_same_map(move_map(top, m), reference_braid_relation_map(top, p))


@pytest.mark.parametrize("seed", range(41, 61))
def test_random_move_sequences(seed):
    w, moves = _random_walk(seed)
    assert_same_map(maps_along_moves(w, moves), reference_maps_along_moves(w, moves))


def test_found_move_sequences_and_empty_sequence():
    rng = random.Random(71)
    for _ in range(4):
        a = BraidWord(3, delta_word(3) + tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4))))
        b = a
        for _ in range(rng.randint(1, 5)):
            moves = [
                m for m in enumerate_moves(b)
                if m.kind not in (MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB)
            ]
            b = apply_move(b, rng.choice(moves))
        moves = list(conjugacy_move_sequence_detailed(a, b).moves)
        assert_same_map(maps_along_moves(a, moves), reference_maps_along_moves(a, moves))
    w = BraidWord(3, (1, 2, 1, 1))
    assert_same_map(maps_along_moves(w, []), reference_maps_along_moves(w, []))


EMPTY = BraidWord(3, ())
W = BraidWord(3, (1, 2, 1, 1))  # braid relation at 1, not at the top
EMPTIED = (BraidWord(3, (2,)), WordMove(MoveKind.MARKOV_DESTAB, 1))  # destab leaves ()


ERROR_CASES = {
    "conj-right-empty": (
        "maps_along_moves", EMPTIED[0], [EMPTIED[1], WordMove(MoveKind.ELEM_CONJ_RIGHT, 0)]
    ),
    "conj-left-empty": (
        "maps_along_moves", EMPTIED[0], [EMPTIED[1], WordMove(MoveKind.ELEM_CONJ_LEFT, 1)]
    ),
    "conjR-empty": ("move_map", EMPTY, WordMove(MoveKind.ELEM_CONJ_RIGHT, 0)),
    "conjL-empty": ("move_map", EMPTY, WordMove(MoveKind.ELEM_CONJ_LEFT, 1)),
    "braid-top-empty": ("move_map", EMPTY, WordMove(MoveKind.BRAID_REL, -2)),
    "sequence-empty": ("maps_along_moves", EMPTY, [WordMove(MoveKind.ELEM_CONJ_RIGHT, 0)]),
    "braid-top-no-pattern": ("move_map", W, WordMove(MoveKind.BRAID_REL, 2)),
    "braid-interior-no-pattern": (
        "move_map", BraidWord(3, (1, 2, 2, 1, 1)), WordMove(MoveKind.BRAID_REL, 1)
    ),
    "farcomm-adjacent": ("move_map", W, WordMove(MoveKind.FAR_COMM, 1)),
    "destab-repeated": ("move_map", W, WordMove(MoveKind.MARKOV_DESTAB, 4)),
    "sequence-conjR-misplaced": (
        "maps_along_moves", W, [WordMove(MoveKind.ELEM_CONJ_RIGHT, 2)]
    ),
    "sequence-second-move": (
        "maps_along_moves",
        W,
        [WordMove(MoveKind.BRAID_REL, 1), WordMove(MoveKind.FAR_COMM, 1)],
    ),
}


@pytest.mark.parametrize("case", ERROR_CASES.values(), ids=ERROR_CASES.keys())
def test_same_errors(case):
    name, w, moves = case
    with pytest.raises(MoveError) as want:
        replay(w, moves if name == "maps_along_moves" else [moves])
    with pytest.raises(MoveError) as got:
        getattr(isomaps, name)(w, moves)
    assert str(got.value) == str(want.value)


def test_braid_relation_past_the_top_is_rejected():
    # A braid relation at position n - 1 does not apply; the reference read
    # it as the relation at n - 2 and returned that map.
    w = BraidWord(3, (2, 1, 2, 1))
    m = WordMove(MoveKind.BRAID_REL, 3)
    assert_same_map(reference_move_map(w, m), move_map(w, WordMove(MoveKind.BRAID_REL, 2)))
    with pytest.raises(MoveError, match="braid does not apply at position 3"):
        move_map(w, m)


# -- presentations built --------------------------------------------------------

@pytest.fixture
def presentation_calls(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return presentation_of(g)

    monkeypatch.setattr(isomaps, "presentation_of", counted)
    return calls


def test_two_presentations_per_move_map(presentation_calls):
    words = _random_words(81, 6) + [w for w, _ in _interior_braid_words(82, 4)]
    for w in words:
        for m in enumerate_moves(w):
            presentation_calls.clear()
            move_map(w, m)
            assert len(presentation_calls) == 2, (w, m)


def test_two_presentations_per_sequence(presentation_calls):
    for seed in range(91, 101):
        w, moves = _random_walk(seed)
        presentation_calls.clear()
        maps_along_moves(w, moves)
        assert len(presentation_calls) == 2, (w, moves)
    for w, m in (
        (W, WordMove(MoveKind.ELEM_CONJ_LEFT, 1)),
        (W, WordMove(MoveKind.ELEM_CONJ_RIGHT, 4)),
        (BraidWord(3, (1, 1, 2, 1)), WordMove(MoveKind.BRAID_REL, 2)),
    ):
        presentation_calls.clear()
        move_map(w, m)
        assert len(presentation_calls) == 2


# -- the fold's cases -------------------------------------------------------------

def test_interior_braid_relations_fold_cases():
    cases = [
        # tails with letters of columns other than the relation's two, one
        # of them (4 below, 1 and 5 further up) with a single occurrence
        (BraidWord(6, (1, 2, 3, 2, 5, 1, 4, 5, 2, 3, 1, 3)), 2),
        (BraidWord(5, (3, 4, 3, 1, 2, 1, 2, 4, 1)), 1),
        # the tail holds every occurrence of column 2 outside the relation,
        # and then of column 1, so rotations wrap those columns fully
        (BraidWord(4, (1, 2, 1, 2, 3, 2, 2)), 1),
        (BraidWord(4, (3, 1, 2, 1, 1, 3, 1)), 2),
        # the mirrored pattern, with and without other columns in the tail
        (BraidWord(4, (2, 1, 2, 2, 1, 1, 2)), 1),
        (BraidWord(6, (4, 3, 4, 1, 5, 3, 4, 1, 4)), 1),
        # position 1 with the longest tail
        (BraidWord(4, (1, 2, 1) + (3, 2, 1, 2, 3, 1, 1, 2, 3, 3, 2, 1, 2)), 1),
        (BraidWord(5, (4, 3, 4) + (1, 3, 4, 2, 4, 3, 3, 1, 4, 3, 2, 4)), 1),
    ]
    for w, p in cases:
        m = WordMove(MoveKind.BRAID_REL, p)
        assert len(w.letters) - (p + 2) > 0
        assert_same_map(move_map(w, m), reference_move_map(w, m))
    malformed = [
        (BraidWord(4, (1, 2, 3, 1, 1)), 1),  # outer letters differ
        (BraidWord(4, (1, 3, 1, 2, 2)), 1),  # inner letter two columns away
        (BraidWord(3, (2, 2, 2, 1)), 1),  # a repeated letter
        (BraidWord(5, (4, 1, 2, 4, 3, 4)), 2),
    ]
    for w, p in malformed:
        m = WordMove(MoveKind.BRAID_REL, p)
        with pytest.raises(MoveError) as want:
            apply_move(w, m)
        with pytest.raises(MoveError) as got:
            move_map(w, m)
        assert str(got.value) == str(want.value)


def test_braid_relation_before_the_start_is_rejected():
    # Positions below 1 rotated the word past its first letters, and the
    # reference read a relation wrapping around the end of the word.
    w = BraidWord(3, (2, 1, 2, 1))
    assert isinstance(reference_move_map(w, WordMove(MoveKind.BRAID_REL, 0)), GeneratorMap)
    for p in (0, -1):
        with pytest.raises(MoveError, match=f"braid does not apply at position {p}"):
            move_map(w, WordMove(MoveKind.BRAID_REL, p))
