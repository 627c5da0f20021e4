"""The pair-table presentation against the eager relator list it replaced.

reference_presentation_of builds every braid, commutation and cycle
relator object up front, as presentation_of did before pair relators
were read off the table. The two must agree relator by relator, on
key(), abelianization, exponent columns and hom sets (same order), and
check_map's relabeling shortcut on two tables must give the verdict of
the relator word-set comparison.
"""

import random

from hypothesis import given, settings, strategies as st

from braidforge.bricks import build_bricks
from braidforge.errors import ResourceCapError
from braidforge.finite_groups import builtin_targets
from braidforge.invariants import abelianization, enumerate_homs
from braidforge.isomaps import GeneratorMap, check_map
from braidforge.linking import build_graph
from braidforge.presentations import (
    Presentation,
    braid_relator,
    comm_relator,
    cycle_relator,
    exponent_sums,
    presentation_of,
    relabels_onto,
    shifted_cycle_presentation,
)
from braidforge.words import BraidWord, MoveKind, apply_move, enumerate_moves

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)
TARGETS = builtin_targets()

words = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, n - 1), min_size=0, max_size=30),
        st.integers(0, 2**32),
    )
)


def reference_presentation_of(g) -> Presentation:
    """Braid relator per edge, commutation per non-edge, cycle per region."""
    k = len(g.diagram.bricks)
    linked = {(e.a, e.b) for e in g.edges}
    relators = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if (i, j) in linked:
                relators.append(braid_relator(i, j))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if (i, j) not in linked:
                relators.append(comm_relator(i, j))
    for idx, region in enumerate(g.regions):
        relators.append(cycle_relator(region.vertices, ("region", idx)))
    return Presentation(k, tuple(relators))


def _homs(p, t):
    try:
        return enumerate_homs(p, t)
    except ResourceCapError:
        return None


def _word_sets_agree(m) -> bool:
    """The shortcut's condition spelled on every relator word."""
    return {m.apply(r.word) for r in m.source.relators} == {r.word for r in m.target.relators}


@SETTINGS
@given(words)
def test_table_matches_eager_relators(case):
    n, letters, _ = case
    g = build_graph(build_bricks(BraidWord(n, tuple(letters))))
    got, want = presentation_of(g), reference_presentation_of(g)
    assert got.comm_pairs is None and want.comm_pairs is not None
    assert got.columns() == want.columns()
    assert got.columns() == [
        (i, exponent_sums(r.word)) for i, r in enumerate(want.relators) if exponent_sums(r.word)
    ]
    assert abelianization(got) == abelianization(want)
    for name in ("S3", "S4"):
        assert _homs(got, TARGETS[name]) == _homs(want, TARGETS[name])
    # words last: reading them spells the table's pair relators
    assert got.relators == want.relators
    assert got.key() == want.key()
    assert got == want and hash(got) == hash(want)


@SETTINGS
@given(words)
def test_relabeling_shortcut_matches_word_sets(case):
    n, letters, seed = case
    rng = random.Random(seed)
    w = BraidWord(n, tuple(letters))
    others = [w] + [
        apply_move(w, m) for m in enumerate_moves(w)
        if m.kind in (MoveKind.FAR_COMM, MoveKind.BRAID_REL, MoveKind.ELEM_CONJ_RIGHT)
    ]
    g = build_graph(build_bricks(w))
    p = presentation_of(g)
    k = p.n_generators
    for v in rng.sample(others, min(4, len(others))):
        h = build_graph(build_bricks(v))
        if len(h.diagram.bricks) != k:
            continue
        q = presentation_of(h)
        perms = [list(range(1, k + 1))]
        for _ in range(2):
            perm = perms[0][:]
            rng.shuffle(perm)
            perms.append(perm)
        for perm in perms:
            inverse = [0] * k
            for g_id, image in enumerate(perm, start=1):
                inverse[image - 1] = g_id
            images = tuple((x,) for x in perm)
            back = tuple((x,) for x in inverse)
            table_map = GeneratorMap(p, q, images, back)
            eager_map = GeneratorMap(
                reference_presentation_of(g), reference_presentation_of(h), images, back
            )
            assert relabels_onto(p, q, perm) == _word_sets_agree(eager_map)
            assert check_map(table_map, [TARGETS["S3"]]) == check_map(
                eager_map, [TARGETS["S3"]]
            )
    identity = list(range(1, k + 1))
    assert relabels_onto(p, presentation_of(g), identity)
    # one cycle relator rotated: same pair table, other cycle words
    for idx in range(len(p.cycles)):
        shifted = shifted_cycle_presentation(p, idx, 1)
        table = Presentation.from_table(k, p.braid_pairs, shifted.cycles)
        assert relabels_onto(p, table, identity) == relabels_onto(
            reference_presentation_of(g), shifted, identity
        )
