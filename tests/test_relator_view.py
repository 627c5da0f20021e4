"""A presentation's relators as a sized view, against the tuple they spell.

``Presentation.relators`` spells each relator only when it is read.
Swept presentations (2-9 strands, 0-60 letters, both sign conventions)
and presentations read off relators (a pair carrying both kinds, cycles,
no generators at all) must give a length, items at every index and
negative index, slices, equality, hash and repr that the tuple of their
relators gives; and taking the length builds no Relator.
"""

import pytest
from hypothesis import given, settings, strategies as st

from braidforge.bricks import build_bricks
from braidforge.linking import SIGN_CONVENTIONS, build_graph
from braidforge.presentations import (
    Presentation,
    Relator,
    braid_relator,
    comm_relator,
    cycle_relator,
    presentation_of,
)
from braidforge.words import BraidWord

from test_analysis_cache import clear_caches, counted_constructions

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)

swept = st.integers(2, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=60))
)


@st.composite
def read(draw) -> Presentation:
    """Pairs with a braid relator, a commutation relator or both, cycle
    relators of regions and of other words, on 0-6 generators."""
    k = draw(st.integers(0, 6))
    relators = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            kinds = draw(st.sampled_from(((), (braid_relator,), (comm_relator,),
                                          (braid_relator, comm_relator))))
            relators += [kind(i, j) for kind in kinds]
    for _ in range(draw(st.integers(0, 3)) if k >= 3 else 0):
        cycle = draw(st.permutations(range(1, k + 1)))[: draw(st.integers(3, k))]
        relators.append(cycle_relator(tuple(cycle)))
        word = draw(st.lists(st.integers(1, k) | st.integers(-k, -1), max_size=7))
        relators.append(Relator(tuple(word), (), ("other",)))
    return Presentation(k, tuple(draw(st.permutations(relators))))


def assert_reads_as_its_tuple(p: Presentation) -> None:
    view, spelled = p.relators, tuple(p.relators)
    n = len(spelled)
    assert len(view) == n
    assert [view[i] for i in range(n)] == list(spelled)
    assert [view[-i] for i in range(1, n + 1)] == [spelled[-i] for i in range(1, n + 1)]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            view[index]
    bounds = (None, 1, n // 2, n + 3, -2, -n - 3)
    for step in (None, 2, -1, -3):
        for start in bounds:
            for stop in bounds:
                got = view[start:stop:step]
                assert type(got) is tuple and got == spelled[start:stop:step]
    assert view == spelled and spelled == view and view == p.relators
    assert not view != spelled
    assert view != spelled + (comm_relator(1, 2),) and view != list(spelled)
    assert hash(view) == hash(spelled) and repr(view) == repr(spelled)
    if n:
        assert view.index(spelled[-1]) == spelled.index(spelled[-1])
        assert spelled[n // 2] in view


@SETTINGS
@given(swept)
def test_swept_relators_read_as_their_tuple(case):
    n, letters = case
    d = build_bricks(BraidWord(n, tuple(letters)))
    for convention in SIGN_CONVENTIONS:
        assert_reads_as_its_tuple(presentation_of(build_graph(d, convention)))


@SETTINGS
@given(read())
def test_read_relators_read_as_their_tuple(p):
    assert_reads_as_its_tuple(p)


def test_length_builds_no_relator(monkeypatch):
    clear_caches()
    p = presentation_of(build_graph(build_bricks(BraidWord(4, (1, 2, 3, 1, 2, 1, 3, 2) * 4))))
    q = Presentation(4, (braid_relator(1, 2), comm_relator(1, 2), cycle_relator((1, 2, 3))))
    built = counted_constructions(monkeypatch)
    k = p.n_generators
    assert len(p.relators) == k * (k - 1) // 2 + len(p.region_cycles) and len(q.relators) == 3
    assert built["Relator"] == 0
