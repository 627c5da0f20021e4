"""The pair-table presentation against the eager relator list it replaced.

reference_relators builds every braid, commutation and cycle relator
object up front, as presentation_of did before pair relators were read
off the table. The table must spell the same relators, its lattice's
components must be those of the graph the eager relators' exponent
columns join, its abelianization and hom sets must be those of the eager relator
words, and check_map's relabeling shortcut on two tables must give the
verdict of the relator word-set comparison, on graphs and on hand-built
relators. A hand-built presentation hands out each relator with the kind
its word has. A graph's presentation, which stores region tuples and
spells words and relators only when read, must serialize, compare and
hash as the presentation given the eager relators does; apart from that
comparison the eager relators are never made into a Presentation, which
would be a table too.
"""

import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from braidforge.bricks import build_bricks
from braidforge.errors import ResourceCapError
from braidforge.finite_groups import builtin_targets
from braidforge.invariants import ColumnLattice, abelianization, enumerate_homs
from braidforge.isomaps import GeneratorMap, check_map
from braidforge.linking import SIGN_CONVENTIONS, build_graph
from braidforge.presentations import (
    Presentation,
    Relator,
    RelatorKind,
    _pair_of,
    braid_relator,
    comm_relator,
    cycle_relator,
    exponent_sums,
    free_reduce,
    presentation_of,
    relabels_onto,
    serialize,
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


def reference_relators(g) -> tuple:
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
    return tuple(relators)


def reference_homs(k, relators, t) -> list:
    """Every assignment of target elements to generators 1..k satisfying
    every relator word, in lexicographic order; a word is evaluated once
    its largest generator is assigned."""
    closing = [[] for _ in range(k)]
    for r in relators:
        if r.word:
            closing[max(map(abs, r.word)) - 1].append(r.word)
    found, images = [], []

    def holds(word):
        acc = t.identity
        for x in word:
            g = images[abs(x) - 1]
            acc = t.mul(acc, g if x > 0 else t.inv(g))
        return acc == t.identity

    def extend():
        if len(images) == k:
            found.append(tuple(images))
            return
        for v in range(t.size):
            images.append(v)
            if all(holds(w) for w in closing[len(images) - 1]):
                extend()
            images.pop()

    extend()
    return found


def _homs(p, t):
    try:
        return enumerate_homs(p, t)
    except ResourceCapError:
        return None


def _word_sets_agree(src_relators, dst_relators, perm) -> bool:
    """The shortcut's condition spelled on every relator word (renaming a
    freely reduced word by a bijection keeps it reduced)."""
    rename = [0, *perm]
    renamed = {tuple(rename[x] if x > 0 else -rename[-x] for x in r.word) for r in src_relators}
    return renamed == {r.word for r in dst_relators}


@SETTINGS
@given(words)
def test_table_matches_eager_relators(case):
    n, letters, _ = case
    g = build_graph(build_bricks(BraidWord(n, tuple(letters))))
    got, want = presentation_of(g), reference_relators(g)
    k = got.n_generators
    assert got.comm_pairs is None
    joined = nx.Graph()
    joined.add_nodes_from(range(k))
    joined.add_edges_from(tuple(s) for s in map(exponent_sums, (r.word for r in want)) if s)
    lattice = ColumnLattice.of(got)
    parts = [set() for _ in range(lattice.n_components)]
    for g, label in enumerate(lattice.component):
        parts[label].add(g)
    assert sorted(map(sorted, parts)) == sorted(map(sorted, nx.connected_components(joined)))
    c = nx.number_connected_components(joined)
    assert abelianization(got).invariant_factors == (1,) * (k - c) + (0,) * c
    for name in ("S3", "S4"):
        homs = _homs(got, TARGETS[name])
        assert homs is None or homs == reference_homs(k, want, TARGETS[name])
    # words last: reading them spells the table's pair relators
    assert got.relators == want


wide_words = st.integers(2, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=60))
)


@SETTINGS
@given(wide_words)
def test_spelled_presentation_matches_eager_relators(case):
    n, letters = case
    d = build_bricks(BraidWord(n, tuple(letters)))
    for convention in SIGN_CONVENTIONS:
        g = build_graph(d, convention)
        got = presentation_of(g)
        want = reference_relators(g)
        eager = Presentation(got.n_generators, want)
        assert eager.region_cycles is None and got.region_cycles is not None
        assert got.cycle_words == tuple(r.word for r in want if r.kind is RelatorKind.CYCLE)
        assert got == eager and hash(got) == hash(eager)
        for fmt in ("json", "plain", "gap-style"):
            assert serialize(got, fmt) == serialize(eager, fmt)
        assert got.relators == want


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
            agree = _word_sets_agree(reference_relators(g), reference_relators(h), perm)
            assert relabels_onto(p, q, perm) == agree
            report = check_map(GeneratorMap(p, q, images, back), [TARGETS["S3"]])
            assert report.method == ("relabeling" if agree else "quotients")
    identity = list(range(1, k + 1))
    assert relabels_onto(p, presentation_of(g), identity)
    # one cycle relator rotated: same pair table, other cycle words
    for idx in range(len(p.cycles)):
        shifted = shifted_cycle_presentation(p, idx, 1)
        assert shifted.comm_pairs is None
        assert relabels_onto(p, shifted, identity) == _word_sets_agree(
            reference_relators(g), shifted.relators, identity
        )


def hand_built(rng: random.Random, k: int) -> list:
    """Relators on generators 1..k as a caller might pass them: a full or
    partial pair table with pairs shuffled and repeated, given as either
    kind or equation, and cycles of 4 letters (a commutator with its
    letters swapped), 6 (a braid word likewise), 8 and more, and others."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    if rng.random() < 0.5:
        pairs = rng.sample(pairs, rng.randint(0, len(pairs)))
    relators = [rng.choice((braid_relator, comm_relator))(*rng.sample(pair, 2)) for pair in pairs]
    relators += rng.sample(relators, min(2, len(relators)))
    for _ in range(rng.randint(0, 3)):
        i, j = sorted(rng.sample(range(1, k + 1), 2))
        n = rng.randint(3, k) if k > 2 else 2
        word = rng.choice([
            (j, i, -j, -i),
            (j, i, j, -i, -j, -i),
            cycle_relator(tuple(rng.sample(range(1, k + 1), n))).word,
            free_reduce(tuple(rng.choice((1, -1)) * rng.randint(1, k) for _ in range(5))),
        ])
        relators.append(Relator(word, (), ()))
    relators += rng.sample(relators, min(1, len(relators)))
    rng.shuffle(relators)
    return relators


def _renamed(relators: list, perm: list) -> list:
    rename = [0, *perm]
    words = (tuple(rename[x] if x > 0 else -rename[-x] for x in r.word) for r in relators)
    return [Relator(w, (), ()) for w in words]


@SETTINGS
@given(st.integers(2, 5), st.integers(0, 2**32))
def test_hand_built_relators_keep_the_kind_their_word_has(k, seed):
    relators = hand_built(random.Random(seed), k)
    p = Presentation(k, relators)
    for r in p.relators:
        pair = _pair_of(r.word)
        assert r.kind is (RelatorKind.CYCLE if pair is None else pair[0])
    assert {r.word for r in p.relators} == {r.word for r in relators}


@SETTINGS
@given(st.integers(2, 5), st.integers(0, 2**32))
def test_relabeling_hand_built_tables_matches_word_sets(k, seed):
    rng = random.Random(seed)
    src = hand_built(rng, k)
    identity = list(range(1, k + 1))
    perm = rng.sample(identity, k)
    shuffled = rng.sample(src, len(src))
    others = [
        shuffled,  # cycles given in another order
        shuffled[1:],  # one relator fewer, unless it was repeated
        _renamed(src, perm),
        hand_built(rng, k),
    ]
    p = Presentation(k, src)
    for dst in others:
        q = Presentation(k, dst)
        for sigma in (identity, perm, rng.sample(identity, k)):
            assert relabels_onto(p, q, sigma) == _word_sets_agree(src, dst, sigma)
