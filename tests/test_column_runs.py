"""Column runs: a swept presentation's column lattice is read off its
brick diagram's column runs, never labelled by a union-find.

The components of a linking graph are the maximal runs of adjacent
columns joined by a lateral edge (BrickDiagram._runs). With the
union-find that invariants uses for presentations read off relator words
made to raise, every lattice of presentation_of(build_graph(d)) must
still carry linking.components' labels over the braid pairs, and its
component count must be the rank diagram_abelianization reads, on seeded
words of 2-9 strands and 0-60 letters under both sign conventions,
including words whose brick columns are separated by brickless ones.
"""

import random

from braidforge import invariants
from braidforge.bricks import build_bricks
from braidforge.invariants import ColumnLattice, diagram_abelianization
from braidforge.linking import SIGN_CONVENTIONS, build_graph, components
from braidforge.presentations import presentation_of
from braidforge.words import BraidWord


def seeded_words(count: int):
    rng = random.Random(50)
    for _ in range(count):
        n = rng.randint(2, 9)
        yield BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 60))))
    # brick columns 1 and 3 around a column with no brick, and around an unused one
    yield BraidWord(4, (1, 3, 1, 2, 3))
    yield BraidWord(4, (1, 3, 1, 3))


def test_swept_lattices_read_the_column_runs(monkeypatch):
    def refused(n, pairs):
        raise AssertionError("a swept presentation's lattice ran the union-find")

    monkeypatch.setattr(invariants, "components", refused)
    gapped = joined = 0
    for w in seeded_words(300):
        d = build_bricks(w)
        columns = list(d.column_ids)
        gapped += any(b - a > 1 for a, b in zip(columns, columns[1:]))
        for convention in SIGN_CONVENTIONS:
            p = presentation_of(build_graph(d, convention))
            lattice = ColumnLattice.of(p)
            pairs = [(i - 1, j - 1) for i, j in p.braid_pairs]
            assert (lattice.component, lattice.n_components) == components(
                p.n_generators, pairs
            ), w
            assert diagram_abelianization(d).rank == lattice.n_components, w
        joined += lattice.n_components < len(columns)
    assert gapped >= 30 and joined >= 150, (gapped, joined)
