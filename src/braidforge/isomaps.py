"""Explicit generator maps across word moves, and their machine checks.

Every map the library makes is built from moves by maps_along_moves
(move_map is a sequence of one move, and no moves give the identity):
apply_move takes each move or refuses it, in its own words, before the
step is read off the brick diagrams on either side of it. A map is its
two presentations and its images in both directions, with no label, so
two maps are equal iff those are; GeneratorMap(...) checks the shape of
a hand-built one. A step's images are computed one way; its
inverse images are the images of its inverse move, read back from the
step's destination diagram: words.undo_move gives that move by rule,
with no second check of the move apply_move took. The steps, and the
inverse steps last first, each compose in one fold right to left, so
each step maps only its own short images, and only the first and last
words get presentations. For an elementary conjugation moving a letter of column
i, the top brick of that column wraps around to the bottom; its
generator maps to the new bottom generator conjugated by everything
between them, all other bricks correspond rank by rank. A braid
relation at the top of the word carries one brick across, the top of
column i to the top of column i+1, shifts column i+1's ids down by one
and conjugates one image, the brick's below it: arithmetic on two ids,
each column's bricks being one id range (BrickDiagram.column_ids). Far
commutativity and Markov moves relabel nothing.

A braid relation at any height has the map of the chain that rotates
the letters above it to the top, applies the relation there and
rotates back, folded in one pass: rotations of columns other than the
relation's two cancel, and each of the rest costs one conjugation by
its column's product (see _rotate), never a recomposition of the whole
map. At the top nothing rotates.

check_map is a necessary-condition checker: images of relators must die
in the abelianization (exact integer lattice test) and under every
homomorphism into the configured finite targets, in both directions,
along with the round-trip words. Reports say "consistent", never
"isomorphic". The abelianization is decided in each side's Z^c, read off
its column lattice (a component label per generator): each generator's
image is summed per component of the other side (a one-letter image is a
unit vector); a relator's nonzero column, e_a - e_b, joins a and b
within one component, so every relator's image dies iff those sums are
constant on each component. With F and B those constants, forward and
backward, every round trip then dies iff F·B and B·F are the identity.
Each finite target is decided by pulling homs back through the map: for
every target hom h, h∘φ must be a source hom (its least conjugate is a
representative of the source's orbit search), for every source hom the
pullback through φ⁻¹ must be a target hom, and both round trips must fix
every hom. That is exactly the relator-by-relator condition. Both
conditions commute with conjugation in the target and hom sets are
closed under it, so one hom per orbit, as the orbit search gives them,
decides, exactly. Each representative is pulled back once and its
pullback back once more for the round trip; with equal hom counts the
target's representatives decide alone, and a failing decision words its
violations from those same lists. A relator or round trip fails under a
hom iff under each of its conjugates, so the first failing
representative is the first failing hom. A word is spelled only for a
violation, and a presentation's relators at most once per check. Folding
a chain of steps refuses, with ResourceCapError, images totalling more
than IMAGE_LETTERS letters in either direction, and a braid step is
refused as soon as its rotations' running total does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from typing import Callable, Iterable

from .bricks import BrickDiagram, build_bricks
from .errors import ResourceCapError
from .finite_groups import FiniteTarget
from .invariants import ColumnLattice, HomCount, evaluate_word, hom_count, least_conjugate
from .linking import build_graph
from .presentations import (
    GroupWord,
    Presentation,
    Relator,
    _word_plain,
    concat,
    exponent_sums,
    free_reduce,
    invert_word,
    presentation_of,
    relabels_onto,
)
from .words import NEUTRAL, BraidWord, MoveKind, WordMove, apply_move, undo_move


@dataclass(frozen=True)
class GeneratorMap:
    """Generator images of a map between two presentations, both directions;
    ValueError unless each generator has one image, in the other side's."""

    source: Presentation
    target: Presentation
    images: tuple[GroupWord, ...]  # per source generator, word in target gens
    inverse_images: tuple[GroupWord, ...]  # per target generator, word in source gens

    def __post_init__(self) -> None:
        n_src, n_dst = self.source.n_generators, self.target.n_generators
        for direction, words, n, k in (
            ("image", self.images, n_src, n_dst),
            ("inverse image", self.inverse_images, n_dst, n_src),
        ):
            if len(words) != n:
                raise ValueError(f"{direction}s: {len(words)} for {n} generators")
            lo = min(map(abs, chain.from_iterable(words)), default=1)  # min and max in C
            if lo > 0 and max(map(abs, chain.from_iterable(words)), default=k) <= k:
                continue
            g, bad = next((g, x) for g, w in enumerate(words, 1) for x in w if not 0 < abs(x) <= k)
            raise ValueError(f"{direction} of s{g}: the letter {bad} is not in 1..{k}")

    def is_relabeling(self) -> bool:
        """True when both directions are bijective single-generator maps,
        each the inverse of the other."""
        return self.source.n_generators == self.target.n_generators and all(
            len(w) == 1 and w[0] > 0 and self.inverse_images[w[0] - 1] == (g,)
            for g, w in enumerate(self.images, start=1)
        )


_Images = tuple[GroupWord, ...]


def substitute(word: GroupWord, images: tuple[GroupWord, ...]) -> GroupWord:
    out: list[int] = []
    for x in word:
        img = images[abs(x) - 1]
        out.extend(img if x > 0 else invert_word(img))
    return free_reduce(tuple(out))


def _through(words: _Images, images: _Images) -> _Images:
    """Each word with images substituted; images are freely reduced, so a
    one-letter word's image is passed on by reference."""
    return tuple(
        images[w[0] - 1] if len(w) == 1 and w[0] > 0 else substitute(w, images) for w in words
    )


# Letters one direction's images may total, kept or while a braid step
# rotates them: freely reduced images are unique, so past this a map is
# refused, never spelled shorter.
IMAGE_LETTERS = 1 << 21


def _charge(letters: int, what: str) -> None:
    if letters > IMAGE_LETTERS:
        raise ResourceCapError(
            f"{what} total {letters} letters, over the budget of {IMAGE_LETTERS}"
        )


def _budgeted(images: _Images, direction: str) -> _Images:
    _charge(sum(map(len, images)), direction)
    return images


def _fold(steps: list[_Images], direction: str) -> _Images:
    """Images of a chain of maps, each given by its images and applied
    first to last; ResourceCapError once the fold totals more than
    IMAGE_LETTERS letters. A chain's inverse images are the fold of its
    steps' inverse images, last step first.

    The chain folds right to left, so each step maps only its own images,
    mostly single letters, through what has accumulated; an accumulated
    image is copied, never mapped letter by letter again.
    """
    images = _budgeted(steps[-1], direction)
    for step in reversed(steps[:-1]):
        images = _budgeted(_through(step, images), direction)
    return images


@cache
def _identity(k: int) -> _Images:
    return tuple((g,) for g in range(1, k + 1))


def _join(*words: GroupWord) -> GroupWord:
    """free_reduce of the words' concatenation, for freely reduced words,
    which cancel only across their seams."""
    out: list[int] = []
    for w in words:
        n = 0
        while out and n < len(w) and out[-1] == -w[n]:
            out.pop()
            n += 1
        out += w[n:] if n else w
    return tuple(out)


def _rotate(
    acc: list[GroupWord], d: BrickDiagram, columns: Iterable[int], top_wraps: bool,
    letters: int,
) -> None:
    """Substitute acc, in place, into the images of rotations moving a
    letter of each of the columns in turn between the ends of d's word:
    each a conjR's images when top_wraps, a conjL's otherwise.
    letters is acc's total length, kept per rotation: ResourceCapError as
    soon as it passes IMAGE_LETTERS, before the rest is spelled.

    A rotation keeps every column's brick count, so all words on the way
    number their bricks alike. With x_1 .. x_n the column's images in acc,
    bottom to top, a conjR moves the column's bricks up one rank, the top
    one wrapping to the bottom: its images are x_2 .. x_n and
    x_n .. x_2 x_1 x_2^-1 .. x_n^-1 = P x_1 P^-1, with P = x_n .. x_1;
    its inverse images are P^-1 x_n P and x_1 .. x_{n-1}. Both keep P, so
    P and P^-1 are spelled once per column and each rotation costs one
    conjugation, joined at its seams (_join). A column with at most one
    brick rotates as the identity.
    """
    products: dict[int, tuple[GroupWord, GroupWord]] = {}  # column: P, P^-1
    for c in columns:
        ids = d.column_ids.get(c, range(0))
        if len(ids) < 2:
            continue
        lo, hi = ids[0], ids[-1]
        if c not in products:
            p = _join(*reversed(acc[lo - 1 : hi]))
            products[c] = p, invert_word(p)
        p, p_inv = products[c]
        if top_wraps:
            x = acc[lo - 1]
            acc[lo - 1 : hi - 1] = acc[lo:hi]
            acc[hi - 1] = y = _join(p, x, p_inv)
        else:
            x = acc[hi - 1]
            acc[lo:hi] = acc[lo - 1 : hi - 1]
            acc[lo - 1] = y = _join(p_inv, x, p)
        letters += len(y) - len(x)
        _charge(letters, "rotated images")


def _braid_top_images(sd: BrickDiagram, dd: BrickDiagram, i: int, inverse: bool) -> _Images:
    """Images across sigma_i sigma_{i+1} sigma_i -> sigma_{i+1} sigma_i sigma_{i+1}
    at the top, or its inverse images when inverse, read off column ranges
    alone: sd and dd may be any rotations of the words before and after
    the move. Brick top, the last of column i, becomes shifted, the last of
    column i+1; the ids between close up by one, and the brick below top,
    if in column i, is conjugated.
    """
    top = sd.column_ids[i][-1]
    shifted = dd.column_ids[i + 1][-1]
    ident = _identity(sd.n_bricks)
    if inverse:
        images = [*ident[: top - 1], *ident[top:shifted], (top,), *ident[shifted:]]
        below = (top, top - 1, -top)
    else:
        images = [*ident[: top - 1], (shifted,), *ident[top - 1 : shifted - 1], *ident[shifted:]]
        below = (-shifted, top - 1, shifted)
    if top - 1 in sd.column_ids[i]:
        images[top - 2] = below
    return tuple(images)


def _images(d: BrickDiagram, dd: BrickDiagram, kind: MoveKind, position: int) -> _Images:
    """Images across a valid move of the kind at position from d's word to
    dd's: per brick of d, a word in dd's bricks.

    A conjugation rotates the moved letter's column. A braid relation folds
    its chain right to left: the tail conjL moves on dd, last first, the
    braid move at the top, then the tail conjR moves on d, last first. The
    other columns' rotations commute with the braid move and cancel in
    pairs (their bricks keep their ids), so only the relation's two rotate.
    The NEUTRAL kinds keep every column's bricks in order.
    """
    if kind in NEUTRAL:
        return _identity(d.n_bricks)
    letters = d.word.letters
    images = list(_identity(d.n_bricks))
    if kind is MoveKind.BRAID_REL:
        i, j = letters[position - 1 : position + 1]
        # the mirror move, shifting a brick from column i down to column j,
        # is the inverse situation
        up = j == i + 1
        top = _braid_top_images(d, dd, i, False) if up else _braid_top_images(dd, d, j, True)
        rotated = [c for c in letters[position + 2 :] if c in (i, j)]
        _rotate(images, dd, reversed(rotated), top_wraps=False, letters=len(images))
        images = list(_through(top, images))
        _rotate(images, d, rotated, top_wraps=True, letters=sum(map(len, images)))
    else:
        right = kind is MoveKind.ELEM_CONJ_RIGHT
        column = letters[-1] if right else letters[0]
        _rotate(images, d, [column], top_wraps=right, letters=len(images))
    return tuple(images)


def move_map(w: BraidWord, m: WordMove) -> GeneratorMap:
    """The generator map across any single word move."""
    return maps_along_moves(w, [m])


def maps_along_moves(w: BraidWord, moves: list[WordMove]) -> GeneratorMap:
    """Composite generator map along a move sequence, the one place a map
    is built: apply_move takes or refuses each move, each step is read off
    the brick diagrams on either side of it, and only the end words get
    presentations. No moves give the identity map."""
    source = d = build_bricks(w)
    steps, inverse_steps = [], []  # inverse steps: the inverse moves' images
    for m in moves:
        dd = build_bricks(apply_move(d.word, m))
        steps.append(_images(d, dd, m.kind, m.position))
        undo = undo_move(m, len(dd.word.letters))
        inverse_steps.append(_images(dd, d, undo.kind, undo.position))
        d = dd
    images = inverse = _identity(source.n_bricks)
    if moves:
        images, inverse = _fold(steps, "images"), _fold(inverse_steps[::-1], "inverse images")
    src, dst = (presentation_of(build_graph(e)) for e in (source, d))
    return GeneratorMap(src, dst, images, inverse)


# -- checking ----------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    direction: str  # forward | backward | roundtrip-source | roundtrip-target
    item: str
    target: str  # finite target name or "abelianization"
    detail: str


@dataclass(frozen=True)
class CheckReport:
    consistent: bool
    violations: tuple[Violation, ...]
    checked_targets: tuple[str, ...]
    skipped_targets: tuple[str, ...]
    hom_counts: dict[str, tuple[int, int]] = field(default_factory=dict)
    method: str = "quotients"

    def to_dict(self) -> dict:
        return {
            "consistent": self.consistent,
            "method": self.method,
            "checked_targets": list(self.checked_targets),
            "skipped_targets": list(self.skipped_targets),
            "hom_counts": {k: list(v) for k, v in self.hom_counts.items()},
            "violations": [
                {
                    "direction": v.direction,
                    "item": v.item,
                    "target": v.target,
                    "detail": v.detail,
                }
                for v in self.violations
            ],
        }


# p -> p.relators as a tuple, spelled at most once per check: the view
# spells a relator on each read of it
_Spelled = Callable[[Presentation], tuple[Relator, ...]]


def _pull_back(
    t: FiniteTarget, hom: tuple[int, ...], images: tuple[GroupWord, ...]
) -> tuple[int, ...]:
    """Generator images of hom after the map whose generator images are
    given: a one-letter positive image reads hom directly, any other is
    evaluated under hom."""
    return tuple(
        [hom[w[0] - 1] if len(w) == 1 and w[0] > 0 else evaluate_word(t, hom, w) for w in images]
    )


def _projected(images: _Images, lattice: ColumnLattice) -> list[tuple[int, ...]]:
    """Each image's exponent sums per component of lattice, the other
    side's; a one-letter image (h,) is the unit vector of h's component."""
    c, component = lattice.n_components, lattice.component
    units = [(0,) * a + (1,) + (0,) * (c - 1 - a) for a in range(c)]
    pulled = []
    for w in images:
        if len(w) == 1 and w[0] > 0:
            pulled.append(units[component[w[0] - 1]])
            continue
        sums = [0] * c
        for x in w:
            sums[component[abs(x) - 1]] += 1 if x > 0 else -1
        pulled.append(tuple(sums))
    return pulled


def _is_inverse(F: list[tuple[int, ...]], B: list[tuple[int, ...]]) -> bool:
    """Whether F·B is the identity: row a of F, combining B's rows, is e_a."""
    n = len(F)
    return all(
        [sum(f * b[x] for f, b in zip(row, B)) for x in range(n)] == [int(x == a) for x in range(n)]
        for a, row in enumerate(F)
    )


def _violation(
    m: GeneratorMap, direction: str, i: int, target: str, fails: str, relators: _Spelled
) -> Violation:
    """Check i of a kind, its word spelled: relator i's image (forward,
    backward) or the round trip at generator i + 1."""
    there, back = m.images, m.inverse_images
    if direction in ("backward", "roundtrip-target"):
        there, back = back, there
    if direction in ("forward", "backward"):
        r = relators(m.source if direction == "forward" else m.target)[i]
        detail = f"image {_word_plain(substitute(r.word, there))} {fails}"
        return Violation(direction, f"relator {i} ({r.kind.value})", target, detail)
    g = i + 1
    detail = f"round trip {_word_plain(concat(substitute(there[i], back), (-g,)))} {fails}"
    return Violation(direction, f"s{g}", target, detail)


def _finite_violations(
    m: GeneratorMap, t: FiniteTarget, src: HomCount, dst: HomCount, relators: _Spelled
) -> list[Violation]:
    """The violations under t, from one pass over the orbit representatives
    of hom_count's records src and dst.

    Each representative h is pulled back through the map once and that
    pullback back again once; a pullback is a hom iff its least conjugate
    is a representative, and most pullbacks are representatives already.
    Every pullback a hom and every round trip h again is exactly the
    relator-by-relator condition, since both hom sets hold every
    homomorphism; the lists word the violations only when it fails. With
    equal hom counts the forward half decides alone: if every target hom
    h pulls back to a source hom and round-trips, h -> h∘φ is injective
    between two sets of one size, so every source hom is some h∘φ, whose
    pullback h and round trip h∘φ hold. Each representative is the least
    of its orbit in enumerate_homs' order. relators, shared by one
    check's targets, spells each presentation once.
    """
    pulls, holds = [], True  # per direction: each h, its pullback q, and the round trip
    for reps, homs, there, back in (
        (dst.reps, set(src.reps), m.images, m.inverse_images),
        (src.reps, set(dst.reps), m.inverse_images, m.images),
    ):
        pulled = [_pull_back(t, h, there) for h in reps]
        pulls.append([(h, q, _pull_back(t, q, back)) for h, q in zip(reps, pulled)])
        holds = holds and all(
            (q in homs or least_conjugate(t, q) in homs) and trip == h for h, q, trip in pulls[-1]
        )
        if holds and (len(pulls) == 2 or src.count == dst.count):
            return []
    fwd, bwd = pulls
    kinds = (("forward", m.source, fwd), ("backward", m.target, bwd))
    violations = []
    for direction, p, ps in kinds:
        for i, r in enumerate(relators(p)):
            bad = (h for h, q, _ in ps if evaluate_word(t, q, r.word) != t.identity)
            h = next(bad, None)
            if h is not None:
                fails = f"not trivial under homomorphism {h}"
                violations.append(_violation(m, direction, i, t.name, fails, relators))
    for direction, ps in (("roundtrip-source", bwd), ("roundtrip-target", fwd)):
        moved = {i for h, _, trip in ps for i, (a, b) in enumerate(zip(h, trip)) if a != b}
        violations += [
            _violation(m, direction, i, t.name, "not trivial", relators) for i in sorted(moved)
        ]
    return violations


def check_map(
    m: GeneratorMap,
    targets: list[FiniteTarget],
    caps: dict[str, int] | None = None,
) -> CheckReport:
    """Verify the map against every relator in quotients and abelianization.

    The map is read through its images' per-component sums and its hom
    pullbacks alone; a word is spelled only for the text of a violation.
    """
    # Exact shortcut: a generator bijection is consistent iff it carries
    # the relator set onto the other relator set.
    if m.is_relabeling() and relabels_onto(m.source, m.target, [w[0] for w in m.images]):
        return CheckReport(True, (), (), (), {}, method="relabeling")

    # Exact abelianization checks in each side's Z^c: fwd[g] is g's image
    # summed per target component, bwd[h] h's inverse image per source
    # component; a failing relator is a column e_a - e_b with fwd[a] !=
    # fwd[b], and backward mirrors it. With both constant per component (F,
    # B), the round trip at g is F·B's row at g's component. Only when F·B or
    # B·F is not the identity is each summed from its image's exponent sums.
    violations: list[Violation] = []
    spelled: dict[Presentation, tuple[Relator, ...]] = {}

    def relators(p: Presentation) -> tuple[Relator, ...]:
        return spelled[p] if p in spelled else spelled.setdefault(p, tuple(p.relators))

    src_lattice, dst_lattice = ColumnLattice.of(m.source), ColumnLattice.of(m.target)
    fwd, bwd = _projected(m.images, dst_lattice), _projected(m.inverse_images, src_lattice)
    fails = "survives abelianization"
    constants = []  # F and B, per component
    for direction, p, lattice, pulled in (
        ("forward", m.source, src_lattice, fwd),
        ("backward", m.target, dst_lattice, bwd),
    ):
        pairs = set(zip(lattice.component, pulled))
        if len(pairs) == lattice.n_components:
            constants.append([v for _, v in sorted(pairs)])
            continue
        for i, r in enumerate(relators(p)):
            if len({pulled[g] for g in exponent_sums(r.word)}) > 1:
                violations.append(_violation(m, direction, i, "abelianization", fails, relators))
    if len(constants) < 2 or not (_is_inverse(*constants) and _is_inverse(*constants[::-1])):
        for direction, lattice, images, pulled in (
            ("roundtrip-source", src_lattice, m.images, bwd),
            ("roundtrip-target", dst_lattice, m.inverse_images, fwd),
        ):
            for g, w in enumerate(images):
                trip = [0] * lattice.n_components
                trip[lattice.component[g]] = -1
                for h, e in exponent_sums(w).items():
                    for x, f in enumerate(pulled[h]):
                        trip[x] += e * f
                if any(trip):
                    violations.append(_violation(m, direction, g, "abelianization", fails, relators))

    # Finite quotient checks: one hom per conjugation orbit, pulled back
    # once (the target's alone when counts agree), decides and words them.
    checked: list[str] = []
    skipped: list[str] = []
    hom_counts: dict[str, tuple[int, int]] = {}
    for t in targets:
        try:
            src, dst = hom_count(m.source, t, caps), hom_count(m.target, t, caps)
        except ResourceCapError:
            skipped.append(t.name)
            continue
        checked.append(t.name)
        hom_counts[t.name] = (src.count, dst.count)
        if src.count != dst.count:
            # no isomorphism can exist between the presented groups
            violations.append(
                Violation(
                    "counts",
                    "hom-count",
                    t.name,
                    f"{src.count} source vs {dst.count} target homomorphisms",
                )
            )
        violations += _finite_violations(m, t, src, dst, relators)

    return CheckReport(
        not violations,
        tuple(violations),
        tuple(checked),
        tuple(skipped),
        hom_counts,
    )
