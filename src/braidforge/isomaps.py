"""Explicit generator maps across word moves, and their machine checks.

For an elementary conjugation moving a letter of column i, the top brick
of that column wraps around to the bottom; its generator maps to the new
bottom generator conjugated by everything between them, all other bricks
correspond rank by rank. For a braid relation at the top of the word,
the top brick of column i shifts into column i+1 keeping its generator,
and the brick below it maps to its counterpart conjugated by the shifted
generator. Far commutativity and Markov moves relabel nothing.

check_map is a necessary-condition checker: images of relators must die
in the abelianization (exact integer lattice test) and under every
homomorphism into the configured finite targets, in both directions,
along with the round-trip words. Reports say "consistent", never
"isomorphic". The lattice of each presentation is prepared once per
check. Each finite target is decided by pulling the hom sets back
through the map: every target hom h must give h∘φ in the source hom
set, every source hom must pull back through φ⁻¹ into the target hom
set, and both round trips must fix every hom. As the hom sets are
complete, that is exactly the relator-by-relator condition, at a cost
of |homs|·k instead of |homs|·|relators|; the per-relator loop runs only
after a failure, to word the violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bricks import BrickDiagram, build_bricks
from .errors import MoveError, ResourceCapError
from .finite_groups import FiniteTarget
from .invariants import (
    ColumnLattice,
    enumerate_homs,
    evaluate_word,
    exponent_columns,
    exponent_sums,
    in_column_lattice,
)
from .linking import build_graph
from .presentations import (
    GroupWord,
    Presentation,
    concat,
    free_reduce,
    invert_word,
    presentation_of,
)
from .words import BraidWord, MoveKind, WordMove, apply_move


@dataclass(frozen=True)
class GeneratorMap:
    """Generator images of a map between two presentations, both directions."""

    source: Presentation
    target: Presentation
    images: tuple[GroupWord, ...]  # per source generator, word in target gens
    inverse_images: tuple[GroupWord, ...]  # per target generator, word in source gens
    label: str = ""

    def apply(self, word: GroupWord) -> GroupWord:
        return substitute(word, self.images)

    def apply_inverse(self, word: GroupWord) -> GroupWord:
        return substitute(word, self.inverse_images)

    def inverted(self) -> GeneratorMap:
        return GeneratorMap(
            self.target,
            self.source,
            self.inverse_images,
            self.images,
            label=f"inverse({self.label})" if self.label else "",
        )

    def is_relabeling(self) -> bool:
        """True when both directions are bijective single-generator maps."""
        fwd = [w for w in self.images]
        if any(len(w) != 1 or w[0] < 0 for w in fwd):
            return False
        targets = [w[0] for w in fwd]
        return sorted(targets) == list(range(1, self.target.n_generators + 1))


def substitute(word: GroupWord, images: tuple[GroupWord, ...]) -> GroupWord:
    out: list[int] = []
    for x in word:
        img = images[abs(x) - 1]
        out.extend(img if x > 0 else invert_word(img))
    return free_reduce(tuple(out))


def compose_maps(m1: GeneratorMap, m2: GeneratorMap) -> GeneratorMap:
    """m2 after m1; requires m1.target == m2.source structurally."""
    images = tuple(substitute(w, m2.images) for w in m1.images)
    inverse = tuple(substitute(w, m1.inverse_images) for w in m2.inverse_images)
    label = f"{m1.label};{m2.label}" if m1.label or m2.label else ""
    return GeneratorMap(m1.source, m2.target, images, inverse, label)


def identity_map(p: Presentation) -> GeneratorMap:
    gens = tuple((i,) for i in range(1, p.n_generators + 1))
    return GeneratorMap(p, p, gens, gens, "identity")


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
    label: str,
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
    return GeneratorMap(sp, dp, tuple(images), tuple(inverse), label)


def conjugation_map(w: BraidWord, end: str = "right") -> GeneratorMap:
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
        return conjugation_map(moved, "right").inverted()

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
        return _relabel_map(src, dst, "conjR")

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

    return GeneratorMap(sp, dp, tuple(images), tuple(inverse), "conjR")


def braid_relation_map(w: BraidWord, position: int | None = None) -> GeneratorMap:
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
        return braid_relation_map(w2, position).inverted()

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

    return GeneratorMap(sp, dp, tuple(images), tuple(inverse), "braidTop")


def move_map(w: BraidWord, m: WordMove) -> GeneratorMap:
    """The generator map across any single word move."""
    if m.kind is MoveKind.ELEM_CONJ_RIGHT:
        return conjugation_map(w, "right")
    if m.kind is MoveKind.ELEM_CONJ_LEFT:
        return conjugation_map(w, "left")
    if m.kind in (MoveKind.FAR_COMM, MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB):
        w2 = apply_move(w, m)
        return _relabel_map(_presentations(w), _presentations(w2), m.kind.value)
    if m.kind is MoveKind.BRAID_REL:
        tail = len(w.letters) - (m.position + 2)
        if tail == 0:
            return braid_relation_map(w, m.position)
        # Rotate the tail to the front, apply at the top, rotate back.
        maps = []
        cur = w
        for _ in range(tail):
            maps.append(conjugation_map(cur, "right"))
            cur = apply_move(cur, WordMove(MoveKind.ELEM_CONJ_RIGHT, len(cur.letters)))
        maps.append(braid_relation_map(cur))
        cur = apply_move(cur, WordMove(MoveKind.BRAID_REL, len(cur.letters) - 2))
        for _ in range(tail):
            maps.append(conjugation_map(cur, "left"))
            cur = apply_move(cur, WordMove(MoveKind.ELEM_CONJ_LEFT, 1))
        composite = maps[0]
        for nxt in maps[1:]:
            composite = compose_maps(composite, nxt)
        return GeneratorMap(
            composite.source,
            composite.target,
            composite.images,
            composite.inverse_images,
            label=f"braid@{m.position}",
        )
    raise MoveError(f"no generator map for move kind {m.kind}")


def maps_along_moves(w: BraidWord, moves: list[WordMove]) -> GeneratorMap:
    """Composite generator map along a move sequence."""
    cur = w
    composite: GeneratorMap | None = None
    for m in moves:
        step = move_map(cur, m)
        composite = step if composite is None else compose_maps(composite, step)
        cur = apply_move(cur, m)
    if composite is None:
        _, p = _presentations(w)
        return identity_map(p)
    return composite


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


def _word_str(word: GroupWord) -> str:
    return " ".join(f"s{x}" if x > 0 else f"s{-x}^-1" for x in word) or "1"


def _exp_vector(word: GroupWord, k: int) -> list[int]:
    v = [0] * k
    for x in word:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def _image_vector(column: dict[int, int], image_sums: list[dict[int, int]], k: int) -> list[int]:
    """Exponent vector of a word's image, from the word's exponent sums."""
    v = [0] * k
    for g, e in column.items():
        for h, f in image_sums[g].items():
            v[h] += e * f
    return v


def _pull_back(
    t: FiniteTarget, hom: tuple[int, ...], images: tuple[GroupWord, ...]
) -> tuple[int, ...]:
    """Generator images of hom after the map whose generator images are given."""
    return tuple(evaluate_word(t, hom, w) for w in images)


def _pullback_holds(
    m: GeneratorMap,
    t: FiniteTarget,
    src_homs: list[tuple[int, ...]],
    dst_homs: list[tuple[int, ...]],
) -> bool:
    """Both hom sets pull back into each other, and both round trips fix them.

    Since each list holds every homomorphism, this is exactly the condition
    that every relator image and round-trip word dies under every hom.
    """
    for homs, other, there, back in (
        (dst_homs, set(src_homs), m.images, m.inverse_images),
        (src_homs, set(dst_homs), m.inverse_images, m.images),
    ):
        for h in homs:
            pulled = _pull_back(t, h, there)
            if pulled not in other or _pull_back(t, pulled, back) != h:
                return False
    return True


def check_map(
    m: GeneratorMap,
    targets: list[FiniteTarget],
    caps: dict[str, int] | None = None,
) -> CheckReport:
    """Verify the map against every relator in quotients and abelianization."""
    violations: list[Violation] = []
    checked: list[str] = []
    skipped: list[str] = []
    hom_counts: dict[str, tuple[int, int]] = {}

    if m.is_relabeling() and m.inverted().is_relabeling():
        # Exact shortcut: a generator bijection is consistent iff it carries
        # the relator set onto the other relator set.
        fwd = {r.word for r in m.source.relators}
        fwd_mapped = {m.apply(w) for w in fwd}
        back = {r.word for r in m.target.relators}
        if fwd_mapped == back:
            return CheckReport(True, (), (), (), {}, method="relabeling")
        # fall through to the full check when sets differ

    # Exact abelianization checks. A relator image's exponent vector is
    # the linear image of the relator's exponent sums; the image word
    # itself is spelled out only to report a violation.
    k_src, k_dst = m.source.n_generators, m.target.n_generators
    src_columns = exponent_columns(m.source)
    dst_columns = exponent_columns(m.target)
    src_lattice = ColumnLattice(src_columns, k_src)
    dst_lattice = ColumnLattice(dst_columns, k_dst)
    image_sums = [exponent_sums(w) for w in m.images]
    inverse_sums = [exponent_sums(w) for w in m.inverse_images]

    for idx, (r, column) in enumerate(zip(m.source.relators, src_columns)):
        if not in_column_lattice(dst_lattice, _image_vector(column, image_sums, k_dst)):
            violations.append(
                Violation(
                    "forward",
                    f"relator {idx} ({r.kind.value})",
                    "abelianization",
                    f"image {_word_str(m.apply(r.word))} survives abelianization",
                )
            )
    for idx, (r, column) in enumerate(zip(m.target.relators, dst_columns)):
        if not in_column_lattice(src_lattice, _image_vector(column, inverse_sums, k_src)):
            violations.append(
                Violation(
                    "backward",
                    f"relator {idx} ({r.kind.value})",
                    "abelianization",
                    f"image {_word_str(m.apply_inverse(r.word))} survives abelianization",
                )
            )
    roundtrip_src = []
    for g in range(1, k_src + 1):
        word = concat(m.apply_inverse(m.apply((g,))), (-g,))
        roundtrip_src.append(word)
        if not in_column_lattice(src_lattice, _exp_vector(word, k_src)):
            violations.append(
                Violation(
                    "roundtrip-source",
                    f"s{g}",
                    "abelianization",
                    f"round trip {_word_str(word)} survives abelianization",
                )
            )
    roundtrip_dst = []
    for g in range(1, k_dst + 1):
        word = concat(m.apply(m.apply_inverse((g,))), (-g,))
        roundtrip_dst.append(word)
        if not in_column_lattice(dst_lattice, _exp_vector(word, k_dst)):
            violations.append(
                Violation(
                    "roundtrip-target",
                    f"s{g}",
                    "abelianization",
                    f"round trip {_word_str(word)} survives abelianization",
                )
            )

    # Finite quotient checks: the hom-set pullback decides; only when it
    # fails does the per-relator loop run, to word the violations.
    for t in targets:
        try:
            src_homs = enumerate_homs(m.source, t, caps)
            dst_homs = enumerate_homs(m.target, t, caps)
        except ResourceCapError:
            skipped.append(t.name)
            continue
        checked.append(t.name)
        hom_counts[t.name] = (len(src_homs), len(dst_homs))
        if len(src_homs) != len(dst_homs):
            # no isomorphism can exist between the presented groups
            violations.append(
                Violation(
                    "counts",
                    "hom-count",
                    t.name,
                    f"{len(src_homs)} source vs {len(dst_homs)} target homomorphisms",
                )
            )
        if _pullback_holds(m, t, src_homs, dst_homs):
            continue
        for idx, r in enumerate(m.source.relators):
            image = m.apply(r.word)
            for hom in dst_homs:
                if evaluate_word(t, hom, image) != t.identity:
                    violations.append(
                        Violation(
                            "forward",
                            f"relator {idx} ({r.kind.value})",
                            t.name,
                            f"image {_word_str(image)} not trivial under "
                            f"homomorphism {hom}",
                        )
                    )
                    break
        for idx, r in enumerate(m.target.relators):
            image = m.apply_inverse(r.word)
            for hom in src_homs:
                if evaluate_word(t, hom, image) != t.identity:
                    violations.append(
                        Violation(
                            "backward",
                            f"relator {idx} ({r.kind.value})",
                            t.name,
                            f"image {_word_str(image)} not trivial under "
                            f"homomorphism {hom}",
                        )
                    )
                    break
        for g, word in enumerate(roundtrip_src, start=1):
            for hom in src_homs:
                if evaluate_word(t, hom, word) != t.identity:
                    violations.append(
                        Violation(
                            "roundtrip-source", f"s{g}", t.name,
                            f"round trip {_word_str(word)} not trivial",
                        )
                    )
                    break
        for g, word in enumerate(roundtrip_dst, start=1):
            for hom in dst_homs:
                if evaluate_word(t, hom, word) != t.identity:
                    violations.append(
                        Violation(
                            "roundtrip-target", f"s{g}", t.name,
                            f"round trip {_word_str(word)} not trivial",
                        )
                    )
                    break

    return CheckReport(
        not violations,
        tuple(violations),
        tuple(checked),
        tuple(skipped),
        hom_counts,
    )
