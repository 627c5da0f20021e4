"""The three benchmark workloads: seeded corpus, timed operation, oracle.

Each workload is a closed loop with one caller: the next operation is
sent only after the previous one returns. A corpus is an endless
sequence of rounds drawn from one seeded generator; every round has the
same make-up of operation kinds and sizes, so runs with different seeds
load the library the same way and only the letters differ. The library
receives nothing but the generated words.

All calls the benchmark makes into braidforge go through ``LIB``, so
that the traced run can wrap them at this import site (see tracing.py).
Oracles run outside the timed region and use the unwrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from types import SimpleNamespace

from braidforge import bricks, cli, garside, invariants, isomaps, linking, presentations, words
from braidforge.errors import BraidForgeError, ResourceCapError
from braidforge.finite_groups import builtin_targets
from braidforge.words import BraidWord

import oracles
from oracles import require

LIB = SimpleNamespace(
    build_bricks=bricks.build_bricks,
    build_graph=linking.build_graph,
    presentation_of=presentations.presentation_of,
    abelianization=invariants.abelianization,
    hom_count=invariants.hom_count,
    move_map=isomaps.move_map,
    check_map=isomaps.check_map,
    normal_form=garside.normal_form,
    summit=garside.summit,
    are_conjugate=garside.are_conjugate,
    conjugacy_move_sequence_detailed=garside.conjugacy_move_sequence_detailed,
)

TARGET_NAMES = ("S3", "S4")


class CommandFailed(Exception):
    """A CLI command exited with an error instead of printing its answer."""


# Exceptions that make an operation count as failed rather than wrong:
# the library refused (cap, domain error) or tripped its own internal check.
FAILURES = (BraidForgeError, AssertionError, CommandFailed)


class Context:
    """Per-process state: the finite targets and the oracle's cache."""

    def __init__(self) -> None:
        known = builtin_targets()
        self.targets = [known[name] for name in TARGET_NAMES]
        self.caps = dict(invariants.DEFAULT_GENERATOR_CAPS)
        self._base: dict[tuple, tuple] = {}

    def cap(self, name: str) -> int:
        return self.caps.get(name, self.caps["*"])

    def base_invariants(self, strands: int, letters: tuple[int, ...]):
        """Abelianization and hom counts of an invariance base word, checked once."""
        key = (strands, letters)
        if key not in self._base:
            k, _, c = oracles.graph_shape(strands, letters)
            p = presentations.presentation_of(
                linking.build_graph(bricks.build_bricks(BraidWord(strands, letters)))
            )
            ab = invariants.abelianization(p).invariant_factors
            require(
                ab == oracles.expected_abelianization(k, c),
                f"abelianization {ab} of {letters} is not Z^{c} on {k} generators",
            )
            counts = {}
            for t in self.targets:
                try:
                    counts[t.name] = invariants.hom_count(p, t, self.caps).count
                except ResourceCapError:
                    counts[t.name] = None
            self._base[key] = (ab, counts)
        return self._base[key]


def word_text(letters: tuple[int, ...]) -> str:
    return " ".join(map(str, letters))


def run_cli(argv: list[str]) -> tuple[int, dict]:
    """``braidforge <argv>`` in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    out = buf.getvalue()
    if not out:
        raise CommandFailed(f"braidforge {argv[0]} exited {rc} without output")
    return rc, json.loads(out)


def random_letters(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, strands - 1) for _ in range(length))


GOLDEN = 0.6180339887498949


def spread(phase: float, count: int) -> list[float]:
    """count points in [0, 1), one per stratum, placed by a golden-ratio
    sequence. Rounds advance the phase by the same step, so over a run the
    sizes cover their range evenly whatever the seed; only letters vary."""
    return [(i + (phase + i * GOLDEN) % 1.0) / count for i in range(count)]


def stratified(phase: float, lo: int, hi: int, count: int) -> list[int]:
    """count integers covering lo..hi evenly."""
    return [lo + int((hi - lo + 1) * u) for u in spread(phase, count)]


def has_braid_relation(letters: tuple[int, ...]) -> bool:
    return any(kind == "braid" for kind, _ in oracles.equal_rewrites(letters))


class Present:
    """``braidforge invariants <word>`` with the default targets S3 and S4.

    Distinct words, so no two operations share work; the exponent-matrix
    Smith normal form dominates. Each round has 95 words of 10-50 letters
    and one word each of 60, 70, 80, 90 and 100 letters, with strands
    spread evenly over 3-8.
    """

    name = "present"
    LONG = (60, 70, 80, 90, 100)

    def corpus(self, seed: int, small: bool = False):
        rng = random.Random(f"present:{seed}")
        phase = rng.random()
        seen: set[tuple] = set()
        index = 0
        while True:
            count, top = (8, 20) if small else (95, 50)
            # Strands cycle with the length rank, so every seed puts the
            # same strand counts at the same lengths.
            strands = [3 + i % 6 for i in range(count)]
            specs = list(zip(strands, stratified(phase + index * GOLDEN, 10, top, count)))
            if not small:
                specs += [(3 + (index + j) % 6, length) for j, length in enumerate(self.LONG)]
            ops = []
            for n, length in specs:
                letters = random_letters(rng, n, length)
                while (n, letters) in seen:
                    letters = random_letters(rng, n, length)
                seen.add((n, letters))
                ops.append(("invariants", n, letters))
            rng.shuffle(ops)
            yield ops
            index += 1

    def warmup(self, ctx: Context) -> None:
        run_cli(["invariants", "1 2 1 1 2 1", "--strands", "3"])

    def run(self, op, ctx: Context):
        _, n, letters = op
        return run_cli(["invariants", word_text(letters), "--strands", str(n)])

    def check(self, op, result, ctx: Context) -> None:
        _, n, letters = op
        rc, payload = result
        require(rc == 0, f"invariants exited {rc} on {letters}")
        k, e, c = oracles.graph_shape(n, letters)
        ab = tuple(payload["abelianization"])
        require(
            ab == oracles.expected_abelianization(k, c) and payload["rank"] == c,
            f"abelianization {ab} of {n}-strand {letters}: expected Z^{c} on {k} generators",
        )
        p = presentations.presentation_of(
            linking.build_graph(bricks.build_bricks(BraidWord(n, letters)))
        )
        require(
            len(p.relators) == oracles.expected_relators(k, e, c),
            f"{len(p.relators)} relators for {letters}, expected "
            f"{oracles.expected_relators(k, e, c)}",
        )
        skipped = [name for name in TARGET_NAMES if ctx.cap(name) < k]
        require(
            payload["skipped_targets"] == skipped,
            f"skipped {payload['skipped_targets']} with {k} generators, expected {skipped}",
        )
        require(
            sorted(payload["hom_counts"]) == sorted(set(TARGET_NAMES) - set(skipped)),
            f"hom counts {payload['hom_counts']} do not cover the unskipped targets",
        )


class Invariance:
    """The move-invariance experiment, each word used several times.

    Every round draws fresh words of 3-4 strands, six each of 6-12, 13-16
    and 17-24 letters, so all three check_map paths are hit (both
    targets, S3 only, abelianization only). Each short and middle word
    gets two operations with different random moves, each long word one,
    and three middle words also get ``braidforge verify --moves 20``.
    An operation applies one random move of each applicable kind.

    A braid relation roughly doubles an operation's cost, so which words
    lack one is fixed too: two short words and one middle word a round,
    and one long word every second round, about the shares of random
    words of those lengths.
    """

    name = "invariance"
    # lo, hi, words per round, operations per word, spacing exponent,
    # words without a braid relation per two rounds. The long words make
    # a fifth of the operations, so that p90 falls among them; they crowd
    # towards 17 letters, where the abelianization-only check starts, and
    # one in six has 21-24 letters.
    BANDS = ((6, 12, 6, 2, 1, 4), (13, 16, 6, 2, 1, 2), (17, 24, 6, 1, 3, 1))

    def corpus(self, seed: int, small: bool = False):
        rng = random.Random(f"invariance:{seed}")
        bands = ((6, 8, 2, 2, 1, 1), (9, 11, 2, 2, 1, 1)) if small else self.BANDS
        phase = rng.random()
        seen: set[tuple] = set()
        index = 0
        while True:
            ops = []
            middle = []
            for lo, hi, count, uses, power, braid_free in bands:
                m = braid_free // 2 + (braid_free % 2 if index % 2 == 0 else 0)
                # Rotating slots, so braid-free words cover every length and strand count.
                plain = {(index + i * count // m) % count for i in range(m)}
                for j, u in enumerate(spread(phase + index * GOLDEN, count)):
                    length = lo + int((hi - lo + 1) * u**power)
                    n = 3 + j % 2
                    letters = random_letters(rng, n, length)
                    while (n, letters) in seen or has_braid_relation(letters) == (j in plain):
                        letters = random_letters(rng, n, length)
                    seen.add((n, letters))
                    ops += [("moves", n, letters, rng.getrandbits(32)) for _ in range(uses)]
                    if lo == bands[1][0]:
                        middle.append((n, letters))
            for n, letters in middle[:1 if small else 3]:
                ops.append(("verify", n, letters, rng.getrandbits(16)))
            rng.shuffle(ops)
            yield ops
            index += 1

    def warmup(self, ctx: Context) -> None:
        self.run(("moves", 3, (1, 2, 1, 1, 2, 1), 0), ctx)
        run_cli(["verify", "--moves", "2", "1 2 1 2", "--strands", "3"])

    def run(self, op, ctx: Context):
        if op[0] == "verify":
            _, n, letters, seed = op
            return run_cli(
                ["verify", "--moves", "20", "--seed", str(seed), word_text(letters),
                 "--strands", str(n)]
            )
        _, n, letters, seed = op
        rng = random.Random(seed)
        w = BraidWord(n, letters)
        by_kind: dict = {}
        for m in words.enumerate_moves(w):
            by_kind.setdefault(m.kind, []).append(m)
        out = []
        for kind, moves in sorted(by_kind.items(), key=lambda kv: kv[0].value):
            m = rng.choice(moves)
            v = words.apply_move(w, m)
            report = LIB.check_map(LIB.move_map(w, m), ctx.targets, ctx.caps)
            q = LIB.presentation_of(LIB.build_graph(LIB.build_bricks(v)))
            counts = {}
            for t in ctx.targets:
                try:
                    counts[t.name] = LIB.hom_count(q, t, ctx.caps).count
                except ResourceCapError:
                    counts[t.name] = None
            ab = LIB.abelianization(q).invariant_factors
            out.append((kind.value, m.position, v.strands, v.letters, report.consistent, ab, counts))
        return out

    def check(self, op, result, ctx: Context) -> None:
        if op[0] == "verify":
            rc, payload = result
            require(
                rc == 0 and payload["stable"] is True and payload["applied_moves"] == 20,
                f"verify on {op[2]}: exit {rc}, failures {payload.get('failures')}",
            )
            return
        _, n, letters, _ = op
        base_ab, base_counts = ctx.base_invariants(n, letters)
        for kind, position, vn, vl, consistent, ab, counts in result:
            where = f"{kind}@{position} on {n}-strand {letters}"
            require(
                (vn, vl) == oracles.rewrite(n, letters, kind, position),
                f"{where} produced {vl}",
            )
            require(consistent, f"check_map found the map for {where} inconsistent")
            require(ab == base_ab, f"{where} changed the abelianization {base_ab} to {ab}")
            for name, count in counts.items():
                if count is not None and base_counts[name] is not None:
                    require(
                        count == base_counts[name],
                        f"{where} changed the {name} hom count {base_counts[name]} to {count}",
                    )


class Garside:
    """Garside normal forms, move realization, summit sets and conjugacy.

    A round has seven normal forms of 6-10 strands and 100-500 letters,
    five move realizations on 3-4 strands between a word containing a
    half twist and a random conjugate of it, four super summit sets and
    four conjugacy decisions. Two summit words have 6 strands, a half
    twist and one more letter: closures of a few members that still scan
    all 719 permutation braids per member. The others are a 5-strand half
    twist with three more letters and a random 4-strand word of 10-12
    letters. The conjugacy pairs use words of those two 4-5-strand
    shapes; per shape, one pair is conjugate by moves and one has
    different permutation cycle types. Realizations and non-conjugate
    pairs are fast, normal forms sit in the middle, and the closures with
    the longest normal forms make the tail.
    """

    name = "garside"

    def corpus(self, seed: int, small: bool = False):
        rng = random.Random(f"garside:{seed}")
        phase = rng.random()
        index = 0
        forms, moves, lo, hi = (3, 3, 20, 60) if small else (7, 5, 100, 500)
        while True:
            ops = []
            for i, u in enumerate(spread(phase + index * GOLDEN, forms)):
                # Quartic spacing: most words near 100 letters, where the
                # median falls, and a few up to 500.
                length = lo + int((hi - lo) * u**4)
                n = 6 + (forms * index + i) % 5
                ops.append(("normal_form", n, random_letters(rng, n, length)))
            for i in range(moves):
                n = 3 + i % 2
                x = oracles.half_twist(n) + random_letters(rng, n, rng.randint(0, 6))
                y = oracles.conjugacy_walk(rng, n, x, rng.randint(1, 10))
                ops.append(("moveseq", n, x, y))
            if small:
                summits = [(4, random_letters(rng, 4, 8))]
            else:
                summits = [
                    (6, oracles.half_twist(6) + random_letters(rng, 6, 1)),
                    (6, oracles.half_twist(6) + random_letters(rng, 6, 1)),
                    (5, oracles.half_twist(5) + random_letters(rng, 5, 3)),
                    (4, random_letters(rng, 4, rng.randint(10, 12))),
                ]
            ops += [("summit", n, letters) for n, letters in summits]
            for n in (4,) if small else (4, 5):
                for expected in (True, False):
                    if n == 4:
                        a = random_letters(rng, 4, rng.randint(10, 12))
                    else:
                        a = oracles.half_twist(5) + random_letters(rng, 5, 3)
                    if expected:
                        b = oracles.conjugacy_walk(rng, n, a, rng.randint(5, 15))
                    else:
                        b = random_letters(rng, n, len(a))
                        while oracles.cycle_type(n, b) == oracles.cycle_type(n, a):
                            b = random_letters(rng, n, len(a))
                    ops.append(("are_conjugate", n, a, b, expected))
            rng.shuffle(ops)
            yield ops
            index += 1

    def warmup(self, ctx: Context) -> None:
        for op in (
            ("normal_form", 4, (1, 2, 3, 1, 2, 1)),
            ("moveseq", 3, (1, 2, 1, 1), (1, 1, 2, 1)),
            ("summit", 4, (1, 2, 3, 1)),
            ("are_conjugate", 3, (1, 2, 2), (2, 2, 1), True),
        ):
            self.run(op, ctx)

    def run(self, op, ctx: Context):
        kind, n = op[0], op[1]
        if kind == "normal_form":
            return LIB.normal_form(BraidWord(n, op[2]))
        if kind == "summit":
            return LIB.summit(LIB.normal_form(BraidWord(n, op[2])))
        if kind == "are_conjugate":
            return LIB.are_conjugate(BraidWord(n, op[2]), BraidWord(n, op[3]))
        return LIB.conjugacy_move_sequence_detailed(BraidWord(n, op[2]), BraidWord(n, op[3]))

    def check(self, op, result, ctx: Context) -> None:
        kind, n, letters = op[0], op[1], op[2]
        if kind == "normal_form":
            again = garside.normal_form(garside.nf_word(result))
            require(again == result, f"normal form of {letters} is not stable under respelling")
            rewrites = oracles.equal_rewrites(letters)
            if rewrites:
                move = rewrites[len(rewrites) // 2]
                _, other = oracles.rewrite(n, letters, *move)
                require(
                    garside.normal_form(BraidWord(n, other)) == result,
                    f"{move} changed the normal form of {n}-strand {letters}",
                )
        elif kind == "summit":
            shapes = {(m.delta_power, m.canonical_length, m.strands) for m in result.summit_set}
            require(len(shapes) == 1, f"summit set of {letters} mixes shapes {shapes}")
            power, _, strands = shapes.pop()
            require(
                power == result.summit_power and strands == n
                and power >= garside.normal_form(BraidWord(n, letters)).delta_power,
                f"summit power {result.summit_power} of {letters} disagrees with its members",
            )
        elif kind == "are_conjugate":
            require(result is op[4], f"are_conjugate({letters}, {op[3]}) returned {result}")
        else:
            moves = [(m.kind.value, m.position) for m in result.moves]
            require(
                oracles.replay(n, letters, moves) == (n, op[3]),
                f"move sequence from {letters} does not reach {op[3]}",
            )


WORKLOADS = {w.name: w for w in (Present(), Invariance(), Garside())}
