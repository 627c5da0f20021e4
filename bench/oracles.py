"""Independent answers the benchmark checks braidforge against.

Nothing here imports braidforge. Bricks, linking-graph edges and
components are re-derived from the definitions in PAPER.md, word moves
are done by plain letter rewriting, and braid permutations are composed
directly from the letters. The code is deliberately naive so that a
faster library path can be checked against it.
"""

from __future__ import annotations

import random


class OracleError(Exception):
    """The library returned a wrong answer; the whole benchmark run fails."""


def require(condition: bool, message: str) -> None:
    # Not an assert: the check must also hold under ``python -O``.
    if not condition:
        raise OracleError(message)


# -- bricks, edges, components ------------------------------------------------

def bricks_of(strands: int, letters: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(column, lo, hi) per brick: adjacent equal letters of one column, 1-based."""
    out = []
    for column in range(1, strands):
        positions = [p for p, x in enumerate(letters, start=1) if x == column]
        out.extend((column, lo, hi) for lo, hi in zip(positions, positions[1:]))
    return out


def edges_of(bricks: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Linked brick pairs: a shared middle crossing in one column, or
    strictly alternating boundary crossings in adjacent columns."""
    edges = []
    for i, (c1, p, q) in enumerate(bricks):
        for j in range(i + 1, len(bricks)):
            c2, r, s = bricks[j]
            if c1 == c2 and (q == r or s == p):
                edges.append((i, j))
            elif abs(c1 - c2) == 1 and (p < r < q < s or r < p < s < q):
                edges.append((i, j))
    return edges


def component_count(n_vertices: int, edges: list[tuple[int, int]]) -> int:
    label = list(range(n_vertices))

    def root(x: int) -> int:
        while label[x] != x:
            x = label[x]
        return x

    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra != rb:
            label[ra] = rb
    return len({root(v) for v in range(n_vertices)})


def graph_shape(strands: int, letters: tuple[int, ...]) -> tuple[int, int, int]:
    """(bricks k, edges E, components c) of the linking graph."""
    bricks = bricks_of(strands, letters)
    edges = edges_of(bricks)
    return len(bricks), len(edges), component_count(len(bricks), edges)


def expected_abelianization(k: int, c: int) -> tuple[int, ...]:
    """Every relator's exponent vector is an incidence column, so the group
    abelianizes to Z^c: k - c unit invariant factors, then c free ones."""
    return (1,) * (k - c) + (0,) * c


def expected_relators(k: int, e: int, c: int) -> int:
    """One braid or commutation relator per pair, one cycle relator per
    bounded face; Euler's formula gives E - V + c faces."""
    return k * (k - 1) // 2 + (e - k + c)


# -- letter rewriting -----------------------------------------------------------

def rewrite(strands: int, letters: tuple[int, ...], kind: str, position: int) -> tuple[int, tuple[int, ...]]:
    """Apply one move named by its CLI token; returns (strands, letters)."""
    n, p = len(letters), position
    if kind == "braid":
        require(1 <= p <= n - 2, f"braid@{p} outside a word of {n} letters")
        a, b, c = letters[p - 1 : p + 2]
        require(a == c and abs(a - b) == 1, f"braid@{p} does not apply to {letters}")
        return strands, letters[: p - 1] + (b, a, b) + letters[p + 2 :]
    if kind == "farcomm":
        require(1 <= p <= n - 1, f"farcomm@{p} outside a word of {n} letters")
        a, b = letters[p - 1 : p + 1]
        require(abs(a - b) >= 2, f"farcomm@{p} does not apply to {letters}")
        return strands, letters[: p - 1] + (b, a) + letters[p + 1 :]
    if kind == "conjL":
        require(n >= 1 and p == 1, f"conjL@{p} does not apply")
        return strands, letters[1:] + letters[:1]
    if kind == "conjR":
        require(n >= 1 and p == n, f"conjR@{p} does not apply")
        return strands, letters[-1:] + letters[:-1]
    if kind == "stab":
        require(p == n + 1, f"stab@{p} does not apply")
        return strands + 1, letters + (strands,)
    if kind == "destab":
        require(
            n >= 1 and p == n and strands >= 3 and letters[-1] == strands - 1
            and letters.count(strands - 1) == 1,
            f"destab@{p} does not apply to {letters}",
        )
        return strands - 1, letters[:-1]
    raise OracleError(f"unknown move kind {kind!r}")


def replay(strands: int, letters: tuple[int, ...], moves) -> tuple[int, tuple[int, ...]]:
    """Apply (kind, position) pairs in order."""
    for kind, position in moves:
        strands, letters = rewrite(strands, letters, kind, position)
    return strands, letters


def equal_rewrites(letters: tuple[int, ...]) -> list[tuple[str, int]]:
    """Braid relations and far commutations that apply; they keep the braid."""
    out = []
    for p in range(1, len(letters) - 1):
        a, b, c = letters[p - 1 : p + 2]
        if a == c and abs(a - b) == 1:
            out.append(("braid", p))
    for p in range(1, len(letters)):
        if abs(letters[p - 1] - letters[p]) >= 2:
            out.append(("farcomm", p))
    return out


def conjugacy_walk(
    rng: random.Random, strands: int, letters: tuple[int, ...], steps: int
) -> tuple[int, ...]:
    """Random braid relations, far commutations and end rotations: a conjugate."""
    for _ in range(steps):
        moves = equal_rewrites(letters) + [("conjL", 1), ("conjR", len(letters))]
        kind, position = rng.choice(moves)
        _, letters = rewrite(strands, letters, kind, position)
    return letters


# -- permutations ---------------------------------------------------------------

def cycle_type(strands: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted cycle lengths of the braid's permutation; a conjugacy invariant."""
    perm = list(range(strands))
    for i in letters:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    seen = [False] * strands
    lengths = []
    for start in range(strands):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def half_twist(strands: int) -> tuple[int, ...]:
    """(s1..s_{n-1})(s1..s_{n-2})...(s1), written out independently."""
    return tuple(i for top in range(strands - 1, 0, -1) for i in range(1, top + 1))
