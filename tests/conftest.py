"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: the rewriting
closure explores word moves directly, the hom-count oracle enumerates
all assignments, the brick oracle re-scans the word, the lattice
oracles take sympy's Smith normal decomposition of the dense exponent
matrix spelled from the relator words, the Garside oracles
left-weight letter by letter in whole-list passes until nothing moves,
converge to super summit sets by walking whole cycling and decycling
orbits, and close super summit sets under all n! - 1 permutation
braids, and
the group-table oracle tests associativity on every triple. They stay
dumb so the fast implementations can be checked against them.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Mapping
from functools import cache
from itertools import permutations, product

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_decomp

from braidforge.garside import (
    NormalForm,
    Perm,
    delta_perm,
    identity_perm,
    left_complement,
    letter_perm,
    perm_inv,
    perm_mul,
    tau_pow,
)
from braidforge.presentations import (
    GroupWord,
    Presentation,
    Relator,
    RelatorKind,
    braid_relator,
    comm_relator,
)
from braidforge.words import BraidWord


def oracle_group_table(name: str, table, identity: int = 0) -> None:
    """Identity, Latin-square, inverse and full O(n^3) associativity checks
    of a multiplication table; raises ValueError at the first that fails."""
    n = len(table)
    if not 0 <= identity < n:
        raise ValueError("identity index out of range")
    for a in range(n):
        if sorted(table[a]) != list(range(n)):
            raise ValueError(f"{name}: row {a} is not a permutation")
    for a in range(n):
        if table[identity][a] != a or table[a][identity] != a:
            raise ValueError(f"{name}: identity fails at {a}")
        if sorted(table[b][a] for b in range(n)) != list(range(n)):
            raise ValueError(f"{name}: column {a} is not a permutation")
        if identity not in table[a]:
            raise ValueError(f"{name}: inverse fails at {a}")
    for a in range(n):
        for b in range(n):
            row_a, row_ab = table[a], table[table[a][b]]
            for c in range(n):
                if row_ab[c] != row_a[table[b][c]]:
                    raise ValueError(f"{name}: associativity fails at {a},{b},{c}")


def rewriting_class(w: BraidWord) -> frozenset[tuple[int, ...]]:
    """All words reachable by braid relations and far commutativity."""
    seen = {w.letters}
    frontier = [w.letters]
    while frontier:
        letters = frontier.pop()
        n = len(letters)
        for p in range(n - 2):
            a, b, c = letters[p], letters[p + 1], letters[p + 2]
            if a == c and abs(a - b) == 1:
                nxt = letters[:p] + (b, a, b) + letters[p + 3 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        for p in range(n - 1):
            if abs(letters[p] - letters[p + 1]) >= 2:
                nxt = (
                    letters[:p]
                    + (letters[p + 1], letters[p])
                    + letters[p + 2 :]
                )
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return frozenset(seen)


def conjugacy_word_class(w: BraidWord) -> frozenset[tuple[int, ...]]:
    """Closure under braid relations, far commutativity and rotations."""
    seen = {w.letters}
    frontier = [w.letters]
    while frontier:
        letters = frontier.pop()
        candidates = []
        n = len(letters)
        for p in range(n - 2):
            a, b, c = letters[p], letters[p + 1], letters[p + 2]
            if a == c and abs(a - b) == 1:
                candidates.append(letters[:p] + (b, a, b) + letters[p + 3 :])
        for p in range(n - 1):
            if abs(letters[p] - letters[p + 1]) >= 2:
                candidates.append(
                    letters[:p] + (letters[p + 1], letters[p]) + letters[p + 2 :]
                )
        if n:
            candidates.append(letters[1:] + letters[:1])
            candidates.append(letters[-1:] + letters[:-1])
        for nxt in candidates:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def brute_hom_count(relator_words, k: int, target) -> int:
    """Exhaustive |T|^k assignment count; k must stay tiny."""
    count = 0
    for images in product(range(target.size), repeat=k):
        ok = True
        for word in relator_words:
            acc = target.identity
            for x in word:
                g = images[abs(x) - 1]
                acc = target.mul(acc, g if x > 0 else target.inv(g))
            if acc != target.identity:
                ok = False
                break
        if ok:
            count += 1
    return count


def exponent_matrix(p: Presentation) -> list[list[int]]:
    """Rows = generators, columns = relators; entries are the exponent
    sums of each relator word. A pair table spells its relators on each
    read, so they are read once."""
    relators = p.relators
    matrix = [[0] * len(relators) for _ in range(p.n_generators)]
    for j, r in enumerate(relators):
        for x in r.word:
            matrix[abs(x) - 1][j] += 1 if x > 0 else -1
    return matrix


def _smith(matrix: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Invariant diagonal d (one entry per row, 0 past the rank) and row
    transform S of the matrix's Smith normal form S M T = D.

    Zero and repeated columns span nothing new, so each distinct set of
    nonzero columns is decomposed once and shared by both oracles.
    """
    columns = frozenset(col for col in zip(*matrix) if any(col))
    return _smith_of_columns(len(matrix), tuple(sorted(columns)))


@cache
def _smith_of_columns(rows: int, columns: tuple[tuple[int, ...], ...]):
    if not columns:
        return [0] * rows, [[int(i == j) for j in range(rows)] for i in range(rows)]
    d, s, _ = smith_normal_decomp(Matrix(columns).T, domain=ZZ)
    diag = [abs(int(d[i, i])) if i < len(columns) else 0 for i in range(rows)]
    return diag, [[int(x) for x in s.row(i)] for i in range(rows)]


def snf_abelianization(p: Presentation) -> tuple[int, ...]:
    """Invariant factors from the Smith normal form of the exponent matrix."""
    diag, _ = _smith(exponent_matrix(p))
    nonzero = sorted(d for d in diag if d != 0)
    return tuple(nonzero) + (0,) * (p.n_generators - len(nonzero))


def snf_membership(matrix: list[list[int]]):
    """Predicate: is a vector (a list, or a mapping from 0-based generator to
    coefficient) in the column lattice, by the SNF row transform (v is in
    the span iff d_i divides (Sv)_i, with d_i = 0 meaning (Sv)_i = 0)."""
    diag, s = _smith(matrix)

    def member(vector: list[int] | Mapping[int, int]) -> bool:
        if isinstance(vector, Mapping):
            vector = [vector.get(g, 0) for g in range(len(matrix))]
        for d, row in zip(diag, s):
            sv = sum(a * b for a, b in zip(row, vector))
            if (sv != 0) if d == 0 else (sv % d != 0):
                return False
        return True

    return member


def brick_pairs_oracle(w: BraidWord) -> list[tuple[int, int, int]]:
    """(column, lo, hi) triples by direct scan of consecutive occurrences."""
    out = []
    for column in range(1, w.strands):
        occ = [p for p, i in enumerate(w.letters, start=1) if i == column]
        out.extend((column, occ[t], occ[t + 1]) for t in range(len(occ) - 1))
    return out


def linked_oracle(w: BraidWord, b1, b2) -> bool:
    """Direct alternation/nesting predicate on two bricks."""
    if b1.column == b2.column:
        return b1.hi == b2.lo or b2.hi == b1.lo
    if abs(b1.column - b2.column) != 1:
        return False
    p, q, r, s = b1.lo, b1.hi, b2.lo, b2.hi
    return (p < r < q < s) or (r < p < s < q)


def random_word(rng: random.Random, max_strands: int = 4, max_len: int = 12) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(1, max_len)
    return BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(length)))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240809)


def relator_words(p: Presentation) -> tuple[GroupWord, ...]:
    return tuple(r.word for r in p.relators)


def by_kind(p: Presentation, kind: RelatorKind) -> tuple[Relator, ...]:
    return tuple(r for r in p.relators if r.kind is kind)


def table_presentation(k: int, braid_pairs, cycles) -> Presentation:
    """Braid relators on braid_pairs, commutation relators on every other
    pair of 1..k, then the cycles, read through Presentation(k, relators)."""
    linked = {(min(pair), max(pair)) for pair in braid_pairs}
    relators = [braid_relator(i, j) for i, j in sorted(linked)]
    relators += [
        comm_relator(i, j)
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
        if (i, j) not in linked
    ]
    return Presentation(k, (*relators, *cycles))


# -- Garside oracles ---------------------------------------------------------

def starting_set(p: Perm) -> frozenset[int]:
    """Letters i with a reduced word for p beginning sigma_i."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def finishing_set(p: Perm) -> frozenset[int]:
    """Letters i with a reduced word for p ending sigma_i."""
    return starting_set(perm_inv(p))


def oracle_normalize_factors(n: int, perms):
    """Left-weight by whole-list passes, one letter at a time, until stable."""
    ident = identity_perm(n)
    delta = delta_perm(n)
    factors = [p for p in perms if p != ident]
    changed = True
    while changed:
        changed = False
        for j in range(len(factors) - 1):
            p, q = factors[j], factors[j + 1]
            if p == delta or q == ident:
                continue
            missing = starting_set(q) - finishing_set(p)
            while missing:
                i = min(missing)
                p = perm_mul(p, letter_perm(n, i))
                q = perm_mul(letter_perm(n, i), q)
                changed = True
                if q == ident or p == delta:
                    break
                missing = starting_set(q) - finishing_set(p)
            factors[j], factors[j + 1] = p, q
        if ident in factors:
            factors = [p for p in factors if p != ident]
    k = 0
    while factors and factors[0] == delta:
        k += 1
        factors.pop(0)
    return k, tuple(factors)


def oracle_normal_form(w: BraidWord) -> NormalForm:
    n = w.strands
    k, factors = oracle_normalize_factors(n, [letter_perm(n, i) for i in w.letters])
    return NormalForm(n, k, factors)


def oracle_conjugate_nf(nf: NormalForm, c) -> NormalForm:
    """c^-1 nf c, with c^-1 = Delta^-1 c' and c' moved past Delta^k."""
    n = nf.strands
    seq = [tau_pow(left_complement(c), nf.delta_power), *nf.factors, c]
    d, factors = oracle_normalize_factors(n, seq)
    return NormalForm(n, nf.delta_power - 1 + d, factors)


def oracle_cycling(nf: NormalForm) -> NormalForm:
    if not nf.factors:
        return nf
    x = tau_pow(nf.factors[0], nf.delta_power)
    d, factors = oracle_normalize_factors(nf.strands, [*nf.factors[1:], x])
    return NormalForm(nf.strands, nf.delta_power + d, factors)


def oracle_decycling(nf: NormalForm) -> NormalForm:
    if not nf.factors:
        return nf
    x = tau_pow(nf.factors[-1], nf.delta_power)
    d, factors = oracle_normalize_factors(nf.strands, [x, *nf.factors[:-1]])
    return NormalForm(nf.strands, nf.delta_power + d, factors)


def oracle_summit_closure(rep: NormalForm) -> set[tuple]:
    """Keys of the closure of rep under all n! - 1 nontrivial permutation braids
    that keep (delta power, canonical length)."""
    n = rep.strands
    ident = identity_perm(n)
    simples = [p for p in permutations(range(n)) if p != ident]
    shape = (rep.delta_power, rep.canonical_length)
    seen = {rep.key()}
    queue = deque([rep])
    while queue:
        u = queue.popleft()
        for c in simples:
            v = oracle_conjugate_nf(u, c)
            if (v.delta_power, v.canonical_length) == shape and v.key() not in seen:
                seen.add(v.key())
                queue.append(v)
    return seen


def oracle_summit_representative(nf: NormalForm) -> tuple[NormalForm, list[str], list[int]]:
    """Converge to the super summit set with no bound on a phase: cycling
    until the Delta power stops improving over a whole orbit, then
    decycling until the canonical length does. Returns the representative,
    the committed operation log and, per improvement, the number of steps
    its phase took."""
    ops: list[str] = []
    improvements: list[int] = []
    while True:
        improved = False
        for op, fn, better in (
            ("cycle", oracle_cycling, lambda a, b: a.delta_power > b.delta_power),
            ("decycle", oracle_decycling, lambda a, b: a.canonical_length < b.canonical_length),
        ):
            seen = {nf.key()}
            cur = nf
            trail: list[str] = []
            while True:
                nxt = fn(cur)
                trail.append(op)
                if better(nxt, nf):
                    nf = nxt
                    ops.extend(trail)
                    improvements.append(len(trail))
                    improved = True
                    break
                if nxt.key() in seen:
                    break
                seen.add(nxt.key())
                cur = nxt
            if improved:
                break
        if not improved:
            return nf, ops, improvements
