"""Garside machinery: left normal form, cycling, summit sets, conjugacy.

Permutation braids are stored as image tuples (0-based strands); the
product p * q means "p then q", matching word concatenation. The left
normal form of a positive word is Delta^k p1 ... pl with each factor a
permutation braid that is neither trivial nor Delta, and every adjacent
pair left-weighted: the finishing set of p_i contains the starting set
of p_{i+1}. Two positive words represent the same braid exactly when
their normal forms coincide. A word is read as its maximal runs of
letters that stay simple, one permutation braid each, and the form is
built one factor at a time, left-weighting pairs leftward from the end
until one is already left-weighted.

Conjugacy is decided through the super summit set: cycling raises the
Delta exponent to its conjugacy-class maximum (the summit power),
decycling lowers the canonical length, each improving within
||Delta|| = n(n-1)/2 steps whenever it can (Elrifai and Morton; Birman,
Ko and Lee), and the super summit set is the
closure of the converged representative under conjugation by minimal
simple elements: for each member and each generator sigma_i, the least
permutation braid above sigma_i that keeps the conjugate in the set
(Franco and Gonzalez-Meneses), grown by division steps y \\ t. Every
permutation-braid primitive that the closure repeats (division steps,
tau, complements, lengths, the identity, Delta and letter permutations)
is memoized per distinct input, and so is perm_word's spelling, each
by an lru_cache of PERM_MEMO entries.
One function decides conjugacy for every pair of normal forms. Equal
forms are their own representatives; otherwise it first compares the
cycle types of the two braids' permutations, which conjugation
preserves, and only equal types are converged; the deciding closure
stops as soon as it discovers the second representative, and is
skipped when both representatives agree.
Conjugacy of positive words containing a half twist is also *realized*
as an explicit sequence of word moves: braid relations, far
commutativity and elementary conjugations only. Each word walks the
path its normal form gives to the form's spelling, with no search: the
path replays the left-weighting at word level, and each letter that
moves between factors is first brought to the front of its factor's
segment by the constructive exchange. Two spellings of one braid take
that path and no conjugation step, so they need no half twist.
Inside one permutation braid's reduced words, which braid relations and
far commutations connect (Matsumoto 1964, Tits 1969), the crossing of
the two strands at positions i, i+1 walks left past far letters, and an
adjacent letter closes a triangle whose third crossing the mirror walk
brings next to it, so one braid relation passes both. The realized
moves are replayed from the first word, and a replay that does not
reach the second raises GarsideInvariantError: no search runs. The
realization shares one decision with are_conjugate: each normal form,
summit representative and the one closure are built once per call. Each
representative's log holds every cycling and decycling step with the
form it was taken from, and the parents of the closure that decides
conjugacy supply the summit hops (breadth-first order and
first-discovery parents are those of the full closure). Every such step
is a conjugation by a simple element, and one function realizes them
all from the forms the decision computed, none computed again.
Checks that an answer rests on raise GarsideInvariantError, so they
hold under ``python -O``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Callable

from .errors import (
    GarsideInvariantError,
    MoveError,
    ResourceCapError,
    StrandMismatchError,
    WordError,
)
from .words import BraidWord, MoveKind, WordMove, _site, end_position, replay, undo_move

Perm = tuple[int, ...]


# -- permutation braid primitives -------------------------------------------

# Bound on each memo of permutation-braid work below. The closures meet
# few distinct inputs: at most n! permutations per primitive, and about
# a thousand (factor, remainder) division steps over a benchmark run.
PERM_MEMO = 4096


@lru_cache(maxsize=PERM_MEMO)
def identity_perm(n: int) -> Perm:
    return tuple(range(n))


@lru_cache(maxsize=PERM_MEMO)
def delta_perm(n: int) -> Perm:
    return tuple(range(n - 1, -1, -1))


@lru_cache(maxsize=PERM_MEMO)
def letter_perm(n: int, i: int) -> Perm:
    """The transposition of strands i, i+1 (letters are 1-based)."""
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def perm_mul(p: Perm, q: Perm) -> Perm:
    """p then q."""
    return tuple(q[x] for x in p)


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


@lru_cache(maxsize=PERM_MEMO)
def perm_length(p: Perm) -> int:
    """Inversion count = positive word length of the permutation braid."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


@lru_cache(maxsize=PERM_MEMO)
def tau(p: Perm) -> Perm:
    """Conjugation by Delta: tau(sigma_i) = sigma_{n-i}."""
    n = len(p)
    return tuple(n - 1 - p[n - 1 - x] for x in range(n))


def tau_pow(p: Perm, k: int) -> Perm:
    return tau(p) if k % 2 else p


@lru_cache(maxsize=PERM_MEMO)
def left_complement(c: Perm) -> Perm:
    """c' with c' * c = Delta."""
    ci = perm_inv(c)
    w0 = delta_perm(len(c))
    return tuple(ci[w0[x]] for x in range(len(c)))


@lru_cache(maxsize=PERM_MEMO)
def right_complement(c: Perm) -> Perm:
    """c' with c * c' = Delta."""
    ci = perm_inv(c)
    w0 = delta_perm(len(c))
    return tuple(w0[ci[x]] for x in range(len(c)))


@lru_cache(maxsize=PERM_MEMO)
def perm_word(p: Perm) -> tuple[int, ...]:
    """A deterministic reduced positive word spelling the permutation braid:
    the least letter of the starting set, then the rest's word."""
    q = list(p)
    letters = []
    while True:
        descent = next((i for i in range(1, len(q)) if q[i - 1] > q[i]), None)
        if descent is None:
            break
        letters.append(descent)
        q[descent - 1], q[descent] = q[descent], q[descent - 1]
    return tuple(letters)


def delta_word(n: int) -> tuple[int, ...]:
    """The half twist (s1..s_{n-1})(s1..s_{n-2})...(s1)."""
    out: list[int] = []
    for top in range(n - 1, 0, -1):
        out.extend(range(1, top + 1))
    return tuple(out)


# -- normal forms ------------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    """Left normal form Delta^k p1...pl; equal braids have equal forms.

    The constructor raises WordError on input that is no left normal form;
    the forms garside derives skip that check (see _normalized)."""

    strands: int
    delta_power: int
    factors: tuple[Perm, ...]

    def __post_init__(self) -> None:
        n, k = self.strands, self.delta_power
        if not (isinstance(n, int) and n >= 2 and isinstance(k, int)):
            raise WordError(f"need int strands >= 2 and an int delta power, got {n!r}, {k!r}")
        if not isinstance(self.factors, (tuple, list)):
            raise WordError(f"factors {self.factors!r} are no tuple of factors")
        factors = tuple(tuple(p) if isinstance(p, (tuple, list)) else p for p in self.factors)
        for j, p in enumerate(factors):
            if not (isinstance(p, tuple) and all(isinstance(x, int) for x in p)):
                raise WordError(f"factor {p!r} is no tuple of ints")
            if sorted(p) != list(range(n)) or p in (identity_perm(n), delta_perm(n)):
                raise WordError(f"factor {p} is 1, Delta or no permutation of range({n})")
            pair = factors[j - 1 : j + 1]  # normal iff left-weighting keeps it
            if j and _normalize_factors(n, pair) != (0, pair):
                raise WordError(f"factors {pair[0]} {p} are not left-weighted")
        object.__setattr__(self, "factors", factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def key(self) -> tuple:
        return (self.strands, self.delta_power, self.factors)

    def to_json(self) -> str:
        return json.dumps(
            {
                "strands": self.strands,
                "k": self.delta_power,
                "factors": [[x + 1 for x in p] for p in self.factors],
            }
        )


def _left_weight(
    n: int, p: list[int], pi: list[int], q: list[int], qi: list[int],
    on_move: Callable[[int], None] | None = None,
) -> bool:
    """Left-weight the pair p | q in place; True iff any letter moved.

    Each factor is held as its image list and its inverse. A letter
    sigma_i with i in S(q) but not in F(p) moves from the front of q to
    the end of p by swapping positions i-1, i of q and values i-1, i of
    p: O(1) per letter, and on_move(i), when given, hears it. Descents
    change only next to the swap, so the scan resumes one place to the
    left; on exit S(q) is a subset of F(p).
    """
    moved = False
    i = 1
    while i < n:
        if q[i - 1] > q[i] and pi[i - 1] < pi[i]:
            if on_move is not None:
                on_move(i)
            a, b = q[i - 1], q[i]
            q[i - 1], q[i] = b, a
            qi[a], qi[b] = i, i - 1
            x, y = pi[i - 1], pi[i]
            pi[i - 1], pi[i] = y, x
            p[x], p[y] = i, i - 1
            moved = True
            if i > 1:
                i -= 1
        else:
            i += 1
    return moved


def _normalize_factors(
    n: int, perms: list[Perm], on_move: Callable[[int, int, int], None] | None = None
) -> tuple[int, tuple[Perm, ...]]:
    """Left-weight a factor sequence; returns (extracted delta power, factors).

    Factors are appended one at a time to a left-weighted prefix, and
    pairs are left-weighted leftward from the end until a left factor is
    left unchanged: the prefix before it is then still left-weighted.
    Only the appended factor can be emptied, and then it is dropped; any
    Delta factors end up at the front. on_move(r, j, i), when given,
    hears each letter sigma_i that moves from the front of factor j to
    the end of factor j - 1 while perms[r] is appended.
    """
    ident = list(range(n))
    fw: list[list[int]] = []
    bw: list[list[int]] = []
    for r, perm in enumerate(perms):
        q = list(perm)
        qi = [0] * n
        for x, y in enumerate(q):
            qi[y] = x
        fw.append(q)
        bw.append(qi)
        j = len(fw) - 1
        while j and _left_weight(
            n, fw[j - 1], bw[j - 1], fw[j], bw[j], on_move and partial(on_move, r, j)
        ):
            j -= 1
        if fw[-1] == ident:
            fw.pop()
            bw.pop()
    delta = list(range(n - 1, -1, -1))
    k = 0
    while k < len(fw) and fw[k] == delta:
        k += 1
    return k, tuple(tuple(f) for f in fw[k:])


def _simple_runs(w: BraidWord) -> list[Perm]:
    """The maximal simple runs of w, one permutation braid each.

    A run held as image list p and inverse pi stays simple under sigma_i
    iff pi[i-1] < pi[i] (i is not in its finishing set), and then grows
    by swapping values i-1, i of p as _left_weight does.
    """
    n = w.strands
    runs: list[Perm] = []
    p, pi = list(range(n)), list(range(n))
    for i in w.letters:
        if pi[i - 1] > pi[i]:
            runs.append(tuple(p))
            p, pi = list(range(n)), list(range(n))
        x, y = pi[i - 1], pi[i]
        pi[i - 1], pi[i] = y, x
        p[x], p[y] = i, i - 1
    if w.letters:
        runs.append(tuple(p))
    return runs


def normal_form(w: BraidWord) -> NormalForm:
    """Left normal form of a positive word, from its maximal simple runs."""
    return _normalized(w.strands, 0, _simple_runs(w))


def _normalized(n: int, k: int, perms: list[Perm]) -> NormalForm:
    """The form of Delta^k perms, left-weighted. It skips the constructor's
    check: the forms garside derives are normal by construction."""
    d, factors = _normalize_factors(n, perms)
    nf = object.__new__(NormalForm)
    nf.__dict__.update(strands=n, delta_power=k + d, factors=factors)
    return nf


def _spellings(n: int, k: int, factors: tuple[Perm, ...]) -> list[tuple[int, ...]]:
    """One word per factor of the left normal form Delta^k factors:
    delta_word for each Delta, perm_word for the rest."""
    return [delta_word(n)] * k + [perm_word(p) for p in factors]


def _spelled(n: int, k: int, factors: tuple[Perm, ...]) -> tuple[int, ...]:
    """The letters nf_word gives the left normal form Delta^k factors."""
    return tuple(chain.from_iterable(_spellings(n, k, factors)))


def nf_word(nf: NormalForm) -> BraidWord:
    """A positive word spelling the normal form; requires delta_power >= 0."""
    if nf.delta_power < 0:
        raise ValueError("cannot spell a braid with negative delta power positively")
    return BraidWord(nf.strands, _spelled(nf.strands, nf.delta_power, nf.factors))


def words_equal_as_braids(a: BraidWord, b: BraidWord) -> bool:
    if a.strands != b.strands:
        raise StrandMismatchError(f"strand counts differ: {a.strands} vs {b.strands}")
    return normal_form(a) == normal_form(b)


# -- cycling / summit --------------------------------------------------------

@dataclass(frozen=True)
class GarsideCaps:
    """Positive search limits; exceeding one raises ResourceCapError."""

    summit_set: int = 100_000

    def __post_init__(self) -> None:
        for name, cap in vars(self).items():
            if not isinstance(cap, int):
                raise ValueError(f"caps.{name}: must be an int, got {cap!r}")
            if cap <= 0:
                raise ValueError(f"caps.{name}: must be positive, got {cap}")


DEFAULT_CAPS = GarsideCaps()


@dataclass(frozen=True)
class SummitData:
    summit_power: int
    summit_set: frozenset[NormalForm]


def conjugate_nf(nf: NormalForm, c: Perm) -> NormalForm:
    """Normal form of c^-1 * beta * c for a permutation braid c."""
    n = nf.strands
    if c == identity_perm(n):
        return nf
    cprime = left_complement(c)  # c^-1 = Delta^-1 * c'
    seq = [tau_pow(cprime, nf.delta_power)] + list(nf.factors) + [c]
    return _normalized(n, nf.delta_power - 1, seq)


def cycling(nf: NormalForm) -> NormalForm:
    """Conjugate by the first factor (Delta-twisted); identity when l = 0."""
    if not nf.factors:
        return nf
    x = tau_pow(nf.factors[0], nf.delta_power)
    return _normalized(nf.strands, nf.delta_power, list(nf.factors[1:]) + [x])


def decycling(nf: NormalForm) -> NormalForm:
    """Conjugate by the inverse of the last factor; identity when l = 0."""
    if not nf.factors:
        return nf
    seq = [tau_pow(nf.factors[-1], nf.delta_power)] + list(nf.factors[:-1])
    return _normalized(nf.strands, nf.delta_power, seq)


# A summit representative and its committed log: each cycle or decycle
# step with the form it was taken from.
_Converged = tuple[NormalForm, list[tuple[str, NormalForm]]]


def _summit_representative(nf: NormalForm) -> _Converged:
    """Converge to the super summit set; returns the committed operation log.

    Cycling is iterated until the Delta power stops improving, then
    decycling until the canonical length stops improving. If cycling can
    raise inf, it does so within ||Delta|| = n(n-1)/2 cyclings, and if
    decycling can lower sup, within ||Delta|| decyclings (Elrifai and
    Morton, Quart. J. Math. 45, 1994; Birman, Ko and Lee, Adv. Math. 164,
    2001), so a phase gives up after that many steps, or sooner when its
    orbit repeats. Each improvement raises inf or lowers sup, so the
    loop ends.
    """
    bound = nf.strands * (nf.strands - 1) // 2
    log: list[tuple[str, NormalForm]] = []
    phases = (
        ("cycle", cycling, lambda a, b: a.delta_power > b.delta_power),
        ("decycle", decycling, lambda a, b: a.canonical_length < b.canonical_length),
    )
    while True:
        for op, fn, better in phases:
            seen = {nf.key()}
            trail = [nf]  # the forms each step of the phase is taken from
            for _ in range(bound):
                cur = fn(trail[-1])
                if better(cur, nf) or cur.key() in seen:
                    break
                seen.add(cur.key())
                trail.append(cur)
            if better(cur, nf):
                nf = cur
                log += [(op, f) for f in trail]
                break
        else:
            return nf, log


def perm_join(a: Perm, b: Perm) -> Perm:
    """Least common multiple a v b of two permutation braids (prefix order).

    Its position-inversion set {(i<j) : p[i] > p[j]} is the transitive
    closure of the union of those of a and b. Rows are bitmasks of the
    later positions, closed from the last position backwards.
    """
    n = len(a)
    rows = [0] * n
    for i in range(n - 2, -1, -1):
        ai, bi = a[i], b[i]
        row = 0
        for j in range(i + 1, n):
            if a[j] < ai or b[j] < bi:
                row |= 1 << j
        closed = row
        while row:
            low = row & -row
            closed |= rows[low.bit_length() - 1]
            row ^= low
        rows[i] = closed
    # p[i] counts the positions whose value lies below p[i]: the later
    # ones in rows[i] and the earlier ones j whose row lacks i.
    above = [0] * n
    for row in rows:
        while row:
            low = row & -row
            above[low.bit_length() - 1] += 1
            row ^= low
    return tuple(rows[i].bit_count() + i - above[i] for i in range(n))


@lru_cache(maxsize=PERM_MEMO)
def _under(y: Perm, t: Perm) -> Perm:
    """y \\ t = y^-1 (y v t), the least simple r with t a prefix of y r."""
    return perm_mul(perm_inv(y), perm_join(y, t))


def _remainder(factors: list[Perm], t: Perm) -> Perm:
    """The least simple r with t a prefix of factors[0]...factors[-1] * r,
    divided through the factors one memoized step at a time."""
    ident = identity_perm(len(t))
    for y in factors:
        if t == ident:
            break
        t = _under(y, t)
    return t


def _inverse_factors(u: NormalForm) -> list[Perm]:
    """The factors of u^-1 = Delta^-(p+r) * tau^(p+r)(x_r') ... tau^(p+1)(x_1'),
    where u = Delta^p x_1...x_r and x' is the right complement of x."""
    p = u.delta_power
    return [
        tau_pow(right_complement(x), p + j + 1)
        for j, x in reversed(list(enumerate(u.factors)))
    ]


def _minimal_simple(u: NormalForm, back: list[Perm], i: int) -> Perm:
    """The least simple c with sigma_i a prefix of c and u^c super summit.

    u = Delta^p x_1...x_r lies in its super summit set and back is
    _inverse_factors(u). inf(u^c) >= p iff tau^p(c) is a prefix of
    x_1...x_r c, and sup(u^c) <= p + r iff tau^(p+r)(c) is a prefix of
    back * c. While either fails, the missing remainder w is a prefix of
    what the least c still lacks, so c grows to c w (Franco and
    Gonzalez-Meneses, J. Algebra 266, 2003).
    """
    n, p, r = u.strands, u.delta_power, u.canonical_length
    ident = identity_perm(n)
    c = letter_perm(n, i)
    while True:
        w = _remainder([*u.factors, c], tau_pow(c, p))
        if w == ident:
            w = _remainder([*back, c], tau_pow(c, p + r))
            if w == ident:
                return c
        cw = perm_mul(c, w)
        if perm_length(cw) != perm_length(c) + perm_length(w):
            raise GarsideInvariantError(
                f"conjugator {c} extended by {w} is not a permutation braid"
            )
        c = cw


def _walk_back(parents: dict, key) -> list[tuple]:
    """(key, label) per edge of the recorded path from the root to key,
    root first; parents maps each key to (parent key, label) or None."""
    path = []
    while parents[key] is not None:
        prev, label = parents[key]
        path.append((key, label))
        key = prev
    return path[::-1]


def _summit_closure(
    rep: NormalForm, caps: GarsideCaps, goal: tuple | None = None
) -> tuple[dict[tuple, NormalForm], dict[tuple, tuple[tuple, Perm] | None]]:
    """BFS closure of the super summit set, recording conjugating parents.

    Each member u is conjugated by the minimal simple element above each
    generator sigma_i; these connect the whole super summit set, so at
    most n - 1 conjugates are formed per member. Given a goal key, the
    search stops as soon as that member is discovered: the members and
    first-discovery parents so far are those of the full closure.
    """
    n = rep.strands
    k_s, l_s = rep.delta_power, rep.canonical_length
    members = {rep.key(): rep}
    parents: dict[tuple, tuple[tuple, Perm] | None] = {rep.key(): None}
    queue = deque([rep])
    while queue:
        u = queue.popleft()
        back = _inverse_factors(u)
        tried = set()
        for i in range(1, n):
            c = _minimal_simple(u, back, i)
            if c in tried:
                continue
            tried.add(c)
            v = conjugate_nf(u, c)
            if v.delta_power != k_s or v.canonical_length != l_s:
                raise GarsideInvariantError(
                    f"conjugating by {c} left the super summit set"
                )
            if v.key() in members:
                continue
            if len(members) >= caps.summit_set:
                raise ResourceCapError(
                    f"summit set exceeded the cap {caps.summit_set}"
                )
            members[v.key()] = v
            parents[v.key()] = (u.key(), c)
            if v.key() == goal:
                return members, parents
            queue.append(v)
    return members, parents


def summit(nf: NormalForm, caps: GarsideCaps = DEFAULT_CAPS) -> SummitData:
    """Summit power and super summit set of the conjugacy class."""
    rep, _ = _summit_representative(nf)
    members, _ = _summit_closure(rep, caps)
    return SummitData(rep.delta_power, frozenset(members.values()))


def _cycle_type(nf: NormalForm) -> tuple[int, ...]:
    """Sorted cycle lengths of the braid's permutation. Conjugate braids
    have conjugate permutations, so this is a conjugacy invariant."""
    n = nf.strands
    p = delta_perm(n) if nf.delta_power % 2 else identity_perm(n)
    for f in nf.factors:
        p = perm_mul(p, f)
    seen = [False] * n
    lengths = []
    for x in range(n):
        size = 0
        while not seen[x]:
            seen[x] = True
            x = p[x]
            size += 1
        if size:
            lengths.append(size)
    return tuple(sorted(lengths))


def _conjugacy(
    nfa: NormalForm, nfb: NormalForm, caps: GarsideCaps
) -> tuple[_Converged, _Converged, list[tuple[NormalForm, Perm]]] | None:
    """Decide conjugacy of two braids given by their normal forms.

    Returns None when they are not conjugate: when their permutations'
    cycle types differ, or their summit representatives' shapes, or the
    second representative is not in the first's super summit set.
    Otherwise returns each summit representative with its operation log,
    and the hops from the first representative to the second:
    (member, conjugator) pairs read off the parents of the closure that
    decided it, stopped once it discovered the second representative.
    Equal forms are their own representatives, with empty logs and no
    hops.
    """
    if nfa == nfb:
        return (nfa, []), (nfb, []), []
    if _cycle_type(nfa) != _cycle_type(nfb):
        return None
    rep_a, ops_a = _summit_representative(nfa)
    rep_b, ops_b = _summit_representative(nfb)
    if (rep_a.delta_power, rep_a.canonical_length) != (
        rep_b.delta_power,
        rep_b.canonical_length,
    ):
        return None
    if rep_a == rep_b:
        return (rep_a, ops_a), (rep_b, ops_b), []
    members, parents = _summit_closure(rep_a, caps, rep_b.key())
    if rep_b.key() not in members:
        return None
    hops = [(members[key], c) for key, c in _walk_back(parents, rep_b.key())]
    return (rep_a, ops_a), (rep_b, ops_b), hops


def are_conjugate(
    a: BraidWord, b: BraidWord, caps: GarsideCaps = DEFAULT_CAPS
) -> bool:
    if a.strands != b.strands:
        raise StrandMismatchError(f"strand counts differ: {a.strands} vs {b.strands}")
    if len(a.letters) != len(b.letters):
        return False  # conjugation preserves positive word length
    return _conjugacy(normal_form(a), normal_form(b), caps) is not None


def contains_half_twist(w: BraidWord) -> bool:
    """True iff the summit power is positive."""
    nf = normal_form(w)
    if nf.delta_power >= 1:
        return True
    rep, _ = _summit_representative(nf)
    return rep.delta_power >= 1


# -- realizing conjugacy as word moves ---------------------------------------

@dataclass(frozen=True)
class MoveSequenceResult:
    moves: tuple[WordMove, ...]
    method: str  # always "procedure-found": every answer is realized


def _braid_move(u: list[int], moves: list[WordMove], at: int) -> None:
    """The braid relation on u[at:at+3], in place; GarsideInvariantError
    if words._site finds none there."""
    if not _site(u, MoveKind.BRAID_REL, at + 1):
        raise GarsideInvariantError(f"no braid relation at position {at + 1}")
    u[at : at + 3] = u[at + 1], u[at], u[at + 1]
    moves.append(WordMove(MoveKind.BRAID_REL, at + 1))


def _crossing(u: list[int], lo: int, hi: int, i: int, walk: int) -> int:
    """Where in the reduced word u[lo:hi] the two strands cross that stand
    at positions i, i+1 at its start (walk -1) or at its end (walk +1).
    Each letter sigma_c swaps positions c, c+1; scanning from the other
    end, the pair meets at the letter that swaps it."""
    a, b = i, i + 1
    t, stop = (lo, hi) if walk < 0 else (hi - 1, lo - 1)
    while t != stop:
        c = u[t]
        if a == c and b == c + 1:
            return t
        a = c + 1 if a == c else c if a == c + 1 else a
        b = c + 1 if b == c else c if b == c + 1 else b
        t -= walk
    raise GarsideInvariantError(f"sigma_{i} is no descent of {u[lo:hi]}")


def _exchange(u: list[int], moves: list[WordMove], lo: int, hi: int, i: int) -> None:
    """Respell the reduced word u[lo:hi] in place to start with sigma_i, a
    letter of its starting set, by braid relations and far commutations
    appended to moves: the constructive exchange condition.

    The letter where the strands at positions i, i+1 cross walks to the
    front. A letter two or more apart is passed by a far commutation. An
    adjacent letter b closes a triangle with a third strand, whose other
    crossing the prefix before b holds as a letter of its finishing set
    (each pair crosses at most once in a reduced word): the mirror walk
    carries it to the end of that prefix, and one braid relation then
    moves the crossing two places left. Walks wait on an explicit stack
    of [walk, lo, hi, t] frames, t the walking letter's index; walk -1
    goes to the front of u[lo:hi], walk +1 to its end.
    """
    stack = [[-1, lo, hi, _crossing(u, lo, hi, i, -1)]]
    while stack:
        frame = stack[-1]
        walk, lo, hi, t = frame
        if t == (lo if walk < 0 else hi - 1):
            stack.pop()
            if stack:  # the waiting walk closes its triangle
                walk, _, _, t = stack[-1]
                _braid_move(u, moves, t if walk < 0 else t - 2)
            continue
        s = t + walk
        at, c = min(s, t), u[t]
        if _site(u, MoveKind.FAR_COMM, at + 1):
            u[at], u[at + 1] = u[at + 1], u[at]
            moves.append(WordMove(MoveKind.FAR_COMM, at + 1))
            frame[3] = s
        else:
            frame[3] = t + 2 * walk
            sub = (lo, s) if walk < 0 else (s + 1, hi)
            stack.append([-walk, *sub, _crossing(u, *sub, c, -walk)])


def _form_path(w: BraidWord) -> tuple[list[WordMove], BraidWord]:
    """Braid relations and far commutations carrying w to
    nf_word(normal_form(w)), read off the left-weighting; and that word.

    The word is cut into its maximal simple runs, the segments. While
    _normalize_factors left-weights them, each letter sigma_i that moves
    from the front of factor j to the end of factor j - 1 is first
    brought to the front of j's segment by _exchange; the boundary then
    moves one letter, which takes no move. Last, each segment is
    respelled letter by letter to its factor's spelling in nf_word.
    """
    n = w.strands
    u = list(w.letters)
    moves: list[WordMove] = []
    runs = _simple_runs(w)
    cuts = [0]  # where each run starts, then the end of the word
    for run in runs:
        cuts.append(cuts[-1] + perm_length(run))
    starts: list[int] = []  # where each factor's segment starts
    appended = 0  # runs whose factors have been appended

    def append_through(r: int) -> None:
        nonlocal appended
        while appended <= r:
            if starts and starts[-1] == cuts[appended]:
                starts.pop()  # the emptied factor was dropped
            starts.append(cuts[appended])
            appended += 1

    def moved(r: int, j: int, i: int) -> None:
        if appended <= r:
            append_through(r)
        lo = starts[j]
        if u[lo] != i:
            _exchange(u, moves, lo, starts[j + 1] if j + 1 < len(starts) else cuts[r + 1], i)
        starts[j] = lo + 1

    k, factors = _normalize_factors(n, runs, moved)
    append_through(len(runs) - 1)
    if starts and starts[-1] == len(u):
        starts.pop()
    spellings = _spellings(n, k, factors)
    for lo, hi, spelled in zip(starts, starts[1:] + [len(u)], spellings):
        for at, i in enumerate(spelled, lo):
            if u[at] != i:
                _exchange(u, moves, at, hi, i)
    if u != list(chain.from_iterable(spellings)):
        raise GarsideInvariantError(f"the path of {w.letters} missed its normal form")
    return moves, BraidWord(n, tuple(u))


# A conjugation by a simple element, at word level: the elementary
# conjugation that carries the moved letters across, the moved letters,
# and the rest of the word.
_Step = tuple[MoveKind, tuple[int, ...], tuple[int, ...]]


def _log_steps(log: list[tuple[str, NormalForm]]) -> list[_Step]:
    """The steps of a cycle/decycle log, read off the logged forms Delta^k
    x_1...x_l: cycling moves tau^k(x_1) from the front to the end (conjL),
    decycling moves x_l from the end to the front (conjR)."""
    steps = []
    for op, nf in log:
        n, k, x = nf.strands, nf.delta_power, nf.factors
        if op == "cycle":  # Delta^k x_2...x_l is left-weighted, so spelled as is
            steps.append((MoveKind.ELEM_CONJ_LEFT, perm_word(tau_pow(x[0], k)), _spelled(n, k, x[1:])))
        else:
            steps.append((MoveKind.ELEM_CONJ_RIGHT, perm_word(x[-1]), _spelled(n, k, x[:-1])))
    return steps


def _realize(w: BraidWord, steps: list[_Step]) -> tuple[list[WordMove], BraidWord]:
    """Word moves carrying w through steps of simple conjugations, and the
    canonical spelling they reach. No search runs.

    w first walks its path to its canonical spelling. Each step starts
    at the canonical spelling of moved + rest (conjL), which that word's
    path reversed stages, or of rest + moved (conjR), which is that
    spelling already: its moved letters are the last factor. len(moved)
    elementary conjugations carry the moved letters to the other end,
    and the word they reach walks its path to its canonical spelling.
    """
    n = w.strands
    moves, w = _form_path(w)
    for kind, moved, rest in steps:
        if kind is MoveKind.ELEM_CONJ_LEFT:
            staged, shifted = moved + rest, rest + moved
            moves += _form_path(BraidWord(n, staged))[0][::-1]
        else:
            staged, shifted = rest + moved, moved + rest
        moves += [WordMove(kind, end_position(kind, len(staged)))] * len(moved)
        path, w = _form_path(BraidWord(n, shifted))
        moves += path
    return moves, w


def _invert_move_path(start: BraidWord, moves: list[WordMove]) -> list[WordMove]:
    """The inverse sequence, transforming replay(start, moves) back to start:
    each move undone by words.undo_move, last first. Realized moves keep
    the word's length. The caller replays the whole sequence."""
    n = len(start.letters)
    return [undo_move(m, n) for m in reversed(moves)]


def conjugacy_move_sequence_detailed(
    a: BraidWord, b: BraidWord, caps: GarsideCaps = DEFAULT_CAPS
) -> MoveSequenceResult:
    """An explicit move sequence from a to b, replay-verified.

    Follows the constructive route as two lists of simple conjugations,
    each realized by _realize: a's cycling and decycling steps into the
    super summit set, then the summit hops to b's representative (each
    hop by c staged as Delta = c c'), and b's cycling and decycling
    steps, undone. The conjugacy decision is the one are_conjugate
    makes; its logs and closure supply every step. Words equal as braids
    take no step: each walks the path its normal form gives. No search
    runs: if the two chains do not meet at b's representative, or the
    moves do not replay from a to b, GarsideInvariantError says so.
    """
    if a.strands != b.strands:
        raise StrandMismatchError(f"strand counts differ: {a.strands} vs {b.strands}")
    if a == b:
        return MoveSequenceResult((), "procedure-found")
    decided = len(a.letters) == len(b.letters) and _conjugacy(normal_form(a), normal_form(b), caps)
    if not decided:
        raise MoveError("words are not conjugate")
    (rep_a, log_a), (rep_b, log_b), hops = decided
    # cycling and decycling never lower inf, so this is the summit power;
    # a step is realized exactly when the forms differ
    if (log_a or log_b or hops) and rep_a.delta_power < 1:
        raise MoveError(
            "conjugate words without a half twist: move realization not guaranteed"
        )
    # each hop from u = Delta^k x_1...x_l by c: Delta = c c' staged in front
    steps, u = _log_steps(log_a), rep_a
    for v, c in hops:
        rest = perm_word(right_complement(c)) + _spelled(u.strands, u.delta_power - 1, u.factors)
        steps.append((MoveKind.ELEM_CONJ_LEFT, perm_word(c), rest))
        u = v
    moves, end_a = _realize(a, steps)
    moves_b, end_b = _realize(b, _log_steps(log_b))
    if not end_a == end_b == nf_word(rep_b):
        raise GarsideInvariantError(
            "the realized conjugations do not meet at the second summit representative"
        )
    moves.extend(_invert_move_path(b, moves_b))
    where = f"realized moves do not carry '{a}' to '{b}'"
    try:
        end = replay(a, moves)
    except MoveError as exc:
        raise GarsideInvariantError(f"{where}: {exc}") from None
    if end != b:
        raise GarsideInvariantError(f"{where}: they end at '{end}'")
    return MoveSequenceResult(tuple(moves), "procedure-found")
