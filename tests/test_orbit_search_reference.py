"""The orbit search against the unpruned hom search it replaced.

reference_assignments is the depth-first search that listed every
homomorphism, and reference_reps the pass that kept the first hom of
each conjugation orbit in that list. The orderly search visits one hom
per orbit; on linking-graph presentations and on explicit relator lists
(torsion words included) it must give the same listing, in the same
order, the same representatives, in the same order, hom_count equal to
the listing's length, Burnside's orbit count, and, where the targets
are small enough to try every assignment, the brute-force count. The
hom test check_map applies to pulled-back images, least_conjugate in the
set of representatives, must agree with evaluating every relator, on
homs and on assignments one image away from them, on every target (a
table whose identity is not 0 and a direct product among them). An
explicit presentation may leave most assignments free, so it is tried
only on the targets small enough for a brute-force count.
"""

from hypothesis import given, settings, strategies as st

from braidforge import invariants
from braidforge.finite_groups import (
    builtin_targets,
    dihedral_group,
    direct_product,
    symmetric_group,
)
from braidforge.invariants import (
    enumerate_homs,
    evaluate_word,
    hom_count,
    least_conjugate,
)
from braidforge.presentations import (
    Presentation,
    Relator,
    RelatorKind,
    braid_relator,
    comm_relator,
)

from conftest import brute_hom_count
from test_analysis_cache import presentation, relabeled

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
# brute force tries size**k assignments; only up to this many
BRUTE_LIMIT = 20_000


S3 = symmetric_group(3)
S3_SHIFTED = relabeled(S3, "S3-shifted", [3, 5, 0, 4, 1, 2])
TARGETS = [
    S3,
    symmetric_group(4),
    dihedral_group(4),
    dihedral_group(5),
    builtin_targets()["Q8"],
    direct_product(S3, dihedral_group(4)),
    S3_SHIFTED,
]


def _compat_masks(t):
    n = t.size
    braid, comm = [], []
    for g in range(n):
        bm = cm = 0
        for h in range(n):
            gh = t.mul(g, h)
            hg = t.mul(h, g)
            if t.mul(gh, g) == t.mul(hg, h):
                bm |= 1 << h
            if gh == hg:
                cm |= 1 << h
        braid.append(bm)
        comm.append(cm)
    return braid, comm


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_assignments(p, t):
    """Every relator-satisfying assignment, in the unpruned search's order."""
    k = p.n_generators
    if k == 0:
        yield ()
        return
    braid_mask, comm_mask = _compat_masks(t)
    full = (1 << t.size) - 1

    pair = {}
    for i, j, kind in p.pair_table():
        mask = braid_mask if kind is RelatorKind.BRAID else comm_mask
        prior = pair.get((i, j))
        pair[(i, j)] = mask if prior is None else [a & b for a, b in zip(prior, mask)]
    general = []
    for r in p.cycles:
        support = {abs(x) for x in r.word}
        if not support:
            continue
        general.append((support, r.word))

    order = list(range(1, k + 1))
    pos = {g: i for i, g in enumerate(order)}

    pair_rel = [[None] * k for _ in range(k)]
    for (i, j), masks in pair.items():
        si, sj = pos[i], pos[j]
        lo, hi = min(si, sj), max(si, sj)
        pair_rel[hi][lo] = masks
    general_at = [[] for _ in range(k)]
    for support, word in general:
        last = max(pos[g] for g in support)
        general_at[last].append(word)

    images = [0] * (k + 1)
    table = t.table
    inv = t.inverse
    ident = t.identity

    def eval_general(word):
        acc = ident
        for x in word:
            g = images[abs(x)]
            acc = table[acc][g if x > 0 else inv[g]]
        return acc

    def dfs(step):
        if step == k:
            yield tuple(images[1 : k + 1])
            return
        g = order[step]
        allowed = full
        for earlier in range(step):
            masks = pair_rel[step][earlier]
            if masks is None:
                continue
            allowed &= masks[images[order[earlier]]]
            if not allowed:
                return
        for val in _iter_bits(allowed):
            images[g] = val
            ok = True
            for word in general_at[step]:
                if eval_general(word) != ident:
                    ok = False
                    break
            if ok:
                yield from dfs(step + 1)

    yield from dfs(0)


def reference_reps(t, homs):
    """The first hom of each conjugation orbit, in list order."""
    n, table, inv = t.size, t.table, t.inverse
    inner = {tuple(table[table[inv[c]][x]][c] for x in range(n)) for c in range(n)}
    reps, seen = [], set()
    for h in homs:
        if h not in seen:
            reps.append(h)
            seen.update(tuple(a[x] for x in h) for a in inner)
    return reps


def burnside_orbits(t, homs):
    """(1/|G|) * sum over c of the homs whose images all commute with c."""
    fixed = 0
    for c in range(t.size):
        commuting = {x for x in range(t.size) if t.mul(c, x) == t.mul(x, c)}
        fixed += sum(commuting.issuperset(h) for h in homs)
    assert fixed % t.size == 0
    return fixed // t.size


def assert_matches_reference(p, brute_only=False):
    invariants._memo.cache_clear()
    for t in TARGETS:
        small = t.size ** p.n_generators <= BRUTE_LIMIT
        if p.n_generators > invariants.generator_cap(t) or (brute_only and not small):
            continue
        want = list(reference_assignments(p, t))
        found = hom_count(p, t)
        reps = found.reps
        assert enumerate_homs(p, t) == want
        assert list(reps) == reference_reps(t, want)
        assert found.count == len(want) == sum(found.sizes)
        assert len(reps) == burnside_orbits(t, want)
        words = [r.word for r in p.relators]
        if small:
            assert brute_hom_count(words, p.n_generators, t) == len(want)
        # the hom test that check_map applies to pulled-back images
        held = set(reps)
        for h in want[:3]:
            assert least_conjugate(t, h) in held
            for g in range(len(h)):
                other = h[:g] + ((h[g] + 1) % t.size,) + h[g + 1 :]
                dies = all(evaluate_word(t, other, w) == t.identity for w in words)
                assert (least_conjugate(t, other) in held) == dies


def test_shifted_table_is_s3_with_identity_off_zero():
    assert S3_SHIFTED.identity == 3 and S3_SHIFTED != S3
    p = presentation(3, (1, 2, 1, 1, 2, 1))
    assert hom_count(p, S3_SHIFTED).count == hom_count(p, S3).count
    assert_matches_reference(p)


linking_words = st.integers(2, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=30))
)


@SETTINGS
@given(linking_words)
def test_linking_graph_presentations(case):
    n, letters = case
    assert_matches_reference(presentation(n, letters))


def _relators(k):
    letter = st.integers(1, k).flatmap(lambda g: st.sampled_from((g, -g)))
    word = st.lists(letter, min_size=1, max_size=5)
    torsion = st.tuples(st.integers(1, k), st.integers(2, 3)).map(lambda ge: [ge[0]] * ge[1])
    kinds = [
        st.one_of(word, torsion).map(lambda w: Relator(tuple(w), (), ("word",)))
    ]
    if k > 1:
        pair = st.lists(st.integers(1, k), min_size=2, max_size=2, unique=True)
        kinds.append(pair.map(lambda ij: braid_relator(*ij)))
        kinds.append(pair.map(lambda ij: comm_relator(*ij)))
    return st.lists(st.one_of(kinds), max_size=5)


explicit = st.integers(0, 5).flatmap(
    lambda k: st.tuples(st.just(k), _relators(k) if k else st.just([]))
)


@SETTINGS
@given(explicit)
def test_explicit_relator_presentations(case):
    k, relators = case
    assert_matches_reference(Presentation(k, tuple(relators)), brute_only=True)
