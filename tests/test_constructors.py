"""One constructor per cached value.

A brick diagram, a linking graph and a finite target are each built only
from their input: ``BrickDiagram(word)``, ``LinkingGraph(diagram,
sign_convention)`` and ``FiniteTarget(name, table, identity)`` derive
everything else they hold, and a ``FiniteTarget`` refuses a table that
is not a group. A ``NormalForm(strands, delta_power, factors)`` refuses
input that is no left normal form; the forms garside derives itself
take one private, unchecked path, and each of them passes the check. A
``Presentation`` is read off its relator words by
``Presentation(n_generators, relators)``, or stored from a graph's
sweep by ``presentation_of``, and has no other public way in. A
``Relator`` is built from its equation alone, ``Relator(lhs, rhs,
provenance)``, and derives its word and kind. So a value equal to
another holds the same data, and no hand-built value can stand in a
cache for the real one: a diagram with empty occurrences, a target with
wrong inverses, a graph carrying an edge that is not its diagram's, a
pair table naming a reversed pair or a letter outside the generators,
or a relator whose word is not its equation's are refused at
construction, and so are a table that is no group (a non-Latin square
or a non-associative loop), an identity that is no element of its table,
named before any inverse is looked for, and a normal form with a factor out of range,
a power that is no int, one strand, or a pair not left-weighted, also
under ``python -O``. The guards at the end keep the defect class out: no
field of a package dataclass left out of equality may be a constructor
parameter, no public classmethod or staticmethod may build a
Presentation, a Relator, a NormalForm or a FiniteTarget, and no function
of the package but ``maps_along_moves`` calls ``GeneratorMap(...)``, so
every map the library makes is read off moves.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import networkx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_hom_count, relator_words

import braidforge
from braidforge.bricks import BrickDiagram, build_bricks
from braidforge.errors import BraidForgeError, ResourceCapError
from braidforge.garside import (
    GarsideCaps,
    NormalForm,
    conjugate_nf,
    cycling,
    decycling,
    letter_perm,
    normal_form,
    summit,
)
from braidforge.finite_groups import (
    BUILTIN_TARGETS,
    FiniteTarget,
    load_table,
    symmetric_group,
)
from braidforge.invariants import abelianization, hom_count
from braidforge.linking import (
    SIGN_CONVENTIONS,
    EdgeKind,
    LinkEdge,
    LinkingGraph,
    build_graph,
    is_forest,
)
from braidforge.errors import PresentationError
from braidforge.presentations import (
    Presentation,
    Relator,
    RelatorKind,
    braid_relator,
    comm_relator,
    free_reduce,
    invert_word,
    presentation_of,
    serialize,
)
from braidforge.words import BraidWord, parse_word


def seeded_words(seed: int, count: int, max_strands: int = 8, max_len: int = 40):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_strands)
        yield BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, max_len))))


def test_hand_built_diagram_is_refused_and_the_answer_stays():
    w = parse_word("1 2 1 1 2 1")
    with pytest.raises(TypeError):
        BrickDiagram(w, MappingProxyType({}), MappingProxyType({}))
    assert str(abelianization(presentation_of(build_graph(build_bricks(w))))) == "Z"


def test_hand_built_target_is_refused_and_the_answer_stays():
    s3 = symmetric_group(3)
    with pytest.raises(TypeError):
        FiniteTarget("S3", s3.table, 0, tuple(range(6)))
    p = presentation_of(build_graph(build_bricks(parse_word("1 2 1 1 2 1"))))
    assert hom_count(p, s3).count == 12


def test_graph_with_a_foreign_edge_is_refused():
    d = build_bricks(parse_word("1 1 1 1"))
    g = build_graph(d)
    edges = (*g.edges, LinkEdge(1, 3, EdgeKind.VERTICAL))
    with pytest.raises(TypeError):
        LinkingGraph(d, edges, g.positions, (), "left-positive")
    assert [(a, b) for a, b, _, _ in g.raw_edges] == [(1, 2), (2, 3)]
    assert is_forest(g)


def test_diagram_constructor_matches_the_cache():
    for w in seeded_words(1, 300):
        d = BrickDiagram(w)
        cached = build_bricks(w)
        assert d == cached and hash(d) == hash(cached)
        assert d.occurrences == cached.occurrences
        assert d.column_ids == cached.column_ids
        assert d.bricks == cached.bricks


def test_graph_constructor_matches_the_cache():
    for w in seeded_words(2, 300):
        d = build_bricks(w)
        for convention in SIGN_CONVENTIONS:
            g = LinkingGraph(d, convention)
            cached = build_graph(d, convention)
            assert g == cached and hash(g) == hash(cached)
            assert g.edges == cached.edges and g.regions == cached.regions
            assert presentation_of(g) == presentation_of(cached)
    assert LinkingGraph(d) == build_graph(d)


def test_unknown_sign_convention_is_named():
    d = build_bricks(parse_word("1 2 1 1 2 1"))
    for build in (LinkingGraph, build_graph):
        with pytest.raises(ValueError, match="'up'"):
            build(d, "up")


def test_target_constructor_derives_inverses():
    for name, make in BUILTIN_TARGETS.items():
        t = make()
        rebuilt = FiniteTarget(name, t.table)
        assert rebuilt == t and hash(rebuilt) == hash(t)
        assert rebuilt.inverse == t.inverse
        for a in range(t.size):
            assert t.mul(a, t.inv(a)) == t.identity == t.mul(t.inv(a), a)
    listed = FiniteTarget("S3", [list(row) for row in symmetric_group(3).table])
    assert listed == symmetric_group(3) and listed.inverse == symmetric_group(3).inverse


def test_element_without_inverse_keeps_the_load_message():
    message = "group table 'bad' has an element without inverse"
    with pytest.raises(ValueError, match=message):
        FiniteTarget("bad", ((0, 1), (1, 1)))
    with pytest.raises(ValueError, match=message):
        load_table("2\n0 1\n1 1\n", "bad")


def test_forest_test_matches_networkx():
    # the face count is zero exactly when the graph has no cycle
    forests = 0
    for w in seeded_words(3, 600):
        g = build_graph(build_bricks(w))
        nxg = networkx.Graph()
        nxg.add_nodes_from(range(1, g.diagram.n_bricks + 1))
        nxg.add_edges_from((a, b) for a, b, _, _ in g.raw_edges)
        # networkx rejects the null graph as pointless; it is a forest
        assert is_forest(g) == (not nxg or networkx.is_forest(nxg))
        forests += is_forest(g)
    assert 0 < forests < 600


def package_dataclasses():
    for info in pkgutil.iter_modules(braidforge.__path__, "braidforge."):
        if info.name == "braidforge.__main__":  # runs the command line
            continue
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield cls


def test_no_field_outside_equality_is_a_constructor_parameter():
    classes = list(package_dataclasses())
    assert {BrickDiagram, LinkingGraph, FiniteTarget} <= set(classes)
    offenders = [
        f"{cls.__qualname__}.{f.name}"
        for cls in classes
        for f in dataclasses.fields(cls)
        if not f.compare and f.name in inspect.signature(cls).parameters
    ]
    assert offenders == []


def public_builders(cls) -> list[str]:
    """The public classmethods and staticmethods that may return a cls."""
    return [
        name
        for name, attr in vars(cls).items()
        if not name.startswith("_")
        and isinstance(attr, (classmethod, staticmethod))
        and inspect.signature(attr.__func__).return_annotation
        in (cls, cls.__name__, inspect.Signature.empty)
    ]


def test_presentation_has_no_public_constructor_but_its_reader():
    assert public_builders(Presentation) == []
    # the relators a table with the reversed pair (2, 1) spelled: the
    # search reads them as the reader does, 18 homs into S3, not 48
    s3 = symmetric_group(3)
    commuting = (comm_relator(1, 2), comm_relator(1, 3), comm_relator(2, 3))
    p = Presentation(3, (braid_relator(2, 1), *commuting))
    assert (p.braid_pairs, p.comm_pairs) == (((1, 2),), ((1, 2), (1, 3), (2, 3)))
    assert hom_count(p, s3).count == brute_hom_count(relator_words(p), 3, s3) == 18
    # a table naming a letter outside 1..3 cannot be built
    for letter in (5, 0):
        with pytest.raises(PresentationError, match=f"has the letter {letter}; the generators"):
            Presentation(3, (braid_relator(1, letter),))


def test_presentation_refuses_a_generator_count_that_is_no_int_at_least_zero():
    # -1 answered abelianization 1 and raised IndexError in hom_count;
    # 2.0 was built and raised TypeError later, "2" at once
    for count in (-1, 2.0, "2", True, None):
        with pytest.raises(PresentationError, match=rf"^the generator count {count!r} is no int >= 0$"):
            Presentation(count, ())
    assert Presentation(0, ()).n_generators == 0


def test_relator_is_built_from_its_equation_alone():
    assert list(inspect.signature(Relator).parameters) == ["lhs", "rhs", "provenance"]
    assert public_builders(Relator) == []


def read_letters(tokens, prefix: str) -> tuple:
    """Signed generators of tokens such as s2 and s2^-1 (prefix "s")."""
    n = len(prefix)
    return tuple(-int(t[n:-3]) if t.endswith("^-1") else int(t[n:]) for t in tokens)


def plain_words(text: str) -> list[tuple]:
    """The words of the one relation that plain output prints, lhs then rhs."""
    relation = text.split(" | ")[1].removesuffix(">")
    sides = relation.split(" = ")
    return [read_letters([t for t in side.split() if t != "1"], "s") for side in sides]


def gap_word(text: str) -> tuple:
    """The one relator word that gap-style output prints."""
    word = text.split("rels := [")[1].removesuffix("];")
    return () if word == "One(F)" else read_letters(word.split("*"), "F.")


# Each relator once took its word apart from its equation: s1 = s2 with
# the empty word, or with the word s1 s2 s1^-1 s2^-1 s1, and s1 s1^-1 = s2
# with its unreduced word s1 s1^-1 s2 s2^-1. Plain output printed the
# equation while hom counts and abelianization read the word.
@pytest.mark.parametrize(
    "word, lhs, rhs",
    [((), (1,), (2,)), ((1, 2, -1, -2, 1), (1,), (2,)), ((1, -1, 2, -2), (1, -1), (2,))],
    ids=["empty-word", "other-word", "unreduced-word"],
)
def test_a_relator_counts_the_equation_it_prints(word, lhs, rhs):
    with pytest.raises(TypeError):
        Relator(RelatorKind.CYCLE, word, lhs, rhs, ())
    p = Presentation(2, (Relator(lhs, rhs, ()),))
    s3 = symmetric_group(3)
    assert hom_count(p, s3).count == brute_hom_count([lhs + invert_word(rhs)], 2, s3) == 6
    printed_lhs, printed_rhs = plain_words(serialize(p, "plain"))
    assert (printed_lhs, printed_rhs) == (lhs, rhs)
    printed_word = free_reduce(printed_lhs + invert_word(printed_rhs))
    assert gap_word(serialize(p, "gap-style")) == printed_word


def test_normal_form_and_target_have_no_public_builder():
    assert public_builders(NormalForm) == []
    assert public_builders(FiniteTarget) == []


def generator_map_builders() -> list[str]:
    """module.qualname of the function around every GeneratorMap(...) call
    in the package; a call outside any function names its module alone."""
    found = []
    for path in sorted(Path(braidforge.__file__).parent.rglob("*.py")):
        scope = [path.stem]

        class Calls(ast.NodeVisitor):
            def visit_scope(self, node):
                scope.append(node.name)
                self.generic_visit(node)
                scope.pop()

            visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scope

            def visit_Call(self, node):
                if getattr(node.func, "id", getattr(node.func, "attr", None)) == "GeneratorMap":
                    found.append(".".join(scope))
                self.generic_visit(node)

        Calls().visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def test_only_maps_along_moves_builds_a_generator_map():
    assert generator_map_builders() == ["isomaps.maps_along_moves"]


# Each case once answered, or failed with an error that named no input:
# IndexError, GarsideInvariantError, TypeError from abs(), a summit of a
# one-strand braid, a form unequal to normal_form("1 2") of the same
# braid, two tables that built although they are no group (the first
# gave hom_count 2 for 1 2 1 1 2 1), and a bare TypeError from a factor,
# a row or a cap of the wrong type. Each is now refused, naming the
# factor, pair, power, strand count, row, triple or cap where it fails.
REPRODUCTIONS = {
    "factor-out-of-range": ("cycling(NormalForm(3, 0, ((5, 0, 2),)))", r"\(5, 0, 2\)"),
    "repeated-image": ("summit(NormalForm(3, 0, ((0, 0, 2),)))", r"\(0, 0, 2\)"),
    "power-not-int": ("summit(NormalForm(3, 'x', ()))", "'x'"),
    "one-strand": ("summit(NormalForm(1, 0, ()))", "got 1"),
    "not-left-weighted": (
        "NormalForm(3, 0, (letter_perm(3, 1), letter_perm(3, 2)))",
        r"\(1, 0, 2\) \(0, 2, 1\) are not left-weighted",
    ),
    "not-latin": ("FiniteTarget('Z', ((0, 1, 2), (1, 0, 0), (2, 0, 0)))", "Z: row 1 "),
    "loop": (
        "FiniteTarget('loop', ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),"
        " (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)))",
        r"loop: associativity fails at \d,\d,\d",
    ),
    "factors-not-a-tuple": ("NormalForm(3, 0, 5)", "factors 5 are no tuple of factors"),
    "factor-not-a-tuple": ("NormalForm(3, 0, (1, 2))", "factor 1 is no tuple of ints"),
    "factor-not-ints": (
        "NormalForm(3, 0, ((0, 'a', 2),))", r"factor \(0, 'a', 2\) is no tuple of ints",
    ),
    "table-not-a-tuple": ("FiniteTarget('x', 5)", "x: the table 5 is no sequence of rows"),
    "row-not-a-tuple": ("FiniteTarget('x', (1, 2))", "x: row 0 is no sequence of elements: 1"),
    "cap-not-an-int": ("GarsideCaps(summit_set='5')", "caps.summit_set: must be an int, got '5'"),
    # the identity is checked before inverses are derived, so these name it
    "identity-a-string": (
        "FiniteTarget('x', ((0, 1), (1, 0)), '0')",
        "^x: the table is not square or identity '0' is no element$",
    ),
    "identity-none": (
        "FiniteTarget('x', ((0, 1), (1, 0)), None)",
        "^x: the table is not square or identity None is no element$",
    ),
    "identity-out-of-range": (
        "FiniteTarget('x', ((0, 1), (1, 0)), 5)",
        "^x: the table is not square or identity 5 is no element$",
    ),
}
NAMES = {
    "NormalForm": NormalForm, "FiniteTarget": FiniteTarget, "cycling": cycling,
    "summit": summit, "letter_perm": letter_perm, "GarsideCaps": GarsideCaps,
}


@pytest.mark.parametrize("case", REPRODUCTIONS)
def test_bad_forms_and_tables_are_refused_naming_the_input(case):
    source, message = REPRODUCTIONS[case]
    with pytest.raises((BraidForgeError, ValueError), match=message):
        eval(source, dict(NAMES))


def test_bad_forms_and_tables_are_refused_under_optimize_flag():
    script = (
        "import json, sys\n"
        "from braidforge.finite_groups import FiniteTarget\n"
        "from braidforge.garside import GarsideCaps, NormalForm, cycling, letter_perm, summit\n"
        "assert False, 'asserts must be stripped'\n"
        "out = []\n"
        "for source in json.loads(sys.argv[1]):\n"
        "    try:\n"
        "        eval(source)\n"
        "        out.append(None)\n"
        "    except Exception as exc:\n"
        "        out.append([type(exc).__name__, str(exc)])\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(braidforge.__file__).resolve().parents[1]))
    sources = [source for source, _ in REPRODUCTIONS.values()]
    out = subprocess.run(
        [sys.executable, "-O", "-c", script, json.dumps(sources)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    for (source, message), refused in zip(REPRODUCTIONS.values(), json.loads(out.stdout)):
        assert refused is not None, source
        kind, text = refused
        assert kind in ("WordError", "ValueError") and re.search(message, text), refused


@st.composite
def words_up_to_sixty(draw):
    n = draw(st.integers(2, 7))
    return BraidWord(n, tuple(draw(st.lists(st.integers(1, n - 1), max_size=60))))


# Summit sets of some 7-strand words run to 15 000 members; past the cap
# the summit part of an example is left out.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(words_up_to_sixty())
def test_every_derived_form_passes_the_checked_constructor(w):
    nf = normal_form(w)
    n = w.strands
    forms = [nf, cycling(nf), decycling(nf)]
    forms += [conjugate_nf(nf, letter_perm(n, i)) for i in range(1, n)]
    try:
        forms += summit(nf, GarsideCaps(summit_set=500)).summit_set
    except ResourceCapError:
        pass
    for form in forms:
        assert NormalForm(form.strands, form.delta_power, form.factors) == form
