"""The CLI's front end does only the work its answer reads.

``main`` hands a named command straight to that command's own parser,
``parse_word`` checks the whole text with one match, and ``invariants``
builds a linking graph only when a generator cap admits the word's
bricks, as does ``verify``, which builds one otherwise only for the two
words a neutral move joins. Each is checked against the longer way it
replaces: the top-level parser's dispatch, the per-token reading, and
the graph.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braidforge import cli
from braidforge.bricks import build_bricks
from braidforge.cli import main
from braidforge.errors import WordError
from braidforge.words import BraidWord, parse_word

from test_cli_errors import CASES

sys.path.insert(0, str(Path(__file__).parent / "data"))
from cli_corpus import ROOT, entry, load, run  # noqa: E402

CORPUS = load()
ARGVS = [e["argv"] for e in CORPUS] + [list(case[0]) for case in CASES]


def namespace_or_error(parse, argv):
    try:
        return vars(parse(argv))
    except cli.UsageError as exc:
        return f"usage error: {exc}"


def test_command_parser_reads_what_the_top_level_parser_reads():
    parser, commands = cli._parsers()
    routed = 0
    for argv in ARGVS:
        top = namespace_or_error(parser.parse_args, argv)
        if argv and argv[0] in commands:
            routed += 1
            own = namespace_or_error(commands[argv[0]].parse_args, argv[1:])
            if isinstance(own, dict):
                own["command"] = argv[0]
            assert own == top, argv
    assert routed == len(ARGVS) - 1  # all but the unknown command


def test_main_prints_what_the_top_level_dispatch_prints(monkeypatch):
    # the corpus record and the error cases are what main prints directly
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    monkeypatch.chdir(ROOT)
    parser, _ = cli._parsers()
    monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
    for e in CORPUS:
        assert entry(e["argv"], *run(e["argv"])) == e, e["argv"]
    for argv, *want in CASES:
        assert run(argv) == tuple(want), argv


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    monkeypatch.setattr("sys.argv", ["braidforge", "parse", "1 2 1"])
    assert main() == 0
    assert capsys.readouterr().out == '{"strands": 3, "letters": [1, 2, 1]}\n'


# a corpus invariants command whose word is past the default S3 and S4
# caps (14 and 10 bricks) and within 40 bricks
PAST_CAPS = next(
    e for e in CORPUS
    if e["argv"][0] == "invariants"
    and "--caps.generators" not in e["argv"]
    and 14 < build_bricks(parse_word(e["argv"][1])).n_bricks <= 40
)


def test_invariants_past_every_cap_builds_no_graph(monkeypatch):
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)

    def refuse(*args):
        raise AssertionError("no target admits the word, so nothing needs a graph")

    monkeypatch.setattr(cli, "build_graph", refuse)
    monkeypatch.setattr(cli, "presentation_of", refuse)
    assert entry(PAST_CAPS["argv"], *run(PAST_CAPS["argv"])) == PAST_CAPS


def test_invariants_builds_the_graph_once_for_an_admitted_target(monkeypatch):
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    real, built = cli.build_graph, []

    def build_graph(d, sign):
        built.append(d)
        return real(d, sign)

    monkeypatch.setattr(cli, "build_graph", build_graph)
    code, out, err = run([*PAST_CAPS["argv"], "--caps.generators", "S3=40"])
    assert (code, err, len(built)) == (0, "", 1)
    capped = run(PAST_CAPS["argv"])
    assert entry(PAST_CAPS["argv"], *capped) == PAST_CAPS
    data = json.loads(out)
    assert list(data["hom_counts"]) == ["S3"] and data["hom_counts"]["S3"] > 0
    assert list(data["hom_counts_up_to_conjugacy"]) == ["S3"]
    assert data["skipped_targets"] == ["S4"]
    assert data["abelianization"] == json.loads(capped[1])["abelianization"]


@pytest.mark.parametrize("seed, drawn", [(2, "braid braid braid"), (7, "conjL farcomm conjR")])
def test_verify_past_every_cap_builds_graphs_only_for_a_neutral_move(seed, drawn, monkeypatch):
    # no hom search runs, so only a far commutation's two words get graphs
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    real, built = cli.build_graph, []

    def build_graph(d, sign):
        built.append(d.word)
        return real(d, sign)

    def refuse(*args):
        raise AssertionError("no target admits the word, so no presentation is read")

    monkeypatch.setattr(cli, "build_graph", build_graph)
    monkeypatch.setattr(cli, "presentation_of", refuse)
    argv = ["verify", *PAST_CAPS["argv"][1:4], "--moves", "3", "--seed", str(seed)]
    code, out, err = run(argv)
    data = json.loads(out)
    assert (code, err, data["stable"], data["applied_moves"]) == (0, "", True, 3)
    if "farcomm" not in drawn:
        assert built == []
        return
    before, after = built
    p = next(i for i, (x, y) in enumerate(zip(before.letters, after.letters)) if x != y)
    swapped = before.letters[:p] + before.letters[p : p + 2][::-1] + before.letters[p + 2 :]
    assert swapped == after.letters


def token_reading(text: str, strands: int | None = None) -> BraidWord:
    """parse_word as one regex match per token."""
    letters = []
    for tok in (t for t in re.split(r"[\s,]+", text.strip()) if t):
        m = re.match(r"^(?:s|σ)?(\d+)$", tok)
        if m is None:
            raise WordError(f"cannot parse letter {tok!r}")
        i = int(m.group(1))
        if i <= 0:
            raise WordError(f"generator index must be positive, got {i}")
        letters.append(i)
    if strands is None:
        if not letters:
            raise WordError("empty word needs an explicit strand count")
        strands = max(letters) + 1
    return BraidWord(strands, tuple(letters))


def reading(parse, text, strands):
    try:
        return parse(text, strands)
    except WordError as exc:
        return f"WordError: {exc}"


SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", ",", ", ", " ,\t", ",,", "　", "\x0b", "\x1c"]
GOOD = ["1", "2", "3", "007", "s1", "σ2", "s03", "٣", "१", "１", "s٢", "12"]
BAD = ["0", "00", "s0", "x", "s", "σ", "1x", "ss1", "-1", "²", "1.5", "sσ1", "S1", "1s2", "+2"]
pieces = st.lists(
    st.tuples(st.sampled_from(SEPARATORS), st.sampled_from(GOOD + GOOD + BAD)), max_size=8
)
texts = st.builds(
    lambda lead, body, tail: lead + "".join(s + t for s, t in body)[1:] + tail,
    st.sampled_from(["", " ", "\n", ",", " \t"]),
    pieces,
    st.sampled_from(["", " ", "\n", ",", "\t "]),
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(texts, st.sampled_from([None, 13, 2]))
def test_one_match_reads_what_the_tokens_read(text, strands):
    assert reading(parse_word, text, strands) == reading(token_reading, text, strands)


@pytest.mark.parametrize(
    "text, want",
    [
        ("1 x 0", "cannot parse letter 'x'"),
        ("1 0 x", "generator index must be positive, got 0"),
        ("s00,2", "generator index must be positive, got 0"),
        (" ,σ \t", "cannot parse letter 'σ'"),
        ("1,2\n3s", "cannot parse letter '3s'"),
        (" \n,\t", "empty word needs an explicit strand count"),
        ("", "empty word needs an explicit strand count"),
    ],
)
def test_error_names_the_first_bad_token(text, want):
    with pytest.raises(WordError) as info:
        parse_word(text)
    assert str(info.value) == want


def test_unicode_digits_and_leading_zeros():
    assert parse_word("\t s01,σ٢\n १ ,") == BraidWord(3, (1, 2, 1))
