"""Pin the CLI's error paths: exit code, stdout and stderr, byte for byte.

tests/data/cli_corpus.json records the exit code, stdout and stderr of
every corpus command as the code gave them; these cases are written by
hand, as a specification independent of that record, and pin what goes
wrong: usage errors (64), domain errors (1), exceeded caps (2), which
error wins when a command has two, settings that are ignored when empty,
and the failure records of a ``verify`` run whose checks all fail.
"""

import json

import pytest

from braidforge import cli
from braidforge.cli import main
from braidforge.invariants import Abelianization, HomCount

CASES = [
    (["parse", "1 x 2"], 1, "", "error: cannot parse letter 'x'\n"),
    (["parse", ""], 1, "", "error: empty word needs an explicit strand count\n"),
    (["parse", "0 1"], 1, "", "error: generator index must be positive, got 0\n"),
    (
        ["invariants", "1 2 1", "--targets", "S3,NOPE"],
        1, "", "error: unknown finite target 'NOPE'\n",
    ),
    # the word is read before the targets
    (["invariants", "1 y", "--targets", "NOPE"], 1, "", "error: cannot parse letter 'y'\n"),
    (["summit", "1 2 1", "--caps.summit-set", "0"], 1, "", "error: caps.summit_set: must be positive, got 0\n"),
    (
        ["summit", "1 2 1", "--caps.summit-set", "x"],
        64, "", "usage error: argument --caps.summit-set: invalid int value: 'x'\n",
    ),
    # no search runs, so there is no word-search cap to set
    (
        ["summit", "1 2 1", "--caps.word-search", "x"],
        64, "", "usage error: unrecognized arguments: --caps.word-search x\n",
    ),
    (
        ["moveseq", "1 2 1 1 2 1", "1 1 2 1 1 2", "--caps.word-search", "2"],
        64, "", "usage error: unrecognized arguments: --caps.word-search 2\n",
    ),
    # convergence is bounded by ||Delta||, so there is no cycling cap to set
    (
        ["summit", "1 2 1", "--caps.cycling", "5"],
        64, "", "usage error: unrecognized arguments: --caps.cycling 5\n",
    ),
    (
        ["invariants", "1 2 1", "--caps.generators", "S3"],
        1, "", "error: caps.generators: invalid literal for int() with base 10: ''\n",
    ),
    (
        ["invariants", "1 1 1", "--targets", "C6", "--tables", "no-such-table.txt"],
        1, "", "error: [Errno 2] No such file or directory: 'no-such-table.txt'\n",
    ),
    (
        ["graph", "1 2 1", "--sign-convention", "sideways"],
        64, "",
        "usage error: argument --sign-convention: invalid choice: 'sideways' "
        "(choose from 'left-positive', 'right-positive')\n",
    ),
    (
        ["frobnicate", "1"],
        64, "",
        "usage error: argument command: invalid choice: 'frobnicate' (choose from "
        "'parse', 'bricks', 'graph', 'present', 'nf', 'conj', 'summit', 'halftwist', "
        "'moveseq', 'invariants', 'isocheck', 'verify', 'render')\n",
    ),
    (
        ["isocheck", "1 2 1", "1 2 1", "--moves", "zap@1"],
        64, "", "usage error: unknown move token 'zap'\n",
    ),
    (
        ["isocheck", "1 2 1 2", "2 1 2 2", "--moves", "braid"],
        64, "", "usage error: move braid needs a position: braid@p\n",
    ),
    (
        ["isocheck", "1 2 1", "2 1 2", "--moves", "conjL"],
        1, "", "error: move script does not transform the first word into the second\n",
    ),
    # equal words are joined by their normal form's path, which builds no
    # summit set, so the summit-set cap does not stop them
    (
        ["moveseq", "1 2 1 1 2 1", "1 1 2 1 1 2", "--caps.summit-set", "1"],
        0,
        '{"source": {"strands": 3, "letters": [1, 2, 1, 1, 2, 1]}, '
        '"target": {"strands": 3, "letters": [1, 1, 2, 1, 1, 2]}, "method": "procedure-found", '
        '"moves": [{"kind": "braid", "position": 4}, {"kind": "braid", "position": 2}], '
        '"replay_ok": true}\n',
        "",
    ),
    (
        ["summit", "1 2 1 2 2 1", "--caps.summit-set", "1"],
        2, "", "resource cap exceeded: summit set exceeded the cap 1\n",
    ),
    (
        ["conj", "1 2 1", "1 1 1"],
        0,
        '{"first": {"strands": 3, "letters": [1, 2, 1]}, '
        '"second": {"strands": 3, "letters": [1, 1, 1]}, "conjugate": false}\n',
        "",
    ),
    (["moveseq", "1 2 1", "1 1 1"], 1, "", "error: words are not conjugate\n"),
    (["isocheck", "1 2 1", "1 1 1"], 1, "", "error: words are not conjugate\n"),
    # an empty setting is ignored, not applied
    (
        ["invariants", "1 1 1", "--targets", ""],
        0,
        '{"word": {"strands": 2, "letters": [1, 1, 1]}, "abelianization": [1, 0], '
        '"rank": 1, "hom_counts": {"S3": 12, "S4": 96}, "skipped_targets": []}\n',
        "",
    ),
    (
        ["parse", "1 2 1", "--format", ""],
        0, '{"strands": 3, "letters": [1, 2, 1]}\n', "",
    ),
    # a capped target is skipped by both counts
    (
        ["invariants", "1 2 1 1 2 1", "--up-to-conjugacy", "--caps.generators", "S4=3"],
        0,
        '{"word": {"strands": 3, "letters": [1, 2, 1, 1, 2, 1]}, '
        '"abelianization": [1, 1, 1, 0], "rank": 1, "hom_counts": {"S3": 12}, '
        '"skipped_targets": ["S4"], "hom_counts_up_to_conjugacy": {"S3": 4}}\n',
        "",
    ),
]


@pytest.mark.parametrize("argv, code, out, err", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_error_path_pinned(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    got = main(list(argv))
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err)


class _Renamed:
    """A linking graph whose signature carries the number of its build."""

    def __init__(self, graph, n):
        self._graph, self._n = graph, n

    def __getattr__(self, name):
        return getattr(self._graph, name)

    def combinatorial_signature(self):
        return (self._n, self._graph.combinatorial_signature())


def test_verify_failure_records_pinned(capsys, monkeypatch):
    # every measurement differs from the last: all three checks fail
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    calls = {"graph": 0, "ab": 0, "hom": 0}
    real_graph, real_ab, real_hom = cli.build_graph, cli.diagram_abelianization, cli.hom_count

    def build_graph(d, sign):
        calls["graph"] += 1
        return _Renamed(real_graph(d, sign), calls["graph"])

    def diagram_abelianization(d):
        calls["ab"] += 1
        return Abelianization(real_ab(d).invariant_factors + (calls["ab"],))

    def hom_count(p, t, caps):
        found = real_hom(p, t, caps)  # a capped target still raises
        calls["hom"] += 1
        # one more orbit, of calls["hom"] homs: the count grows by that much
        return HomCount(t.name, found.reps, found.sizes + (calls["hom"],), found.tried)

    monkeypatch.setattr(cli, "build_graph", build_graph)
    monkeypatch.setattr(cli, "diagram_abelianization", diagram_abelianization)
    monkeypatch.setattr(cli, "hom_count", hom_count)
    code = main(
        ["verify", "1 3 2 1 3 2", "--moves", "4", "--seed", "6", "--caps.generators", "S4=2"]
    )
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert captured.out == json.dumps(VERIFY_FAILURES) + "\n"


def failure(step, kind, position, check, detail):
    return {"step": step, "move": {"kind": kind, "position": position}, "check": check,
            "detail": detail}


# S4 is capped (3 generators, cap 2), so it is never compared
VERIFY_FAILURES = {
    "word": {"strands": 4, "letters": [1, 3, 2, 1, 3, 2]},
    "seed": 6,
    "requested_moves": 4,
    "applied_moves": 4,
    "stable": False,
    "targets": ["S3", "S4"],
    "failures": [
        failure(0, "stab", 7, "abelianization", "(1, 1, 0, 1) became (1, 1, 0, 2)"),
        failure(0, "stab", 7, "hom_count:S3", "13 became 14"),
        failure(0, "stab", 7, "graph-signature", "linking graph changed under a neutral move"),
        failure(1, "destab", 7, "abelianization", "(1, 1, 0, 1) became (1, 1, 0, 3)"),
        failure(1, "destab", 7, "hom_count:S3", "13 became 15"),
        failure(1, "destab", 7, "graph-signature", "linking graph changed under a neutral move"),
        failure(2, "farcomm", 1, "abelianization", "(1, 1, 0, 1) became (1, 1, 0, 4)"),
        failure(2, "farcomm", 1, "hom_count:S3", "13 became 16"),
        failure(2, "farcomm", 1, "graph-signature", "linking graph changed under a neutral move"),
        failure(3, "conjL", 1, "abelianization", "(1, 1, 0, 1) became (1, 1, 0, 5)"),
        failure(3, "conjL", 1, "hom_count:S3", "13 became 17"),
    ],
}
