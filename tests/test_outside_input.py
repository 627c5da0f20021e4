"""Input from outside the library: relators built by hand, settings that do
not parse, negative move counts, and the ``python -m braidforge`` entry.

A hand-built presentation reads its pair table off its relator words, so
a relator's kind or equation cannot impose a relation its word does not
state; one built from a table keeps its cycles with the kind CYCLE. A
setting that does not parse, a cap that is not positive, or a cap that
names no target, names its key, and its file when it came from
BRAIDFORGE_CONFIG.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from braidforge.cli import main
from braidforge.config import Config, apply_overrides
from braidforge.finite_groups import symmetric_group
from braidforge.invariants import enumerate_homs, evaluate_word, hom_count
from braidforge.isomaps import GeneratorMap, check_map
from braidforge.presentations import (
    Presentation,
    Relator,
    RelatorKind,
    braid_relator,
    comm_relator,
    relabels_onto,
    serialize,
)

from conftest import brute_hom_count, relator_words, table_presentation

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "k, relator, expected",
    [
        # lhs = rhs: the word is empty and the group free of rank 2
        (2, Relator((1, 2, 1), (1, 2, 1), ()), 36),
        # a braid-shaped equation that is not the braid relation
        (3, Relator((1, 2, 3), (3, 2, 1), ()), 108),
        # a commutation-shaped equation that is not the commutator
        (3, Relator((1, 2), (3, 1), ()), 36),
        # the braid relation's word as one side still is the braid relation
        (2, Relator(braid_relator(1, 2).word, (), ()), 12),
    ],
)
def test_hand_built_pair_table_reads_words(k, relator, expected):
    p = Presentation(k, (relator,))
    s3 = symmetric_group(3)
    assert hom_count(p, s3).count == brute_hom_count([relator.word], k, s3) == expected
    homs = enumerate_homs(p, s3)
    assert len(homs) == expected
    assert all(evaluate_word(s3, h, relator.word) == s3.identity for h in homs)


@pytest.mark.parametrize(
    "relator, plain",
    [
        # a commutation-shaped equation that is not the commutator
        (Relator((1, 2), (3, 1), ()), "s1 s2 = s3 s1"),
        # a commutation-shaped equation with three letters on the left
        (Relator((1, 2, 3), (3, 1), ()), "s1 s2 s3 = s3 s1"),
        # an empty side prints as the identity
        (Relator((1, 1), (), ()), "s1 s1 = 1"),
        # the commutator's word files it as its pair, whatever its equation
        (Relator((1, 3), (3, 1), ()), "[s1,s3] = 1"),
    ],
    ids=["comm-equation", "comm-three-letters", "empty-side", "cycle-commutator"],
)
def test_hand_built_relators_print_what_their_words_say(relator, plain):
    p = Presentation(3, (relator,))
    assert serialize(p, "plain") == f"<s1,s2,s3 | {plain}>"
    [r] = json.loads(serialize(p, "json"))["relators"]
    assert r["word"] == list(relator.word)
    assert r["kind"] == ("comm" if plain.startswith("[") else "cycle")


@pytest.mark.parametrize(
    "lhs, plain",
    [
        # a commutation-shaped equation on two letters printed another group's relator
        ((1, 2), "s1 s2 = s3 s1"),
        # a commutation-shaped equation on three letters crashed plain output
        ((1, 2, 3), "s1 s2 s3 = s3 s1"),
    ],
)
def test_table_cycles_print_what_their_words_say(lhs, plain):
    relator = Relator(lhs, (3, 1), ())
    p = table_presentation(3, [], (relator,))
    assert [r.kind for r in p.cycles] == [RelatorKind.CYCLE]
    assert serialize(p, "plain").endswith(f", {plain}>")
    gap = "*".join(f"F.{x}" if x > 0 else f"F.{-x}^-1" for x in relator.word)
    assert serialize(p, "gap-style").endswith(f", {gap}];")


def test_hand_built_table_keeps_standard_pair_relators():
    p = Presentation(3, (braid_relator(1, 2), comm_relator(3, 1), comm_relator(2, 3)))
    assert (p.braid_pairs, p.comm_pairs, p.cycles) == (((1, 2),), None, ())
    s3 = symmetric_group(3)
    assert hom_count(p, s3).count == brute_hom_count(relator_words(p), 3, s3)


def test_relabeling_a_full_table_onto_a_pair_shaped_cycle():
    # (2, 1, -2, -1) is no canonical pair word, so it stays a cycle; the
    # swap carries it onto the commutator of 1 and 2, and that onto it
    w = Relator((2, 1), (1, 2), ())
    p = Presentation(2, (comm_relator(1, 2), w))
    assert (p.comm_pairs, p.cycles) == (None, (w,))
    assert relabels_onto(p, p, [2, 1])
    swap = GeneratorMap(p, p, ((2,), (1,)), ((2,), (1,)))
    assert check_map(swap, [symmetric_group(3)]).method == "relabeling"


def test_unparsable_flag_names_its_key(capsys, monkeypatch):
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    code, out, err = run(capsys, "summit", "1 2 1", "--caps.generators", "S4=many")
    assert (code, out) == (1, "")
    assert err == "error: caps.generators: invalid literal for int() with base 10: 'many'\n"


def test_unparsable_config_value_names_key_and_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "braidforge.conf"
    path.write_text("targets=S3\ncaps.summit_set=x\n")
    monkeypatch.setenv("BRAIDFORGE_CONFIG", str(path))
    code, out, err = run(capsys, "summit", "1 2 1 2 2 1")
    assert (code, out) == (1, "")
    assert err == f"error: {path}, caps.summit_set: invalid literal for int() with base 10: 'x'\n"


def test_apply_overrides_names_key_and_source():
    with pytest.raises(ValueError, match=r"^caps\.summit_set: "):
        apply_overrides(Config(), {"caps.summit_set": "often"})
    with pytest.raises(ValueError, match=r"^my\.conf, caps\.summit_set: "):
        apply_overrides(Config(), {"caps.summit_set": ""}, "my.conf")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--caps.summit-set", "0", "caps.summit_set: must be positive, got 0"),
        ("--caps.summit-set", "-3", "caps.summit_set: must be positive, got -3"),
        ("--caps.generators", "S3=0", "caps.generators: S3 must be positive, got 0"),
        ("--caps.generators", "S4=5,*=-1", "caps.generators: * must be positive, got -1"),
    ],
)
def test_cap_that_is_not_positive_names_its_key(capsys, monkeypatch, flag, value, message):
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    code, out, err = run(capsys, "summit", "1 2 1", flag, value)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_config_cap_that_is_not_positive_names_key_and_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "braidforge.conf"
    path.write_text("targets=S3\ncaps.summit_set=0\n")
    monkeypatch.setenv("BRAIDFORGE_CONFIG", str(path))
    code, out, err = run(capsys, "summit", "1 2 1 2 2 1")
    assert (code, out) == (1, "")
    assert err == f"error: {path}, caps.summit_set: must be positive, got 0\n"


def test_config_word_search_key_is_unknown(tmp_path, monkeypatch, capsys):
    # no search runs, so there is no word-search cap to set
    path = tmp_path / "braidforge.conf"
    path.write_text("targets=S3\ncaps.word_search=5\n")
    monkeypatch.setenv("BRAIDFORGE_CONFIG", str(path))
    code, out, err = run(capsys, "summit", "1 2 1 2 2 1")
    assert (code, out) == (1, "")
    assert err == f"error: {path}, line 2: unknown config key 'caps.word_search'\n"


def test_apply_overrides_names_cap_and_source():
    with pytest.raises(ValueError, match=r"^caps\.summit_set: must be positive, got 0$"):
        apply_overrides(Config(), {"caps.summit_set": "0"})
    with pytest.raises(ValueError, match=r"^my\.conf, caps\.generators: S3 must be positive"):
        apply_overrides(Config(), {"caps.generators": "S3=0"}, "my.conf")


def test_cap_that_names_no_target_is_refused(tmp_path, monkeypatch, capsys):
    # no target is named "", so such a cap would bind nothing
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    code, out, err = run(capsys, "invariants", "1 2 1", "--caps.generators", "=5")
    assert (code, out, err) == (1, "", "error: caps.generators: '=5' names no target\n")
    path = tmp_path / "braidforge.conf"
    path.write_text("caps.generators==5\n")
    monkeypatch.setenv("BRAIDFORGE_CONFIG", str(path))
    code, out, err = run(capsys, "invariants", "1 2 1")
    assert (code, out, err) == (1, "", f"error: {path}, caps.generators: '=5' names no target\n")


def test_target_named_twice_is_compared_once(tmp_path, monkeypatch, capsys):
    # each target once, in the order first named, from the flag and the file
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    code, out, _ = run(capsys, "isocheck", "1 2 1 1", "2 1 2 1", "--targets", "S3,S3")
    assert code == 0
    assert json.loads(out)["report"]["checked_targets"] == ["S3"]
    code, out, _ = run(capsys, "verify", "--moves", "3", "1 2 1 1", "--targets", "S4,S3,S4")
    assert (code, json.loads(out)["targets"]) == (0, ["S4", "S3"])
    path = tmp_path / "braidforge.conf"
    path.write_text("targets=S3,S3\n")
    monkeypatch.setenv("BRAIDFORGE_CONFIG", str(path))
    code, out, _ = run(capsys, "verify", "--moves", "3", "1 2 1 1")
    assert (code, json.loads(out)["targets"]) == (0, ["S3"])
    code, out, _ = run(capsys, "isocheck", "1 2 1 1", "2 1 2 1")
    assert code == 0
    assert json.loads(out)["report"]["checked_targets"] == ["S3"]


def test_verify_rejects_negative_move_count(capsys, monkeypatch):
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    code, out, err = run(capsys, "verify", "--moves", "-5", "1 2 1")
    assert (code, out) == (64, "")
    assert err == "usage error: --moves must be at least 0, got -5\n"
    code, out, _ = run(capsys, "verify", "--moves", "0", "1 2 1")
    assert code == 0
    assert '"requested_moves": 0, "applied_moves": 0, "stable": true' in out


def test_module_entry_point():
    env = {k: v for k, v in os.environ.items() if k != "BRAIDFORGE_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "braidforge", "parse", "1 2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        0, '{"strands": 3, "letters": [1, 2]}\n', ""
    )
