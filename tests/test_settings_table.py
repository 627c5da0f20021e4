"""One settings table: config-file keys, flags and fields agree.

config.SETTINGS is the only declaration of a setting. A config file may
set only its keys, every flag stores under the same key, and a line
that is neither blank, a comment nor a known key=value is an error.
"""

import json

import pytest

from braidforge import cli, config
from braidforge.cli import main
from braidforge.config import Config, apply_overrides, load_config_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "line", ["caps.summit-set=1", "sign-convention=right-positive", "tables=S3.txt"]
)
def test_config_file_rejects_flag_spellings(tmp_path, monkeypatch, capsys, line):
    path = tmp_path / "braidforge.conf"
    path.write_text(f"# flags are spelled with dashes, keys are not\n\n{line}\n")
    with pytest.raises(ValueError, match=repr(line.partition("=")[0])):
        load_config_file(str(path))
    monkeypatch.setenv("BRAIDFORGE_CONFIG", str(path))
    code, out, err = run(capsys, "summit", "1 2 1 2 2 1")
    assert (code, out) == (1, "")
    assert err == f"error: {path}, line 3: unknown config key {line.partition('=')[0]!r}\n"


def test_config_file_rejects_the_retired_cycling_cap(tmp_path, monkeypatch, capsys):
    # convergence is bounded by ||Delta||, so there is no cycling cap to set
    path = tmp_path / "braidforge.conf"
    path.write_text("caps.cycling=5\n")
    monkeypatch.setenv("BRAIDFORGE_CONFIG", str(path))
    code, out, err = run(capsys, "summit", "1 2 1")
    assert (code, out) == (1, "")
    assert err == f"error: {path}, line 1: unknown config key 'caps.cycling'\n"


def test_config_line_without_equals_rejected(tmp_path, monkeypatch, capsys):
    path = tmp_path / "braidforge.conf"
    path.write_text("targets=S3\ntargets S3\n")
    monkeypatch.setenv("BRAIDFORGE_CONFIG", str(path))
    code, out, err = run(capsys, "invariants", "1 1 1")
    assert (code, out) == (1, "")
    assert err == f"error: {path}, line 2: expected key=value, got 'targets S3'\n"


def test_config_file_keys_as_the_flags_set_them(tmp_path, monkeypatch, capsys):
    # the key the file spells and the flag's destination are one and the same
    path = tmp_path / "braidforge.conf"
    path.write_text("caps.summit_set=1\n")
    monkeypatch.setenv("BRAIDFORGE_CONFIG", str(path))
    from_file = run(capsys, "summit", "1 2 1 2 2 1")
    monkeypatch.delenv("BRAIDFORGE_CONFIG")
    from_flag = run(capsys, "summit", "1 2 1 2 2 1", "--caps.summit-set", "1")
    assert from_file == from_flag
    assert from_file[0] == 2


def test_every_key_has_a_flag_and_a_field():
    # every command shares the setting flags, each stored under its key
    assert set(config.SETTINGS) <= set(vars(cli._parsers()[0].parse_args(["parse", "1"])))
    values = {
        "sign_convention": "right-positive",
        "targets": "S3, Q8",
        "format": "plain",
        "caps.generators": "S3=9",
        "caps.summit_set": "5",
        "table_files": "a.txt,b.txt",
    }
    assert set(values) == set(config.SETTINGS)
    cfg = apply_overrides(Config(), values)
    assert (cfg.sign_convention, cfg.targets, cfg.format) == (
        "right-positive", ("S3", "Q8"), "plain",
    )
    assert cfg.generator_caps["S3"] == 9
    assert cfg.garside_caps.summit_set == 5
    assert cfg.table_files == ("a.txt", "b.txt")


def test_flags_override_the_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "braidforge.conf"
    path.write_text("targets=S3\nsign_convention=right-positive\n")
    monkeypatch.setenv("BRAIDFORGE_CONFIG", str(path))
    _, out, _ = run(capsys, "invariants", "1 1 1", "--targets", "Q8")
    assert set(json.loads(out)["hom_counts"]) == {"Q8"}
    _, out, _ = run(capsys, "graph", "1 2 1 1 2 1", "--sign-convention", "left-positive")
    assert json.loads(out)["regions"][0]["sign"] == -1
