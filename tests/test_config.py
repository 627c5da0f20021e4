import pytest

from braidforge import finite_groups
from braidforge.config import Config, apply_overrides, load_config_file
from braidforge.garside import GarsideCaps


def test_defaults():
    cfg = Config()
    assert cfg.sign_convention == "left-positive"
    assert cfg.targets == ("S3", "S4")
    assert cfg.generator_caps["S3"] == 14
    assert cfg.generator_caps["S4"] == 10
    assert cfg.generator_caps["S5"] == 8


def test_validation():
    with pytest.raises(ValueError):
        Config(sign_convention="sideways")
    with pytest.raises(ValueError):
        Config(generator_caps={"S3": 0})
    with pytest.raises(ValueError):
        Config(garside_caps=GarsideCaps(summit_set=-1))
    for summit_set in (0, -3, None):
        with pytest.raises(ValueError):
            Config(garside_caps=GarsideCaps(summit_set=summit_set))
    assert Config(garside_caps=GarsideCaps(summit_set=1)).garside_caps.summit_set == 1
    with pytest.raises(TypeError):  # no search runs, so no cap bounds one
        GarsideCaps(word_search=1)


def test_unknown_target_rejected():
    cfg = Config(targets=("S3", "NOPE"))
    with pytest.raises(ValueError):
        cfg.resolve_targets()


def test_overrides_parsing(tmp_path):
    path = tmp_path / "cfg"
    path.write_text(
        "# comment\n"
        "sign_convention=right-positive\n"
        "targets=S3,Q8\n"
        "caps.generators=S3=9, *=5\n"
        "caps.summit_set=123\n"
    )
    cfg = apply_overrides(Config(), load_config_file(str(path)))
    assert cfg.sign_convention == "right-positive"
    assert cfg.targets == ("S3", "Q8")
    assert cfg.generator_caps["S3"] == 9
    assert cfg.generator_caps["*"] == 5
    assert cfg.generator_caps["S4"] == 10  # untouched default
    assert cfg.garside_caps.summit_set == 123


def test_word_search_key_is_unknown(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("caps.word_search=99\n")
    with pytest.raises(ValueError, match=r", line 1: unknown config key 'caps\.word_search'$"):
        load_config_file(str(path))


def test_resolve_builtins():
    names = [t.name for t in Config(targets=("S3", "D5", "Q8")).resolve_targets()]
    assert names == ["S3", "D5", "Q8"]


def test_resolve_builds_only_named_builtins(monkeypatch):
    built = []
    for name, build in list(finite_groups.BUILTIN_TARGETS.items()):
        monkeypatch.setitem(
            finite_groups.BUILTIN_TARGETS, name,
            lambda name=name, build=build: built.append(name) or build(),
        )
    assert [t.name for t in Config().resolve_targets()] == ["S3", "S4"]
    assert built == ["S3", "S4"]


def test_table_file_shadows_builtin_name(tmp_path):
    # a file named S3 holding the cyclic group of order 2 replaces S3
    path = tmp_path / "S3.txt"
    path.write_text("2\n0 1\n1 0\n")
    (t,) = Config(targets=("S3",), table_files=(str(path),)).resolve_targets()
    assert (t.name, t.table) == ("S3", ((0, 1), (1, 0)))
    # an unnamed table file is still validated
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 1\n0 1\n")
    with pytest.raises(ValueError):
        Config(targets=("S4",), table_files=(str(bad),)).resolve_targets()
