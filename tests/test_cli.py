import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import braidforge
from braidforge import cli
from braidforge.cli import main

SCHEMA = json.loads(
    resources.files("braidforge.schemas").joinpath("cli_output.schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(payload: dict, command: str) -> None:
    schema = {"$ref": f"#/$defs/{command}"} | {"$defs": SCHEMA["$defs"]}
    jsonschema.validate(payload, schema)


def test_parse_json(capsys):
    code, out = run(capsys, "parse", "1 2 1")
    assert code == 0
    data = json.loads(out)
    validate(data, "parse")
    assert data == {"strands": 3, "letters": [1, 2, 1]}


def test_bricks_json(capsys):
    code, out = run(capsys, "bricks", "1 2 1 1 2 1")
    assert code == 0
    validate(json.loads(out), "bricks")


def test_graph_json(capsys):
    code, out = run(capsys, "graph", "1 2 1 1 2 1")
    assert code == 0
    data = json.loads(out)
    validate(data, "graph")
    assert len(data["regions"]) == 1


def test_present_plain_worked_example(capsys):
    code, out = run(capsys, "present", "1 2 1 1 2 1", "--format", "plain")
    assert code == 0
    assert "s4 s3 s2 s1 s4 s3 = s3 s2 s1 s4 s3 s2" in out


def test_present_json_schema(capsys):
    code, out = run(capsys, "present", "1 2 1 1 2 1")
    validate(json.loads(out), "present")


def test_present_gap_style(capsys):
    code, out = run(capsys, "present", "1 1 1", "--format", "gap-style")
    assert out.startswith("F := FreeGroup(2);;")


def test_nf_json(capsys):
    code, out = run(capsys, "nf", "1 2 1")
    data = json.loads(out)
    validate(data, "nf")
    assert data == {"strands": 3, "k": 1, "factors": []}


def test_conj_json(capsys):
    code, out = run(capsys, "conj", "1 2 1 1 2 1", "1 1 2 1 1 2")
    data = json.loads(out)
    validate(data, "conj")
    assert data["conjugate"] is True


def test_summit_json(capsys):
    code, out = run(capsys, "summit", "1 2 1 2 2 1", "--full")
    data = json.loads(out)
    validate(data, "summit")
    assert data["summit_power"] == 1
    assert data["size"] == len(data["members"]) == 4


def test_halftwist_json(capsys):
    code, out = run(capsys, "halftwist", "1 1 1", "--strands", "3")
    data = json.loads(out)
    validate(data, "halftwist")
    assert data["contains_half_twist"] is False


def test_moveseq_json(capsys):
    code, out = run(capsys, "moveseq", "1 2 1 1 2 1", "1 1 2 1 1 2")
    data = json.loads(out)
    validate(data, "moveseq")
    assert data["replay_ok"] is True
    assert data["method"] == "procedure-found"


def test_invariants_json(capsys):
    code, out = run(capsys, "invariants", "1 2 2 1")
    data = json.loads(out)
    validate(data, "invariants")
    assert data["abelianization"] == [0, 0]
    assert data["rank"] == 2
    assert data["hom_counts"]["S3"] == 18


def test_invariants_custom_targets(capsys):
    code, out = run(capsys, "invariants", "1 1 1", "--targets", "S3,Q8")
    data = json.loads(out)
    assert set(data["hom_counts"]) == {"S3", "Q8"}


def test_isocheck_with_script(capsys):
    code, out = run(
        capsys, "isocheck", "1 2 1 1 2 1", "1 1 2 1 1 2", "--moves", "conjR"
    )
    assert code == 0
    data = json.loads(out)
    validate(data, "isocheck")
    assert data["report"]["consistent"] is True


@pytest.mark.parametrize(
    "a, b, script, strands",
    [
        ("1 2 1 1 2", "1 2 1 1 2 3", "stab", (3, 4)),
        ("1 2 1 1 2 3", "1 2 1 1 2", "destab", (4, 3)),
        ("1 2 1 1 2 1", "1 1 2 1 1 2 3", "conjR, stab", (3, 4)),
    ],
)
def test_isocheck_across_a_markov_move(capsys, a, b, script, strands):
    # with --moves each word keeps the strand count it parses to
    code, out = run(capsys, "isocheck", a, b, "--moves", script)
    assert code == 0
    data = json.loads(out)
    validate(data, "isocheck")
    assert (data["source"]["strands"], data["target"]["strands"]) == strands
    assert data["report"]["consistent"] is True


def test_isocheck_finds_moves(capsys):
    code, out = run(capsys, "isocheck", "1 2 1 2 2 1", "1 2 2 2 1 2")
    assert code == 0
    data = json.loads(out)
    assert data["report"]["consistent"] is True


def test_isocheck_bad_script(capsys):
    code, out = run(
        capsys, "isocheck", "1 2 1", "2 1 2", "--moves", "conjL"
    )
    assert code == 1


def test_verify_stable(capsys):
    code, out = run(capsys, "verify", "--moves", "60", "--seed", "7", "2 1 2 2 1")
    assert code == 0
    data = json.loads(out)
    validate(data, "verify")
    assert data["stable"] is True
    assert data["applied_moves"] == 60


def test_render_svg(capsys):
    code, out = run(capsys, "render", "--svg", "1 3 1 2 1 3 1 3 1 2 3 1 3 2")
    assert code == 0
    assert out.startswith("<svg")
    assert "</svg>" in out
    assert 'fill="#b0b0b0"' in out  # shaded negative region


def test_render_zero_bricks(capsys):
    code, out = run(capsys, "render", "--svg", "1", "--strands", "4")
    assert code == 0
    assert out.startswith("<svg")
    assert "<rect" not in out


def test_render_what_variants(capsys):
    code, bricks_only = run(capsys, "render", "--svg", "--what", "bricks", "1 2 1 1 2 1")
    assert code == 0 and "<rect" in bricks_only and "<circle" not in bricks_only
    code, graph_only = run(capsys, "render", "--svg", "--what", "graph", "1 2 1 1 2 1")
    assert code == 0 and "<circle" in graph_only and "<rect" not in graph_only
    code, both = run(capsys, "render", "--svg", "1 2 1 1 2 1")
    assert code == 0 and "<rect" in both and "<circle" in both


def test_graph_svg_and_dot_formats(capsys):
    code, svg = run(capsys, "graph", "1 2 1 1 2 1", "--format", "svg")
    assert code == 0 and svg.startswith("<svg")
    code, dot = run(capsys, "graph", "1 2 1 1 2 1", "--format", "dot")
    assert code == 0 and dot.startswith("graph linking {")


def test_render_dot_parses(capsys):
    code, out = run(capsys, "render", "--dot", "1 2 1 1 2 1")
    assert code == 0
    body = out.strip()
    assert body.startswith("graph linking {")
    assert body.endswith("}")
    assert body.count("--") == 4  # one per edge
    assert "// region sign=" in body


def test_byte_identical_outputs(capsys):
    _, out1 = run(capsys, "render", "--svg", "1 2 1 1 2 1")
    _, out2 = run(capsys, "render", "--svg", "1 2 1 1 2 1")
    assert out1 == out2
    _, j1 = run(capsys, "verify", "--moves", "20", "--seed", "3", "1 2 1")
    _, j2 = run(capsys, "verify", "--moves", "20", "--seed", "3", "1 2 1")
    assert j1 == j2


def test_exit_codes(capsys):
    code, _ = run(capsys, "parse", "bogus")
    assert code == 1
    # equal words are joined with no search, so the summit cap gives the 2
    code, _ = run(capsys, "summit", "1 2 1 2 2 1", "--caps.summit-set", "1")
    assert code == 2
    assert main(["parse"]) == 64  # missing required argument


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate", "1"]) == 64


def test_usage_error_isocheck_bad_token(capsys):
    code, _ = run(capsys, "isocheck", "1 2 1", "1 2 1", "--moves", "zap@1")
    assert code == 64


@pytest.mark.parametrize("script", ["conjR@x", "braid@1.5"])
def test_usage_error_isocheck_bad_position(capsys, script):
    code = main(["isocheck", "1 2 1 2", "2 1 2 2", "--moves", script])
    out, err = capsys.readouterr()
    assert (code, out) == (64, "")
    assert repr(script) in err


def test_sign_convention_flag(capsys):
    _, out = run(capsys, "graph", "1 2 1 1 2 1", "--sign-convention", "right-positive")
    data = json.loads(out)
    assert data["regions"][0]["sign"] == 1
    _, out = run(capsys, "graph", "1 2 1 1 2 1")
    assert json.loads(out)["regions"][0]["sign"] == -1


def test_env_config_file(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "braidforge.conf"
    cfg.write_text("sign_convention=right-positive\ntargets=S3\n")
    monkeypatch.setenv("BRAIDFORGE_CONFIG", str(cfg))
    _, out = run(capsys, "graph", "1 2 1 1 2 1")
    assert json.loads(out)["regions"][0]["sign"] == 1
    _, out = run(capsys, "invariants", "1 1 1")
    assert set(json.loads(out)["hom_counts"]) == {"S3"}


def test_unknown_target_rejected(capsys):
    code, _ = run(capsys, "invariants", "1 1 1", "--targets", "NOPE")
    assert code == 1


def test_custom_table_file(capsys, tmp_path):
    from braidforge.finite_groups import symmetric_group

    s3 = symmetric_group(3)
    path = tmp_path / "C6.txt"
    rows = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    path.write_text("6\n" + "\n".join(" ".join(map(str, r)) for r in rows))
    code, out = run(
        capsys, "invariants", "1 1 1", "--targets", "C6", "--tables", str(path)
    )
    assert code == 0
    data = json.loads(out)
    assert "C6" in data["hom_counts"]


def test_main_called_twice_prints_what_fresh_calls_print(capsys, monkeypatch):
    # the parser is built once per process; no call may leak into the next
    monkeypatch.delenv("BRAIDFORGE_CONFIG", raising=False)
    commands = [
        ["summit", "1 2 1 2 2 1", "--full"],
        ["summit", "1 2 1 2 2 1"],
        ["summit", "1 2 1", "--moves", "3"],
        ["isocheck", "1 2 1 1 2 1", "1 1 2 1 1 2", "--moves", "conjR"],
        ["isocheck", "1 2 1 1 2 1", "1 1 2 1 1 2"],
        ["verify", "2 1 2 2 1", "--moves", "12", "--seed", "3"],
        ["nosuchcommand"],
    ]
    env = {k: v for k, v in os.environ.items() if k != "BRAIDFORGE_CONFIG"}
    env["PYTHONPATH"] = str(Path(braidforge.__file__).resolve().parents[1])
    code = "import sys; from braidforge.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in commands:
        fresh = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
        )
        got = main(list(argv))
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv
    assert cli._parsers()[0] is cli._parsers()[0]
