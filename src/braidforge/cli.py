"""Command-line frontend.

``main`` parses the arguments, builds the configuration (the config
file's settings, then every flag given a non-empty value, each stored
under its ``config.SETTINGS`` key), reads the command's word or words
once and passes them to the command, read by that command's own parser;
``invariants`` and ``verify`` build a linking graph only for a hom search
or a neutral move. Exit codes: 0 success, 1 domain error, 2 resource cap
exceeded, 64 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys

from . import render as render_mod
from .bricks import build_bricks
from .config import SETTINGS, Config, apply_overrides, config_from_env
from .errors import BraidForgeError, ResourceCapError
from .garside import (
    conjugacy_move_sequence_detailed,
    are_conjugate,
    contains_half_twist,
    normal_form,
    summit,
)
from .invariants import diagram_abelianization, generator_cap, hom_count
from .isomaps import check_map, maps_along_moves
from .linking import build_graph
from .presentations import presentation_of, serialize
from .words import (
    NEUTRAL,
    BraidWord,
    MoveKind,
    WordMove,
    apply_move,
    end_position,
    enumerate_moves,
    parse_word,
    replay,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


_MOVE_TOKENS = {k.value: k for k in MoveKind}


def _parse_move_script(text: str) -> list[tuple[MoveKind, int | None]]:
    moves: list[tuple[MoveKind, int | None]] = []
    for token in text.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        name, _, pos = token.partition("@")
        if name not in _MOVE_TOKENS:
            raise UsageError(f"unknown move token {name!r}")
        try:
            position = int(pos) if pos else None
        except ValueError:
            raise UsageError(f"bad move position in {token!r}") from None
        moves.append((_MOVE_TOKENS[name], position))
    return moves


def _resolve_moves(
    w: BraidWord, script: list[tuple[MoveKind, int | None]]
) -> tuple[list[WordMove], BraidWord]:
    out = []
    cur = w
    for kind, pos in script:
        if pos is None and (pos := end_position(kind, len(cur.letters))) is None:
            raise UsageError(f"move {kind.value} needs a position: {kind.value}@p")
        m = WordMove(kind, pos)
        out.append(m)
        cur = apply_move(cur, m)
    return out, cur


def _move_json(m: WordMove) -> dict:
    return {"kind": m.kind.value, "position": m.position}


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strands", type=int, default=None, help="explicit strand count")
    # every flag but --strands and --seed stores under its config.SETTINGS key
    p.add_argument("--format", help="output format")
    p.add_argument("--sign-convention", choices=["left-positive", "right-positive"])
    p.add_argument("--targets", help="comma list of finite targets")
    p.add_argument(
        "--tables", dest="table_files", metavar="TABLES", help="comma list of table files"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--caps.generators", metavar="CAPS_GENERATORS")
    p.add_argument("--caps.summit-set", metavar="CAPS_SUMMIT", type=int)


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="braidforge")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, _Parser] = {}

    def add(name: str, nwords: int, **kwargs) -> argparse.ArgumentParser:
        p = commands[name] = sub.add_parser(name, **kwargs)
        for i in range(nwords):
            p.add_argument(f"word{i + 1}" if nwords > 1 else "word")
        _common_flags(p)
        return p

    for name in ("parse", "bricks", "graph", "present", "nf"):
        add(name, 1)
    add("conj", 2)
    p = add("summit", 1)
    p.add_argument("--full", action="store_true", help="list summit set members")
    add("halftwist", 1)
    add("moveseq", 2)
    p = add("invariants", 1)
    p.add_argument("--up-to-conjugacy", action="store_true")
    p = add("isocheck", 2)
    p.add_argument("--moves", default=None, help="move script, e.g. 'conjR, braid@2'")
    p = add("verify", 1)
    p.add_argument("--moves", type=int, default=200, dest="n_moves")
    p = add("render", 1)
    p.add_argument("--what", choices=["bricks", "graph", "both"], default="both")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--dot", action="store_true")
    return parser, commands


def _config_from_args(args: argparse.Namespace) -> Config:
    """The environment's config under every setting flag given a non-empty value."""
    values = {k: str(v) for k in SETTINGS if (v := getattr(args, k)) not in (None, "")}
    return apply_overrides(config_from_env(), values)


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _cmd_parse(args, cfg: Config, w: BraidWord) -> int:
    _emit(str(w) if cfg.format == "plain" else w.to_json())
    return 0


def _cmd_bricks(args, cfg: Config, w: BraidWord) -> int:
    d = build_bricks(w)
    if cfg.format == "plain":
        lines = [f"{b.id}: column {b.column}, positions {b.lo}..{b.hi}" for b in d.bricks]
        _emit("\n".join(lines) if lines else "(no bricks)")
    else:
        _emit(d.to_json())
    return 0


def _cmd_graph(args, cfg: Config, w: BraidWord) -> int:
    g = build_graph(build_bricks(w), cfg.sign_convention)
    if cfg.format == "dot":
        _emit(render_mod.render_graph_dot(g))
    elif cfg.format == "svg":
        _emit(render_mod.render_graph_svg(g))
    else:
        _emit(g.to_json())
    return 0


def _cmd_present(args, cfg: Config, w: BraidWord) -> int:
    p = presentation_of(build_graph(build_bricks(w), cfg.sign_convention))
    fmt = cfg.format if cfg.format in ("plain", "gap-style", "json") else "json"
    _emit(serialize(p, fmt))
    return 0


def _cmd_nf(args, cfg: Config, w: BraidWord) -> int:
    nf = normal_form(w)
    if cfg.format == "plain":
        factors = " ".join(str([x + 1 for x in p]) for p in nf.factors)
        _emit(f"delta^{nf.delta_power} * [{factors}]")
    else:
        _emit(nf.to_json())
    return 0


def _cmd_conj(args, cfg: Config, a: BraidWord, b: BraidWord) -> int:
    result = are_conjugate(a, b, cfg.garside_caps)
    _emit(
        json.dumps(
            {"first": a.to_dict(), "second": b.to_dict(), "conjugate": result}
        )
    )
    return 0


def _cmd_summit(args, cfg: Config, w: BraidWord) -> int:
    data = summit(normal_form(w), cfg.garside_caps)
    payload = {
        "word": w.to_dict(),
        "summit_power": data.summit_power,
        "size": len(data.summit_set),
    }
    if args.full:
        members = sorted(data.summit_set, key=lambda nf: nf.key())
        payload["members"] = [
            {"k": nf.delta_power, "factors": [[x + 1 for x in p] for p in nf.factors]}
            for nf in members
        ]
    _emit(json.dumps(payload))
    return 0


def _cmd_halftwist(args, cfg: Config, w: BraidWord) -> int:
    _emit(
        json.dumps(
            {
                "word": w.to_dict(),
                "contains_half_twist": contains_half_twist(w),
            }
        )
    )
    return 0


def _cmd_moveseq(args, cfg: Config, a: BraidWord, b: BraidWord) -> int:
    result = conjugacy_move_sequence_detailed(a, b, cfg.garside_caps)
    ok = replay(a, list(result.moves)) == b
    _emit(
        json.dumps(
            {
                "source": a.to_dict(),
                "target": b.to_dict(),
                "method": result.method,
                "moves": [_move_json(m) for m in result.moves],
                "replay_ok": ok,
            }
        )
    )
    return 0


def _invariants_of(w: BraidWord, cfg: Config, targets):
    """The word's abelianization, read off its brick diagram, and the
    hom_count record of each target that no cap stops. Only a hom search
    reads the graph: it and its presentation p are built once, if some
    target's cap admits the bricks."""
    d = build_bricks(w)
    caps = cfg.generator_caps
    admitted = [t for t in targets if d.n_bricks <= generator_cap(t, caps)]
    p = presentation_of(build_graph(d, cfg.sign_convention)) if admitted else None
    found = []
    for t in admitted:
        with contextlib.suppress(ResourceCapError):
            found.append(hom_count(p, t, caps))
    return diagram_abelianization(d), found


def _cmd_invariants(args, cfg: Config, w: BraidWord) -> int:
    targets = cfg.resolve_targets()
    ab, found = _invariants_of(w, cfg, targets)
    homs = {h.target: h.count for h in found}
    payload = {
        "word": w.to_dict(),
        "abelianization": list(ab.invariant_factors),
        "rank": ab.rank,
        "hom_counts": homs,
        "skipped_targets": [t.name for t in targets if t.name not in homs],
    }
    if args.up_to_conjugacy:
        payload["hom_counts_up_to_conjugacy"] = {h.target: len(h.reps) for h in found}
    _emit(json.dumps(payload))
    return 0


def _cmd_isocheck(args, cfg: Config, a: BraidWord, b: BraidWord) -> int:
    if args.moves:
        moves, end = _resolve_moves(a, _parse_move_script(args.moves))
        method = "given"
    else:
        result = conjugacy_move_sequence_detailed(a, b, cfg.garside_caps)
        moves = list(result.moves)
        method = result.method
        end = replay(a, moves)
    if end != b:
        raise BraidForgeError("move script does not transform the first word into the second")
    gmap = maps_along_moves(a, moves)
    report = check_map(gmap, cfg.resolve_targets(), cfg.generator_caps)
    _emit(
        json.dumps(
            {
                "source": a.to_dict(),
                "target": b.to_dict(),
                "method": method,
                "moves": [_move_json(m) for m in moves],
                "images": [list(w) for w in gmap.images],
                "inverse_images": [list(w) for w in gmap.inverse_images],
                "report": report.to_dict(),
            }
        )
    )
    return 0 if report.consistent else 1


def _cmd_verify(args, cfg: Config, w: BraidWord) -> int:
    if args.n_moves < 0:
        raise UsageError(f"--moves must be at least 0, got {args.n_moves}")
    rng = random.Random(args.seed)
    targets = cfg.resolve_targets()

    def signature(word: BraidWord):
        return build_graph(build_bricks(word), cfg.sign_convention).combinatorial_signature()

    base_ab, base = _invariants_of(w, cfg, targets)
    base_counts = {h.target: h.count for h in base}
    failures = []
    cur = w
    applied = 0
    for step in range(args.n_moves):
        moves = enumerate_moves(cur)
        if not moves:
            break
        m = rng.choice(moves)
        nxt = apply_move(cur, m)
        applied += 1
        ab, found = _invariants_of(nxt, cfg, targets)
        counts = {h.target: h.count for h in found}
        # (check, base value, value); a base value is None where a cap stopped it
        values = [("abelianization", base_ab.invariant_factors, ab.invariant_factors)]
        values += [(f"hom_count:{t}", base_counts.get(t), n) for t, n in counts.items()]
        found = [(check, f"{x} became {y}") for check, x, y in values if x not in (None, y)]
        if m.kind in NEUTRAL and signature(cur) != signature(nxt):
            found.append(("graph-signature", "linking graph changed under a neutral move"))
        failures += [
            {"step": step, "move": _move_json(m), "check": check, "detail": detail}
            for check, detail in found
        ]
        cur = nxt
    payload = {
        "word": w.to_dict(),
        "seed": args.seed,
        "requested_moves": args.n_moves,
        "applied_moves": applied,
        "stable": not failures,
        "targets": [t.name for t in targets],
        "failures": failures,
    }
    _emit(json.dumps(payload))
    return 0 if not failures else 1


def _cmd_render(args, cfg: Config, w: BraidWord) -> int:
    g = build_graph(build_bricks(w), cfg.sign_convention)
    if args.dot or cfg.format == "dot":
        _emit(render_mod.render_graph_dot(g))
        return 0
    if args.what == "bricks":
        _emit(render_mod.render_bricks_svg(g.diagram))
    elif args.what == "graph":
        _emit(render_mod.render_graph_svg(g))
    else:
        _emit(render_mod.render_both_svg(g))
    return 0


_COMMANDS = {
    "parse": _cmd_parse,
    "bricks": _cmd_bricks,
    "graph": _cmd_graph,
    "present": _cmd_present,
    "nf": _cmd_nf,
    "conj": _cmd_conj,
    "summit": _cmd_summit,
    "halftwist": _cmd_halftwist,
    "moveseq": _cmd_moveseq,
    "invariants": _cmd_invariants,
    "isocheck": _cmd_isocheck,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


_parsers = functools.cache(build_parser)  # one set per process, built on first use


def main(argv: list[str] | None = None) -> int:
    try:
        parser, commands = _parsers()
        argv = sys.argv[1:] if argv is None else argv
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:  # help, and missing or unknown commands
            args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        texts = [args.word] if "word" in args else [args.word1, args.word2]
        words = [parse_word(text, args.strands) for text in texts]
        # two words share the larger strand count unless --strands gave it;
        # a move script keeps each word's own, as a Markov move changes it
        if args.command != "isocheck" or not args.moves:
            n = max(w.strands for w in words)
            words = [w if w.strands == n else BraidWord(n, w.letters) for w in words]
        return _COMMANDS[args.command](args, cfg, *words)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (BraidForgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
