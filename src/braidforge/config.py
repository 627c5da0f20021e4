"""Runtime configuration: sign convention, targets, caps, output format.

``SETTINGS`` declares each setting once: its key, the ``Config`` or
``GarsideCaps`` field it sets and the parser of its text. A config file
named by the BRAIDFORGE_CONFIG environment variable is a plain key=value
file of those keys ('#' comments and blank lines allowed; any other line
must set a known key). Command-line flags store their values under the
same keys and override the file. Generator caps are per finite target,
with '*' as the fallback.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .finite_groups import BUILTIN_TARGETS, FiniteTarget, load_table
from .garside import GarsideCaps
from .invariants import DEFAULT_GENERATOR_CAPS
from .linking import DEFAULT_SIGN_CONVENTION, SIGN_CONVENTIONS

ENV_VAR = "BRAIDFORGE_CONFIG"
DEFAULT_TARGETS = ("S3", "S4")


@dataclass(frozen=True)
class Config:
    sign_convention: str = DEFAULT_SIGN_CONVENTION
    targets: tuple[str, ...] = DEFAULT_TARGETS
    generator_caps: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_GENERATOR_CAPS)
    )
    garside_caps: GarsideCaps = GarsideCaps()
    format: str = "json"
    table_files: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.sign_convention not in SIGN_CONVENTIONS:
            raise ValueError(f"unknown sign convention {self.sign_convention!r}")
        for target, cap in self.generator_caps.items():
            if cap <= 0:
                raise ValueError(f"caps.generators: {target} must be positive, got {cap}")

    def resolve_targets(self) -> list[FiniteTarget]:
        """The configured targets, each name once in first-named order; a
        table file shadows a built-in name.

        Every table file is loaded and validated; built-in tables are
        built only when named.
        """
        tables: dict[str, FiniteTarget] = {}
        for path in self.table_files:
            with open(path, encoding="utf-8") as fh:
                name = os.path.splitext(os.path.basename(path))[0]
                tables[name] = load_table(fh.read(), name)
        out = []
        for name in dict.fromkeys(self.targets):
            if name in tables:
                out.append(tables[name])
            elif name in BUILTIN_TARGETS:
                out.append(BUILTIN_TARGETS[name]())
            else:
                raise ValueError(f"unknown finite target {name!r}")
        return out


def _parse_generator_caps(text: str) -> dict[str, int]:
    caps = dict(DEFAULT_GENERATOR_CAPS)
    for item in text.replace(";", ",").split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"{item!r} names no target")
        caps[key] = int(value)
    return caps


def _names(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


# key: (the class whose field it sets, that field, the parser of its text)
SETTINGS: dict[str, tuple[type, str, Callable[[str], object]]] = {
    "sign_convention": (Config, "sign_convention", str),
    "targets": (Config, "targets", _names),
    "format": (Config, "format", str),
    "caps.generators": (Config, "generator_caps", _parse_generator_caps),
    "caps.summit_set": (GarsideCaps, "summit_set", int),
    "table_files": (Config, "table_files", _names),
}


def load_config_file(path: str) -> dict[str, str]:
    """The file's key=value lines; a line that is not blank, a '#' comment
    or a known key=value raises ValueError."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq:
                raise ValueError(f"{path}, line {number}: expected key=value, got {line!r}")
            if key not in SETTINGS:
                raise ValueError(f"{path}, line {number}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def config_from_env() -> Config:
    path = os.environ.get(ENV_VAR)
    return apply_overrides(Config(), load_config_file(path), path) if path else Config()


def apply_overrides(cfg: Config, values: dict[str, str], source: str = "") -> Config:
    """cfg with every SETTINGS key in values parsed into its field; a value
    that does not parse, or a cap that is not positive, raises ValueError
    naming its key and the file it came from, source, if given."""
    if not values:
        return cfg
    updates: dict[type, dict] = {Config: {}, GarsideCaps: {}}
    try:
        for key, (owner, name, parse) in SETTINGS.items():
            if key in values:
                try:
                    updates[owner][name] = parse(values[key])
                except ValueError as exc:
                    raise ValueError(f"{key}: {exc}") from None
        if updates[GarsideCaps]:
            updates[Config]["garside_caps"] = replace(cfg.garside_caps, **updates[GarsideCaps])
        return replace(cfg, **updates[Config])
    except ValueError as exc:
        if not source:
            raise
        raise ValueError(f"{source}, {exc}") from None
