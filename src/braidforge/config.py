"""Runtime configuration: sign convention, targets, caps, output format.

A config file named by the BRAIDFORGE_CONFIG environment variable is a
plain key=value file ('#' comments allowed); command-line flags override
it. Generator caps are per finite target, with '*' as the fallback.
"""

from __future__ import annotations

import os
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
        for cap in self.generator_caps.values():
            if cap <= 0:
                raise ValueError("caps must be positive")
        gc = self.garside_caps
        cycling_ok = gc.cycling is None or gc.cycling > 0
        if gc.summit_set <= 0 or gc.word_search <= 0 or not cycling_ok:
            raise ValueError("caps must be positive")

    def resolve_targets(self) -> list[FiniteTarget]:
        """The configured targets; a table file shadows a built-in name.

        Every table file is loaded and validated; built-in tables are
        built only when named.
        """
        tables: dict[str, FiniteTarget] = {}
        for path in self.table_files:
            with open(path, encoding="utf-8") as fh:
                name = os.path.splitext(os.path.basename(path))[0]
                tables[name] = load_table(fh.read(), name)
        out = []
        for name in self.targets:
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
        caps[key.strip()] = int(value)
    return caps


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def config_from_env() -> Config:
    path = os.environ.get(ENV_VAR)
    cfg = Config()
    if not path:
        return cfg
    values = load_config_file(path)
    return apply_overrides(cfg, values)


def apply_overrides(cfg: Config, values: dict[str, str]) -> Config:
    updates: dict = {}
    if "sign_convention" in values:
        updates["sign_convention"] = values["sign_convention"]
    if "targets" in values:
        updates["targets"] = tuple(
            t.strip() for t in values["targets"].split(",") if t.strip()
        )
    if "format" in values:
        updates["format"] = values["format"]
    if "caps.generators" in values:
        updates["generator_caps"] = _parse_generator_caps(values["caps.generators"])
    garside_updates: dict = {}
    if "caps.summit_set" in values:
        garside_updates["summit_set"] = int(values["caps.summit_set"])
    if "caps.cycling" in values:
        garside_updates["cycling"] = int(values["caps.cycling"])
    if "caps.word_search" in values:
        garside_updates["word_search"] = int(values["caps.word_search"])
    if garside_updates:
        updates["garside_caps"] = replace(cfg.garside_caps, **garside_updates)
    if "table_files" in values:
        updates["table_files"] = tuple(
            t.strip() for t in values["table_files"].split(",") if t.strip()
        )
    return replace(cfg, **updates)
