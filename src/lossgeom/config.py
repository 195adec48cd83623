"""Flat key=value run configuration.

Grammar: one ``key = value`` per line; blank lines and ``#`` comments are
skipped; inline ``# ...`` trails are allowed after the value. Reals accept
scientific notation, booleans accept true/false/yes/no/1/0. Unknown and
duplicate keys are errors (with line numbers), not warnings; missing keys
take the documented defaults (the reference model configuration and the
default sweep grid).

Recognized keys: the :class:`~lossgeom.params.ModelParams` fields
(n_examples, n_classes, n_weights, sigma_z, sigma_c, sigma_e, length_beta,
target_accuracy, seed, hyperplane_dim), the sweep block (sigma_z_min,
sigma_z_max, points, scale, gamma, sigma_z_ref, repeats, fixed_sigma_e),
output_dir and emit_svg.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .experiments import SweepSpec
from .params import ModelParams


class ConfigError(ValueError):
    """Configuration file rejected; message carries path and line number."""


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams = field(default_factory=ModelParams)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    output_dir: str = "out"
    emit_svg: bool = False


# every scalar field of the three records is a key, typed by its annotation
_KEY_TYPES = {
    name: kind
    for cls in (ModelParams, SweepSpec, RunConfig)
    for name, kind in get_type_hints(cls).items()
    if kind in (int, float, bool, str)
}

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}
_NOUNS = {int: "an integer", float: "a real number", bool: "a boolean"}


def _parse_value(key: str, raw: str, where: str) -> object:
    kind = _KEY_TYPES[key]
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: key '{key}' needs {_NOUNS[kind]}, got {raw!r}")


def parse_config(path: str) -> RunConfig:
    """Parse and validate a config file; empty file means all defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    seen: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{where}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"{where}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"{where}: duplicate key '{key}'")
        if not raw:
            raise ConfigError(f"{where}: key '{key}' has no value")
        seen[key] = _parse_value(key, raw, where)

    def keys_of(cls) -> dict[str, object]:
        return {f.name: seen[f.name] for f in fields(cls) if f.name in seen}

    try:
        params = ModelParams(**keys_of(ModelParams))
        sweep = SweepSpec(**keys_of(SweepSpec))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return RunConfig(params=params, sweep=sweep, **keys_of(RunConfig))
