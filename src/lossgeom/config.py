"""Flat key=value run configuration.

Grammar: one ``key = value`` per line; blank lines and ``#`` comments are
skipped; inline ``# ...`` trails are allowed after the value. Reals accept
scientific notation, booleans accept true/false/yes/no/1/0. Unknown and
duplicate keys are errors (with line numbers), not warnings; missing keys
take the documented defaults (the reference model configuration and the
default sweep grid).

Recognized keys: the :class:`~lossgeom.params.ModelParams` fields
(n_examples, n_classes, n_weights, sigma_z, sigma_c, sigma_e, length_beta,
target_accuracy, seed, hyperplane_dim) and the
:class:`~lossgeom.experiments.SweepSpec` fields (sigma_z_min, sigma_z_max,
points, gamma, repeats, fixed_sigma_e). :func:`parse_config` returns the
two records as a pair, params first. The output directory is the CLI's
``--out``.
"""

from __future__ import annotations

import io
from dataclasses import fields
from typing import get_type_hints

from .experiments import SweepSpec
from .params import ModelParams


class ConfigError(ValueError):
    """Configuration file rejected; message carries path and line number."""


# every field of the two records is a key, typed by its annotation
_KEY_TYPES = get_type_hints(ModelParams) | get_type_hints(SweepSpec)

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


def parse_config(path: str) -> tuple[ModelParams, SweepSpec]:
    """Parse and validate a config file; empty file means all defaults."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text") from None

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
        return ModelParams(**keys_of(ModelParams)), SweepSpec(**keys_of(SweepSpec))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
