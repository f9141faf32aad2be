"""The one typed loader of every JSON config.

`config_from_dict` reads the synthetic spec, the world-model config, the
policy config, a bundle's settings, a world-model checkpoint's manifest
and a dataset's `manifest.json` into their dataclasses: unknown and
missing keys first, then JSON types, then the dataclass's own ranges.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing


class ConfigError(ValueError):
    """A JSON config with an unknown or missing key, or a bad value."""


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# JSON value test and description of each field type a config may declare.
# A float field also takes an integer and keeps it an integer, so
# `config.json` and `config_hash` hold every value as it was written.
_JSON_TYPES = {
    int: (_is_int, "an integer"),
    float: (
        lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max,
        "a finite number",
    ),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    int | None: (lambda v: v is None or _is_int(v), "an integer or null"),
    tuple[int, ...]: (
        lambda v: isinstance(v, list) and all(_is_int(h) and h >= 1 for h in v),
        "a list of integers >= 1",
    ),
}


def config_from_dict(cls, data, what):
    """Build the config dataclass `cls` from a JSON object `data`.

    Rejects unknown and missing keys, then checks each value's JSON type
    against the field's declared type, then calls `cls.validate()` for the
    ranges. Raises ConfigError with a message that starts with `what`.
    Values are not coerced; a JSON list becomes a tuple.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{what}: expected a JSON object, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"{what}: unknown keys: {', '.join(sorted(unknown))}")
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in data]
    if missing:
        raise ConfigError(f"{what}: missing keys: {', '.join(missing)}")
    types = typing.get_type_hints(cls)
    for key, value in data.items():
        ok, want = _JSON_TYPES[types[key]]
        if not ok(value):
            raise ConfigError(f"{what}: '{key}' must be {want}, got {value!r}")
    config = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    return config


def read_json_object(path):
    """The JSON object in file `path`; ConfigError names the file otherwise."""
    try:
        with open(path, "rb") as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data
