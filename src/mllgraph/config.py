"""Config validity, one owner: `check_fields`, run by the `__post_init__` of every config dataclass.

Each config dataclass is a `Config`. `config_from_dict` builds one from its
JSON form, so a run config, a checkpoint header and a Python caller meet
the same checks.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def rule(test, text: str) -> dict:
    """Field metadata: the value must pass `test`, or the error reads '<field> <text>'."""
    return {"rule": (test, text)}


POSITIVE = rule(lambda v: v > 0, "must be positive")
NONNEGATIVE = rule(lambda v: v >= 0, "must be nonnegative")


def within(low, high, ends: str = "[]") -> dict:
    """low <= value <= high; `ends` as in interval notation, "(" or ")" leaving that end out."""
    def test(v):
        return (low < v if ends[0] == "(" else low <= v) and (v < high if ends[1] == ")" else v <= high)
    return rule(test, f"must lie within {ends[0]}{low}, {high}{ends[1]}")


def one_of(*choices: str) -> dict:
    return rule(lambda v: isinstance(v, str) and v in choices, f"must be one of {choices}")


def check_fields(obj) -> None:
    """Check each field of the config dataclass `obj` by its annotation, then by its metadata's `rule`.

    `int` takes an int, not a bool; `float` an int or a finite float, kept
    as given and never coerced; `tuple[int, ...]` a list or tuple of ints,
    stored as a tuple; a nested config section an instance of its class.
    """
    types = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        name, kind, value = f.name, types[f.name], getattr(obj, f.name)
        if dataclasses.is_dataclass(kind) and not isinstance(value, kind):
            raise ValueError(f"{name}: expected a {kind.__name__}, got {type(value).__name__}")
        if kind is int and not _is_int(value):
            raise ValueError(f"{name}: expected an integer, got {type(value).__name__}")
        if kind is float and not _is_number(value):
            raise ValueError(f"{name}: expected a number, got {type(value).__name__}")
        if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf, an int past float range
            raise ValueError(f"{name}: expected a finite number, got {json.dumps(value)[:40]}")
        if kind == tuple[int, ...]:
            if not (isinstance(value, (list, tuple)) and all(map(_is_int, value))):
                raise ValueError(f"{name}: expected a list of integers, got {json.dumps(value, default=repr)}")
            object.__setattr__(obj, name, tuple(value))
        if "rule" in f.metadata:
            test, text = f.metadata["rule"]
            if not test(value):
                raise ValueError(f"{name} {text}")


class Config:
    """Base of the config dataclasses: each is checked by `check_fields` once built."""

    def __post_init__(self):
        check_fields(self)


def config_from_dict(cls, data, where: str = ""):
    """Inverse of `dataclasses.asdict` for the config dataclasses; `cls` itself checks the values.

    Unknown keys are refused, a section must be an object, and a nested
    section's error starts with its dotted path `where`.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where or cls.__name__}: expected an object, got {type(data).__name__}")
    types = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(f"{where or cls.__name__}: unknown key {unknown[0]!r}")
    kwargs = {
        key: config_from_dict(types[key], value, f"{where}.{key}" if where else key)
        if dataclasses.is_dataclass(types[key]) else value
        for key, value in data.items()
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not where:
            raise
        raise ValueError(f"{where}.{exc}") from exc
