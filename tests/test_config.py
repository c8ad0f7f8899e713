"""Config validity: the Python constructors and the JSON path refuse the same values."""

import dataclasses
import json
import math
import typing

import pytest

import mllgraph
from mllgraph.config import Config, config_from_dict

CONFIG_CLASSES = sorted(Config.__subclasses__(), key=lambda c: c.__name__)
# fields that carry no rule of their own, each with why
RULELESS = {
    ("SyntheticConfig", "structure_profile"): "an (sp_count, as_count) array or None: checked against the counts",
    ("SyntheticConfig", "background_profile"): "an (as_count,) array or None: checked against the counts",
}
# each annotation's wrong values, none of which a field of that type takes
WRONG_VALUES = {
    float: (math.nan, math.inf, -math.inf, 10 ** 400, True, "0.5"),
    int: (True, 2.5, "3"),
    tuple[int, ...]: ([8.7, 16], [8, True], 16),
}


def _typed_fields(cls):
    types = typing.get_type_hints(cls)
    return [(f.name, types[f.name]) for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_constructor_refuses_mistyped_and_non_finite_values(cls):
    for name, kind in _typed_fields(cls):
        wrong = ({"alpha": 1},) if dataclasses.is_dataclass(kind) else WRONG_VALUES.get(kind, ())
        for value in wrong:
            with pytest.raises(ValueError, match=f"^{name}: expected "):
                cls(**{name: value})
            if dataclasses.is_dataclass(kind):
                continue
            # the JSON path refuses it too, a nested section's with the section's name in front
            with pytest.raises(ValueError, match=f"^{name}: expected "):
                config_from_dict(cls, {name: value})
            for section, section_kind in _typed_fields(mllgraph.TrainConfig):
                if section_kind is cls:
                    with pytest.raises(ValueError, match=rf"^{section}\.{name}: expected "):
                        config_from_dict(mllgraph.TrainConfig, {section: {name: value}})


def _with_integer_floats(cls):
    """`cls` with a JSON integer (1, or 0 where 1 breaks its rule) in every float field, sections included."""
    cfg = cls()
    for name, kind in _typed_fields(cls):
        if dataclasses.is_dataclass(kind):
            cfg = dataclasses.replace(cfg, **{name: _with_integer_floats(kind)})
        elif kind is float:
            for value in (1, 0):
                try:
                    cfg = dataclasses.replace(cfg, **{name: value})
                    break
                except ValueError:
                    continue
            assert type(getattr(cfg, name)) is int, (cls.__name__, name)
    return cfg


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_json_round_trip_keeps_every_value_as_given(cls):
    for cfg in (cls(), _with_integer_floats(cls)):
        back = config_from_dict(cls, json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert back == cfg
        assert dataclasses.asdict(back) == dataclasses.asdict(cfg)
        for f in dataclasses.fields(cls):
            assert type(getattr(back, f.name)) is type(getattr(cfg, f.name)), (cls.__name__, f.name)


def test_every_field_carries_a_rule():
    assert [c.__name__ for c in CONFIG_CLASSES] == [
        "AdjacencyConfig", "EncoderConfig", "GloveConfig", "LossConfig", "SyntheticConfig",
        "TrainConfig", "WeightingConfig",
    ]
    ruleless = {
        (cls.__name__, name)
        for cls in CONFIG_CLASSES
        for (name, kind), f in zip(_typed_fields(cls), dataclasses.fields(cls))
        if "rule" not in f.metadata and not dataclasses.is_dataclass(kind)
    }
    assert ruleless == set(RULELESS)
