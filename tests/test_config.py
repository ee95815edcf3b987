"""Configuration parsing: strictness, round trips, seed derivation."""

import dataclasses
import json
import math
import re
import types
import typing

import pytest

from eegdrive.cli import main
from eegdrive.config import (
    RunConfig,
    config_from_dict,
    config_to_dict,
    default_config_json,
    derive_seed,
    load_config,
)
from eegdrive.errors import ConfigError
from eegdrive.synth import SynthConfig


class TestRoundTrip:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_empty_document_is_all_defaults(self):
        assert config_from_dict({}) == RunConfig()

    def test_default_json_parses_to_defaults(self):
        doc = json.loads(default_config_json())
        assert config_from_dict(doc) == RunConfig()

    def test_overrides_round_trip(self):
        cfg = config_from_dict(
            {
                "models": ["shallow"],
                "horizons_ms": [300, 1000],
                "seed": 7,
                "train": {"epochs": 20, "learning_rate": 0.01},
                "synth": {"duration_s": 60.0, "corrupt_channel": "C3"},
            }
        )
        assert cfg.models == ("shallow",)
        assert cfg.horizons_ms == (300, 1000)
        assert cfg.train.epochs == 20
        assert cfg.synth.corrupt_channel == "C3"
        # untouched sections keep their defaults
        assert cfg.split == RunConfig().split
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_load_config_none_is_defaults(self):
        assert load_config(None) == RunConfig()

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"seed": 3}')
        assert load_config(p).seed == 3

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_load_config_invalid_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    @pytest.mark.parametrize("raw, rule", [
        (b'{"seed": 3, "synth": {"session_id": "s\xe9"}}', "c.json:1: not UTF-8"),
        (b"[" * 200_000, "c.json: invalid JSON: maximum recursion depth exceeded"),
    ], ids=["not-utf8", "nested-200000"])
    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys, raw, rule):
        p = tmp_path / "c.json"
        p.write_bytes(raw)
        with pytest.raises(ConfigError, match=re.escape(rule)):
            load_config(p)
        rc = main(["simulate", "--config", str(p), "--out", str(tmp_path / "ws")])
        assert rc == 2
        assert rule in capsys.readouterr().err


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*'epoch'"):
            config_from_dict({"epoch": 5})

    def test_unknown_nested_key_names_path(self):
        with pytest.raises(ConfigError, match="config.train"):
            config_from_dict({"train": {"momentum": 0.9}})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            config_from_dict({"seed": True})

    def test_string_is_not_a_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            config_from_dict({"synth": {"duration_s": "long"}})

    def test_int_accepted_for_float_field(self):
        cfg = config_from_dict({"synth": {"duration_s": 60}})
        assert cfg.synth.duration_s == 60.0
        assert isinstance(cfg.synth.duration_s, float)

    def test_null_only_where_optional(self):
        assert config_from_dict({"synth": {"corrupt_channel": None}})
        with pytest.raises(ConfigError, match="expected an integer"):
            config_from_dict({"seed": None})

    def test_scalar_where_object_expected(self):
        with pytest.raises(ConfigError, match="expected an object"):
            config_from_dict({"train": 5})

    def test_scalar_where_list_expected(self):
        with pytest.raises(ConfigError, match="expected a list"):
            config_from_dict({"horizons_ms": 300})

    def test_nested_validation_wrapped_as_config_error(self):
        with pytest.raises(ConfigError, match="config.train"):
            config_from_dict({"train": {"epochs": 0}})


def _float_fields(cls=RunConfig, prefix=()):
    """The key path of every float-typed field reachable from ``cls``; a
    tuple of floats is reached through its first entry."""
    paths = []
    for name, typ in typing.get_type_hints(cls).items():
        if typing.get_origin(typ) in (typing.Union, types.UnionType):
            (typ,) = [a for a in typing.get_args(typ) if a is not type(None)]
        if dataclasses.is_dataclass(typ):
            paths += _float_fields(typ, prefix + (name,))
        elif typ is float:
            paths.append(prefix + (name,))
        elif typing.get_origin(typ) is tuple and typing.get_args(typ)[0] is float:
            paths.append(prefix + (name, 0))
    return paths


FLOAT_FIELDS = _float_fields()


def _doc_setting(path, value):
    """A config document that sets the field at ``path`` to ``value``."""
    leaf = value
    if isinstance(path[-1], int):  # one entry of a tuple of floats
        default = RunConfig()
        for key in path[:-1]:
            default = getattr(default, key)
        leaf = [value] + list(default[1:])
        path = path[:-1]
    for key in reversed(path):
        leaf = {key: leaf}
    return leaf


def _dotted(path):
    return "config." + ".".join(map(str, path[:-1])) + (
        f"[{path[-1]}]" if isinstance(path[-1], int) else f".{path[-1]}"
    )


class TestNonFiniteFloats:
    def test_every_section_is_walked(self):
        assert ("synth", "duration_s") in FLOAT_FIELDS
        assert ("synth", "class_freqs_hz", 0) in FLOAT_FIELDS
        assert {p[0] for p in FLOAT_FIELDS} == {
            "label_rule", "filters", "bad_channels", "split", "train", "synth"
        }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["NaN", "Infinity", "-Infinity", "1e400-integer"])
    @pytest.mark.parametrize("path", FLOAT_FIELDS, ids=lambda p: ".".join(map(str, p)))
    def test_json_non_finite_is_a_config_error(self, path, value):
        # json.dumps writes NaN, Infinity and -Infinity, which json.loads reads
        doc = json.loads(json.dumps(_doc_setting(path, value)))
        with pytest.raises(ConfigError, match=re.escape(_dotted(path)) + ": expected a finite"):
            config_from_dict(doc)

    def test_finite_values_still_parse(self):
        for path in FLOAT_FIELDS:
            default = RunConfig()
            for key in path:
                default = default[key] if isinstance(key, int) else getattr(default, key)
            assert config_from_dict(_doc_setting(path, default)) == RunConfig()

    def test_python_built_config_may_hold_infinity(self):
        assert RunConfig(synth=SynthConfig(snr_db=math.inf)).synth.snr_db == math.inf


class TestRunConfigRules:
    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown model"):
            config_from_dict({"models": ["resnet"]})

    def test_duplicate_model(self):
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_dict({"models": ["linear", "linear"]})

    def test_empty_models(self):
        with pytest.raises(ConfigError, match="empty"):
            config_from_dict({"models": []})

    def test_horizons_must_come_from_the_benchmark_grid(self):
        with pytest.raises(ConfigError, match="not in"):
            config_from_dict({"horizons_ms": [300, 350]})

    def test_duplicate_horizon(self):
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_dict({"horizons_ms": [300, 300]})

    def test_empty_horizons(self):
        with pytest.raises(ConfigError, match="empty"):
            config_from_dict({"horizons_ms": []})

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="64-bit"):
            config_from_dict({"seed": -1})
        with pytest.raises(ConfigError, match="64-bit"):
            config_from_dict({"seed": 2**64})

    def test_n_sessions_positive(self):
        with pytest.raises(ConfigError, match="n_sessions"):
            config_from_dict({"n_sessions": 0})

    def test_window_leaves_the_shallow_net_a_pool(self):
        # 47 samples leave 35 conv frames, the default pool's length
        assert config_from_dict({"split": {"window_len": 47}}).split.window_len == 47
        with pytest.raises(ConfigError, match="split.window_len: window of 46 samples"):
            config_from_dict({"split": {"window_len": 46}})
        linear = config_from_dict({"models": ["linear"], "split": {"window_len": 1}})
        assert linear.split.window_len == 1


class TestDeriveSeed:
    def test_frozen_reference_value(self):
        # pinned: changing the derivation silently re-randomizes every run
        assert derive_seed(0, "session", 1) == 11_664_753_652_219_056_036

    def test_u64_range_and_determinism(self):
        for parts in [(0,), ("train", 3, 300), (2**63, "x")]:
            a = derive_seed(*parts)
            assert 0 <= a < 2**64
            assert a == derive_seed(*parts)

    def test_distinct_parts_distinct_seeds(self):
        seeds = {
            derive_seed(s, stage, h)
            for s in range(3)
            for stage in ("session", "train")
            for h in (0, 300, 1000)
        }
        assert len(seeds) == 18

    def test_type_sensitive(self):
        assert derive_seed(1) != derive_seed("1")
