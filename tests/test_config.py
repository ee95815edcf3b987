"""Configuration parsing: strictness, round trips, seed derivation."""

import dataclasses
import json
import math
import re
import types
import typing

import pytest

from eegdrive import preprocess, splitting, synth
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
from eegdrive.models import trainer
from eegdrive.session import CommandLabel
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
    """The key path of every float-typed field reachable from ``cls``."""
    paths = []
    for name, typ in typing.get_type_hints(cls).items():
        if typing.get_origin(typ) in (typing.Union, types.UnionType):
            (typ,) = [a for a in typing.get_args(typ) if a is not type(None)]
        if dataclasses.is_dataclass(typ):
            paths += _float_fields(typ, prefix + (name,))
        elif typ is float:
            paths.append(prefix + (name,))
    return paths


FLOAT_FIELDS = _float_fields()


def _doc_setting(path, value):
    """A config document that sets the field at ``path`` to ``value``."""
    leaf = value
    for key in reversed(path):
        leaf = {key: leaf}
    return leaf


NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400],
    ids=["NaN", "Infinity", "-Infinity", "1e400-integer"],
)


class TestNonFiniteFloats:
    def test_every_section_is_walked(self):
        assert ("synth", "duration_s") in FLOAT_FIELDS
        assert {p[0] for p in FLOAT_FIELDS} == {
            "label_rule", "filters", "split", "train", "synth"
        }

    @NON_FINITE
    @pytest.mark.parametrize("path", FLOAT_FIELDS, ids=".".join)
    def test_json_non_finite_is_a_config_error(self, path, value):
        # json.dumps writes NaN, Infinity and -Infinity, which json.loads reads
        doc = json.loads(json.dumps(_doc_setting(path, value)))
        dotted = re.escape("config." + ".".join(path))
        with pytest.raises(ConfigError, match=dotted + ": expected a finite"):
            config_from_dict(doc)

    @NON_FINITE
    def test_json_non_finite_in_a_tuple_is_a_config_error(self, value):
        # a schedule entry is a (length_s, class_code) pair inside a tuple
        doc = json.loads(json.dumps({"synth": {"schedule": [[4.0, 0], [value, 1]]}}))
        with pytest.raises(
            ConfigError, match=re.escape("config.synth.schedule[1][0]: expected a finite")
        ):
            config_from_dict(doc)

    def test_finite_values_still_parse(self):
        for path in FLOAT_FIELDS:
            default = RunConfig()
            for key in path:
                default = getattr(default, key)
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


def _const(module, name, default, rule):
    return pytest.param(module, name, default, rule, id=f"{module.__name__}.{name}")


class TestFixedConstants:
    """Values the benchmark holds fixed are module constants, not config.
    No config rule checks them any more, so each is held here to the default
    it had as a config value, which every workspace file depends on, and to
    the rule that value was validated by."""

    @pytest.mark.parametrize("module, name, default, rule", [
        _const(preprocess, "DEVIATION_Z", 5.0, lambda v: v > 0),
        _const(preprocess, "CORRELATION_MIN", 0.4, lambda v: 0 < v < 1),
        _const(preprocess, "CORRELATION_WINDOW_S", 1.0, lambda v: v > 0),
        _const(trainer, "ADAM_BETA1", 0.9, lambda v: 0 <= v < 1),
        _const(trainer, "ADAM_BETA2", 0.999, lambda v: 0 <= v < 1),
        _const(trainer, "ADAM_EPS", 1e-8, lambda v: v > 0),
        _const(splitting, "TRAIN_FRACTION", 0.7, lambda v: 0 < v < 1),
        _const(synth, "N_CHANNELS", 16, lambda v: v >= 4),  # cleaning needs context
        _const(synth, "CLASS_FREQS_HZ", (30.0, 15.0, 10.0, 20.0, 5.0),
               lambda v: len(v) == len(CommandLabel) and min(v) > 0),
        _const(synth, "SEGMENT_LEN_S", 4.0, lambda v: v > 0),
        _const(synth, "JOYSTICK_RATE_HZ", 10.0, lambda v: v > 0),
        _const(synth, "JOYSTICK_MAGNITUDE", 0.8, lambda v: 0 < v <= 1),
        _const(synth, "TONE_RMS_UV", 10.0, lambda v: v > 0),
    ])
    def test_constant_keeps_its_default_and_rule(self, module, name, default, rule):
        value = getattr(module, name)
        assert value == default and type(value) is type(default)
        assert rule(value)

    def test_print_defaults_lists_28_values(self, capsys):
        assert main(["config", "--print-defaults"]) == 0
        doc = json.loads(capsys.readouterr().out)

        def leaves(node):
            if isinstance(node, dict):
                return sum(leaves(v) for v in node.values())
            return 1

        assert leaves(doc) == 28
        assert "bad_channels" not in doc


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
