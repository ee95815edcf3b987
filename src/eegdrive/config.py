"""Run configuration: one JSON document covering every pipeline stage.

Parsing is strict. Unknown keys are rejected rather than ignored, because a
silently dropped misspelling ("epochs" vs "epoch") would change benchmark
results without any visible error, and a float field must be finite. Every
field has a default, so `{}` is a valid document and `--print-defaults`
serves as the single reference for the whole configuration surface.

What the benchmark holds fixed is not configuration but a module constant
beside the code that reads it: the simulated rig and protocol
(``synth``), the bad-channel thresholds (``preprocess``), the train share
of the split (``splitting``) and Adam's constants (``models.trainer``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, DataError
from .ingest import decode_json, non_integers
from .labels import LabelRule
from .models.nets import KNOWN_MODELS, ShallowConvNet, ShallowConvNetSpec
from .models.trainer import TrainConfig
from .preprocess import FilterSpec
from .session import HORIZONS_MS
from .splitting import SplitConfig
from .synth import SynthConfig


@dataclass(frozen=True)
class RunConfig:
    models: tuple[str, ...] = KNOWN_MODELS
    horizons_ms: tuple[int, ...] = HORIZONS_MS
    seed: int = 0
    # sessions generated by the simulate stage / run-all
    n_sessions: int = 3
    label_rule: LabelRule = field(default_factory=LabelRule)
    filters: FilterSpec = field(default_factory=FilterSpec)
    split: SplitConfig = field(default_factory=SplitConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigError("models list is empty")
        for m in self.models:
            if m not in KNOWN_MODELS:
                raise ConfigError(f"unknown model {m!r}; known: {KNOWN_MODELS}")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("duplicate model names")
        if not self.horizons_ms:
            raise ConfigError("horizons_ms is empty")
        for h in self.horizons_ms:
            if h not in HORIZONS_MS:
                raise ConfigError(f"horizon {h} not in {HORIZONS_MS}")
        if len(set(self.horizons_ms)) != len(self.horizons_ms):
            raise ConfigError("duplicate horizons")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.n_sessions < 1:
            raise ConfigError("n_sessions must be >= 1")
        if ShallowConvNet.name in self.models:
            try:  # the net train builds over split's windows
                ShallowConvNetSpec().conv_len(self.split.window_len)
            except ValueError as exc:
                raise ConfigError(f"split.window_len: {exc}") from exc


_NoneType = type(None)


def _coerce(value, typ, path: str):
    """Coerce a JSON value to the annotated field type, strictly."""
    origin = typing.get_origin(typ)
    if origin is typing.Union or origin is types.UnionType:
        args = typing.get_args(typ)
        if value is None:
            if _NoneType in args:
                return None
            raise ConfigError(f"{path}: null is not allowed")
        inner = [a for a in args if a is not _NoneType]
        if len(inner) != 1:
            raise ConfigError(f"{path}: unsupported union type")
        return _coerce(value, inner[0], path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        args = typing.get_args(typ)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
        if len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} entries")
        return tuple(
            _coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args))
        )
    if dataclasses.is_dataclass(typ):
        return _build_dataclass(typ, value, path)
    if typ is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return value
    if typ is int:
        if non_integers([value]):
            raise ConfigError(f"{path}: expected an integer")
        return value
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        # JSON decodes NaN and infinities, and integers beyond float range
        if not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigError(f"{path}: expected a finite number, got {value}")
        return float(value)
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        return value
    raise ConfigError(f"{path}: unsupported config field type {typ!r}")


def _build_dataclass(cls, doc, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}; known: {sorted(known)}")
    kwargs = {}
    for name, value in doc.items():
        kwargs[name] = _coerce(value, hints[name], f"{path}.{name}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(doc: dict) -> RunConfig:
    return _build_dataclass(RunConfig, doc, "config")


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path: Path | None) -> RunConfig:
    """Config from a JSON file; None means all defaults."""
    if path is None:
        return RunConfig()
    try:
        doc = decode_json(Path(path))
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    return config_from_dict(doc)


def default_config_json() -> str:
    return json.dumps(config_to_dict(RunConfig()), indent=2, sort_keys=True)


def derive_seed(*parts) -> int:
    """Stable u64 sub-seed from heterogeneous content (ids, stage names).

    Hash-based so inserting a session or horizon never shifts the seeds of
    unrelated runs, which keeps stage-by-stage outputs byte-identical to
    run-all regardless of execution order.
    """
    payload = "\x1f".join(repr(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")
