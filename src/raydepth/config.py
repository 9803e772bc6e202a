"""Run configuration, and the one JSON loader and writer for config and
scene files, both driven by the dataclass type hints.  Unknown or missing
keys and values that do not fit their hint fail with the key path.
An empty JSON object yields the defaults (16 planes over [1e-3, 10] m,
downscale 4, fused mode, refinement on).

What a run may set is the model's width and mode, the plane range, the
optimizer, the paths, the seed and the sparsity.  The rest is fixed: the
loss is L1 on the output depth plus cross entropy on the plane
distribution, refinement runs `regression.REFINE_ITERATIONS` steps over
`regression.REFINE_CHANNELS` channels, and metrics count pixels within
the plane range.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError, ParameterError


@dataclass
class PlanesConfig:
    count: int = 16
    d_min: float = 1e-3
    d_max: float = 10.0


@dataclass
class OptimizerConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    milestones: tuple[int, ...] = ()
    epochs: int = 30


@dataclass
class PathsConfig:
    sequence_dir: str | None = None
    out_dir: str | None = None
    checkpoint: str | None = None


@dataclass
class RunConfig:
    planes: PlanesConfig = field(default_factory=PlanesConfig)
    channels: int = 16
    image_channels: tuple[int, ...] = (4, 4, 4)
    downscale: int = 4
    mode: str = "fused"
    refinement: bool = True
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    seed: int = 0
    sparse_count: int | None = 300
    sparse_fraction: float | None = None


def _fits(hint, value):
    """Whether a JSON value fits a scalar or tuple hint; an int fits float, a
    bool neither, and JSON's NaN and Infinity fit no number."""
    if hint in (int, float):
        if isinstance(value, float):
            return hint is float and math.isfinite(value)
        return isinstance(value, int) and not isinstance(value, bool)
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if args[-1] is Ellipsis and isinstance(value, list):
            args = args[:1] * len(value)
        return isinstance(value, list) and len(value) == len(args) and all(map(_fits, args, value))
    return get_origin(hint) is None and isinstance(value, hint)


def _echo(value, limit=80):
    """A JSON value as text for a message, cut to `limit` characters."""
    text = json.dumps(value)
    return text if len(text) <= limit else text[:limit] + "…"


def _kinds(hint):
    """A union of two or more dataclasses by `kind`, the lower-cased class name."""
    classes = [a for a in get_args(hint) if is_dataclass(a)] if get_origin(hint) is UnionType else []
    return {c.__name__.lower(): c for c in classes} if len(classes) > 1 else {}


def _load_fields(cls, raw, path):
    prefix = f"{path}." if path else ""
    hints = get_type_hints(cls)
    for key in raw:
        if key not in hints:
            raise ConfigError(f"unknown key {prefix + key!r}")
    for f in fields(cls):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {prefix + f.name!r}")
    return {key: load_value(hints[key], value, prefix + key) for key, value in raw.items()}


def load_value(hint, value, path=""):
    """A parsed JSON value as the type `hint`, or a `ConfigError` naming its
    key path.  Objects become dataclasses (unknown or missing keys and the
    class's own checks fail), and a tagged union's `kind` picks the class."""
    where = f"key {path!r}" if path else "the root"
    alternatives = get_args(hint) if get_origin(hint) is UnionType else (hint,)
    kinds = _kinds(hint)
    if kinds and isinstance(value, dict):
        value = dict(value)
        kind = value.pop("kind", None)
        if kind not in kinds:
            raise ConfigError(f"key {path + '.kind'!r} must be one of {sorted(kinds)}, got {_echo(kind)}")
        alternatives = (kinds[kind],)
    for alt in alternatives:
        if is_dataclass(alt) and isinstance(value, dict):
            kwargs = _load_fields(alt, value, path)
            try:
                return alt(**kwargs)
            except ParameterError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        if get_origin(alt) is list and isinstance(value, list):
            return [load_value(get_args(alt)[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
        if _fits(alt, value):
            return tuple(value) if isinstance(value, list) else value
    expected = hint.__name__ if isinstance(hint, type) else hint
    raise ConfigError(f"{where} must be {expected}, got {_echo(value)}")


def dump_value(value, hint=None):
    """The inverse of `load_value`: dataclasses as objects (tagged with
    their `kind` in a tagged union), tuples and arrays as lists."""
    if is_dataclass(value):
        hints = get_type_hints(type(value))
        raw = {f.name: dump_value(getattr(value, f.name), hints[f.name]) for f in fields(value)}
        tags = {cls: kind for kind, cls in _kinds(hint).items()}
        return {"kind": tags[type(value)], **raw} if tags else raw
    if isinstance(value, (list, tuple)):
        return [dump_value(v, get_args(hint)[0] if get_origin(hint) is list else None) for v in value]
    return value.tolist() if hasattr(value, "tolist") else value


def read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def write_json(path, raw):
    with open(path, "w") as f:
        json.dump(raw, f, indent=2)
        f.write("\n")


def validate_config(cfg):
    if cfg.planes.count < 2:
        raise ConfigError(f"planes.count must be >= 2, got {cfg.planes.count}")
    if not (0 < cfg.planes.d_min < cfg.planes.d_max):
        raise ConfigError("planes must satisfy 0 < d_min < d_max")
    if cfg.downscale not in (1, 2, 4):
        raise ConfigError(f"downscale must be 1, 2, or 4, got {cfg.downscale}")
    if cfg.mode not in ("fused", "single_view"):
        raise ConfigError(f"mode must be 'fused' or 'single_view', got {cfg.mode!r}")
    if cfg.channels < 2 or cfg.channels % 2:
        raise ConfigError("channels must be even (depth positional encoding), got "
                          f"{cfg.channels}")
    if len(cfg.image_channels) != 3 or any(c < 1 for c in cfg.image_channels):
        raise ConfigError("image_channels must be three positive widths")
    if (cfg.sparse_count is None) == (cfg.sparse_fraction is None):
        raise ConfigError("exactly one of sparse_count / sparse_fraction must be set")
    if cfg.sparse_count is not None and cfg.sparse_count < 1:
        raise ConfigError(f"sparse_count must be >= 1, got {cfg.sparse_count}")
    if cfg.sparse_fraction is not None and not (0 < cfg.sparse_fraction <= 1):
        raise ConfigError("sparse_fraction must lie in (0, 1]")
    opt = cfg.optimizer
    if opt.epochs < 0:
        raise ConfigError(f"optimizer.epochs must be >= 0, got {opt.epochs}")
    if not 0 < opt.learning_rate < math.inf:
        raise ConfigError(f"optimizer.learning_rate must be finite and positive, got {opt.learning_rate}")
    if not 0 <= opt.weight_decay < math.inf:
        raise ConfigError(f"optimizer.weight_decay must be finite and >= 0, got {opt.weight_decay}")
    for name in ("sequence_dir", "checkpoint"):
        path = getattr(cfg.paths, name)
        if path is not None and not os.path.exists(path):
            raise ConfigError(f"paths.{name} does not exist: {path}")
    return cfg


def config_from_dict(raw):
    return validate_config(load_value(RunConfig, raw))


def parse_config(path):
    return config_from_dict(read_json(path))


def save_config(path, cfg):
    write_json(path, dump_value(cfg))
