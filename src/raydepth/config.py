"""Run configuration: dataclasses plus strict JSON loading.

Unknown keys, and values whose JSON type does not fit the field's type
hint, are rejected with their full key path so typos fail loudly.
An empty JSON object yields the defaults (16 planes over [1e-3, 10] m,
downscale 4, fused mode, refinement on).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, is_dataclass
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError


@dataclass
class PlanesConfig:
    count: int = 16
    d_min: float = 1e-3
    d_max: float = 10.0


@dataclass
class LossConfig:
    use_l1: bool = True
    use_ce: bool = True

    def enabled_terms(self):
        terms = []
        if self.use_l1:
            terms.append("l1")
        if self.use_ce:
            terms.append("ce")
        return terms


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
    scene: str | None = None


@dataclass
class RunConfig:
    planes: PlanesConfig = field(default_factory=PlanesConfig)
    channels: int = 16
    image_channels: tuple[int, ...] = (4, 4, 4)
    downscale: int = 4
    mode: str = "fused"
    refinement: bool = True
    refine_iterations: int = 6
    refine_channels: int = 8
    mask_invalid_previous: bool = False
    temporal_grad: bool = False
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    seed: int = 0
    sparse_count: int | None = 300
    sparse_fraction: float | None = None
    eval_range: tuple[float, ...] | None = None


def _accepts(hint, value):
    """Whether a JSON value fits one type-hint alternative.  An int fits a
    float field; a bool fits neither an int nor a float field."""
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_accepts(get_args(hint)[0], v) for v in value)
    return isinstance(value, hint)


def _type_name(hint):
    if hint is NoneType:
        return "null"
    if get_origin(hint) is tuple:
        return f"a list of {get_args(hint)[0].__name__}"
    return hint.__name__


def _fill(cls, raw, prefix):
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in raw.items():
        path = f"{prefix}{key}"
        if key not in hints:
            raise ConfigError(f"unknown config key {path!r}")
        hint = hints[key]
        if is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path!r} must be an object")
            kwargs[key] = _fill(hint, value, path + ".")
            continue
        allowed = get_args(hint) if get_origin(hint) is UnionType else (hint,)
        if not any(_accepts(h, value) for h in allowed):
            names = " or ".join(_type_name(h) for h in allowed)
            raise ConfigError(f"config key {path!r} must be {names}, got {json.dumps(value)}")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


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
    if cfg.refine_iterations < 0:
        raise ConfigError("refine_iterations must be >= 0")
    if cfg.refine_channels < 1:
        raise ConfigError(f"refine_channels must be >= 1, got {cfg.refine_channels}")
    if not cfg.loss.enabled_terms():
        raise ConfigError("at least one loss term must be enabled")
    if (cfg.sparse_count is None) == (cfg.sparse_fraction is None):
        raise ConfigError("exactly one of sparse_count / sparse_fraction must be set")
    if cfg.sparse_count is not None and cfg.sparse_count < 1:
        raise ConfigError(f"sparse_count must be >= 1, got {cfg.sparse_count}")
    if cfg.sparse_fraction is not None and not (0 < cfg.sparse_fraction <= 1):
        raise ConfigError("sparse_fraction must lie in (0, 1]")
    if cfg.eval_range is not None:
        if len(cfg.eval_range) != 2 or not (cfg.eval_range[0] < cfg.eval_range[1]):
            raise ConfigError("eval_range must be [low, high] with low < high")
    opt = cfg.optimizer
    if opt.epochs < 0:
        raise ConfigError(f"optimizer.epochs must be >= 0, got {opt.epochs}")
    if not 0 < opt.learning_rate < math.inf:
        raise ConfigError(f"optimizer.learning_rate must be finite and positive, got {opt.learning_rate}")
    if not 0 <= opt.weight_decay < math.inf:
        raise ConfigError(f"optimizer.weight_decay must be finite and >= 0, got {opt.weight_decay}")
    for name in ("sequence_dir", "checkpoint", "scene"):
        path = getattr(cfg.paths, name)
        if path is not None and not os.path.exists(path):
            raise ConfigError(f"paths.{name} does not exist: {path}")
    return cfg


def config_from_dict(raw):
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config(_fill(RunConfig, raw, ""))


def parse_config(path):
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return config_from_dict(raw)


def save_config(path, cfg):
    with open(path, "w") as f:
        json.dump(asdict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")
