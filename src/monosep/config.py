"""Model, training and synthetic-data configuration, with the three
published presets plus a desk-scale "tiny" preset for tests."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .attention import _MODES
from .autodiff import _ACTIVATIONS
from .errors import ConfigError


@dataclass
class ModelConfig:
    preset: str = "tiny"
    n_blocks: int = 1  # R
    n_feat: int = 16  # N, encoder output dimension
    enc_kernel: int = 8  # K1; stride is always K1/2
    dw_kernel: int = 7  # K2, depthwise convolution kernel
    chunk_size: int = 8  # P, local attention chunk
    attn_dim: int = 8  # D, query/key dimension
    gate_phi: str = "sigmoid"
    n_speakers: int = 2  # C
    dropout_p: float = 0.1
    sample_rate: int = 8000
    attention_mode: str = "joint"
    single_gate: bool = False
    dense_uv: bool = False
    dense_qk: bool = False

    def validate(self) -> "ModelConfig":
        _check_types(self)
        _check_at_least(self, 1, "n_blocks", "n_feat", "enc_kernel",
                        "dw_kernel", "chunk_size", "attn_dim", "n_speakers",
                        "sample_rate")
        for name in ("n_feat", "enc_kernel", "attn_dim"):
            value = getattr(self, name)
            if value % 2:
                raise ConfigError(f"{name} must be even, got {value}")
        if self.dw_kernel % 2 == 0:
            raise ConfigError(f"dw_kernel must be odd, got {self.dw_kernel}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.attention_mode not in _MODES:
            raise ConfigError(f"unknown attention_mode {self.attention_mode!r}; "
                              f"expected one of {_MODES}")
        if self.gate_phi not in _ACTIVATIONS:
            raise ConfigError(f"unknown gate_phi {self.gate_phi!r}; "
                              f"expected one of {sorted(_ACTIVATIONS)}")
        return self


_PRESETS = {
    "S": dict(n_blocks=22, n_feat=256, enc_kernel=8, dw_kernel=31,
              chunk_size=256, attn_dim=128),
    "M": dict(n_blocks=25, n_feat=384, enc_kernel=16, dw_kernel=17,
              chunk_size=256, attn_dim=128),
    "L": dict(n_blocks=24, n_feat=512, enc_kernel=16, dw_kernel=17,
              chunk_size=256, attn_dim=128),
    "tiny": dict(n_blocks=1, n_feat=16, enc_kernel=8, dw_kernel=7,
                 chunk_size=8, attn_dim=8),
}

# published trainable-parameter totals, for informational count checks
PRESET_PARAM_TARGETS = {"S": 10.8e6, "M": 25.3e6, "L": 42.1e6}


def preset(name: str, **overrides) -> ModelConfig:
    try:
        base = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}"
        ) from None
    cfg = ModelConfig(preset=name, **base)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def preset_names() -> list[str]:
    return list(_PRESETS)


@dataclass
class TrainConfig:
    lr: float = 15e-5
    max_epochs: int = 200
    hold_epochs: int = 85  # epochs before the plateau schedule may cut lr
    lr_decay: float = 0.5
    patience: int = 2
    clip_norm: float = 5.0
    seed: int = 0
    max_steps: int = 0  # stop after this many optimizer steps; 0 = no cap

    def validate(self) -> "TrainConfig":
        _check_types(self)
        for name in ("lr", "clip_norm"):
            value = getattr(self, name)
            # NaN passes every comparison check: clip_norm=nan would turn
            # clipping off, since no norm is > nan
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    f"{name} must be positive and finite, got {value}")
        _check_at_least(self, 1, "max_epochs")
        # numpy seeds only take non-negative integers
        _check_at_least(self, 0, "hold_epochs", "max_steps", "seed",
                        "patience")
        if not 0.0 < self.lr_decay <= 1.0:
            # a factor outside (0, 1] would zero, grow or flip the rate
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        return self


@dataclass
class DataConfig:
    """The synthetic mixtures a run trains or scores on."""
    data_seed: int = 0
    data_count: int = 8  # mixtures
    data_samples: int = 4000  # samples per mixture

    def validate(self) -> "DataConfig":
        _check_types(self)
        _check_at_least(self, 1, "data_count", "data_samples")
        _check_at_least(self, 0, "data_seed")
        return self


def config_fields(cls) -> dict[str, type]:
    """Field name -> value type, for key=value config files and overrides.

    Every field carries a default, so the type is read off the default value.
    """
    return {f.name: type(f.default) for f in fields(cls)}


# what a field accepts, by the type of its default; a bool is an int to
# isinstance, so it is turned away from the numeric fields separately
_ACCEPTS = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def _check_types(cfg) -> None:
    for name, kind in config_fields(type(cfg)).items():
        value = getattr(cfg, name)
        if not isinstance(value, _ACCEPTS[kind]) or (
                kind is not bool and isinstance(value, bool)):
            raise ConfigError(
                f"{name} expects {kind.__name__}, got {value!r}")


def _check_at_least(cfg, minimum: int, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name)
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def coerce_value(cls, key: str, raw: str):
    kinds = config_fields(cls)
    if key not in kinds:
        raise ConfigError(
            f"unknown {cls.__name__} key {key!r}; expected one of {sorted(kinds)}"
        )
    kind = kinds[key]
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} expects true/false, got {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} expects {kind.__name__}, got {raw!r}") from exc
