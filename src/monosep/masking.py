"""Masking network: normalization + positional encoding, input projection,
a stack of gated attention blocks, and the mask head (ReLU, expansion to
speakers, gated linear unit, output projection, ReLU)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .block import BlockParams, block_forward, init_block
from .config import ModelConfig
from .errors import ConfigError


def positional_encoding(n_pos: int, dim: int) -> np.ndarray:
    """Absolute sinusoidal encodings: pe[m, 2j] = sin(m / 10000^(2j/dim)),
    pe[m, 2j+1] = cos of the same angle."""
    if dim % 2 != 0:
        raise ConfigError(f"positional encoding needs an even dim, got {dim}")
    inv_freq = 10000.0 ** (-np.arange(0, dim, 2) / dim)
    angles = np.arange(n_pos)[:, None] * inv_freq[None, :]
    pe = np.empty((n_pos, dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


@dataclass
class MaskingNetParams:
    norm_gain: ad.Tensor  # (N,)
    norm_bias: ad.Tensor
    in_weight: ad.Tensor  # (N, N) input pointwise projection
    in_bias: ad.Tensor
    blocks: list[BlockParams]
    expand_weight: ad.Tensor  # (C*N, N)
    expand_bias: ad.Tensor
    glu_value_weight: ad.Tensor  # (C*N, C*N)
    glu_value_bias: ad.Tensor
    glu_gate_weight: ad.Tensor
    glu_gate_bias: ad.Tensor
    out_weight: ad.Tensor  # (C*N, C*N)
    out_bias: ad.Tensor
    n_speakers: int


def _linear_params(store, prefix, n_in, n_out, rng):
    bound = 1.0 / math.sqrt(n_in)
    return (
        store.add(f"{prefix}_w", rng.uniform(-bound, bound, (n_out, n_in))),
        store.add(f"{prefix}_b", np.zeros(n_out)),
    )


def init_masking_net(
    store: ad.ParamStore, prefix: str, cfg: ModelConfig,
    rng: np.random.Generator,
) -> MaskingNetParams:
    n = cfg.n_feat
    wide = cfg.n_speakers * n
    in_w, in_b = _linear_params(store, f"{prefix}.in", n, n, rng)
    blocks = [init_block(store, f"{prefix}.block{i}", cfg, rng)
              for i in range(cfg.n_blocks)]
    expand_w, expand_b = _linear_params(store, f"{prefix}.expand", n, wide, rng)
    glu_v_w, glu_v_b = _linear_params(store, f"{prefix}.glu_value", wide, wide, rng)
    glu_g_w, glu_g_b = _linear_params(store, f"{prefix}.glu_gate", wide, wide, rng)
    out_w, out_b = _linear_params(store, f"{prefix}.out", wide, wide, rng)
    return MaskingNetParams(
        norm_gain=store.add(f"{prefix}.norm_g", np.ones(n)),
        norm_bias=store.add(f"{prefix}.norm_b", np.zeros(n)),
        in_weight=in_w, in_bias=in_b,
        blocks=blocks,
        expand_weight=expand_w, expand_bias=expand_b,
        glu_value_weight=glu_v_w, glu_value_bias=glu_v_b,
        glu_gate_weight=glu_g_w, glu_gate_bias=glu_g_b,
        out_weight=out_w, out_bias=out_b,
        n_speakers=cfg.n_speakers,
    )


def masking_net_forward(
    features, p: MaskingNetParams, train: bool = False,
    rng: np.random.Generator | None = None,
) -> ad.Tensor:
    """Encoded features (S, N) -> non-negative masks (S, C, N).

    The speaker axis of the mask head splits channel c*N+n as (speaker c,
    feature n); the decode path relies on this order.
    """
    features = ad.as_tensor(features)
    if features.ndim != 2:
        raise ConfigError(
            f"masking net expects features (S, N), got shape {features.shape}"
        )
    n_frames, n_feat = features.shape
    pe = positional_encoding(n_frames, n_feat).astype(features.dtype)
    x = ad.add(ad.layer_norm(features, p.norm_gain, p.norm_bias),
               ad.constant(pe))
    x = ad.linear(x, p.in_weight, p.in_bias)
    for bp in p.blocks:
        x = block_forward(x, bp, train, rng)
    x = ad.relu(x)
    x = ad.linear(x, p.expand_weight, p.expand_bias)  # (S, C*N)
    x = ad.mul(
        ad.linear(x, p.glu_value_weight, p.glu_value_bias),
        ad.sigmoid(ad.linear(x, p.glu_gate_weight, p.glu_gate_bias)),
    )
    x = ad.relu(ad.linear(x, p.out_weight, p.out_bias))
    return ad.reshape(x, (n_frames, p.n_speakers, n_feat))
