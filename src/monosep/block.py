"""Gated attention block: convolution-module paths, joint attention, and
triple elementwise gating around a residual connection.

The block maps (S, N) to (S, N). Two convolution modules expand the input
to gate and value sequences of width 2N, joint attention produces their
attended counterparts from low-dimensional queries/keys, and the gated
product is projected back to N and added to the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
# called through the module, so a rebound conv_module_forward is seen
from . import conv_module as cm
from .attention import AttentionParams, init_attention, joint_attention
from .config import ModelConfig
from .conv_module import ConvModuleParams, init_conv_module


@dataclass
class BlockParams:
    to_gate: ConvModuleParams  # N -> 2N
    to_value: ConvModuleParams  # N -> 2N
    attn: AttentionParams
    out_proj: ConvModuleParams  # 2N -> N
    single_gate: bool  # drop the phi(gate * attended-value) factor
    gate_phi: str


def init_block(
    store: ad.ParamStore, prefix: str, cfg: ModelConfig,
    rng: np.random.Generator,
) -> BlockParams:
    n_feat, wide = cfg.n_feat, 2 * cfg.n_feat
    uv_kernel = None if cfg.dense_uv else cfg.dw_kernel
    return BlockParams(
        to_gate=init_conv_module(store, f"{prefix}.gate", n_feat, wide,
                                 uv_kernel, cfg.dropout_p, rng),
        to_value=init_conv_module(store, f"{prefix}.value", n_feat, wide,
                                  uv_kernel, cfg.dropout_p, rng),
        attn=init_attention(store, f"{prefix}.attn", cfg, rng),
        out_proj=init_conv_module(store, f"{prefix}.out", wide, n_feat,
                                  cfg.dw_kernel, cfg.dropout_p, rng),
        single_gate=cfg.single_gate,
        gate_phi=cfg.gate_phi,
    )


def block_forward(
    x, p: BlockParams, rng: np.random.Generator | None = None,
) -> ad.Tensor:
    x = ad.as_tensor(x)
    gate_seq = cm.conv_module_forward(x, p.to_gate, rng)
    value_seq = cm.conv_module_forward(x, p.to_value, rng)
    value_attn, gate_attn = joint_attention(x, value_seq, gate_seq, p.attn, rng)
    gated = ad.mul(gate_attn, value_seq)
    if not p.single_gate:
        gated = ad.mul(
            ad.activation(p.gate_phi, ad.mul(gate_seq, value_attn)), gated
        )
    return ad.add(x, cm.conv_module_forward(gated, p.out_proj, rng))
