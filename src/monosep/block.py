"""Gated attention block: convolution-module paths, joint attention, and
triple elementwise gating around a residual connection.

The block maps (S, N) to (S, N). Two convolution modules expand the input
to gate and value sequences of width 2N and a third maps it to the shared
attention representation of width D; the three read the same input, so
they run as one ``ad.conv_stage`` that normalizes it once. Joint attention
produces the attended gate and value sequences from low-dimensional
queries/keys derived from the shared representation, and the gated product
is projected back to N and added to the input.

Under a tape the gating runs through ``ad.recompute``: its products and
activation are made again in backward from the four sequences they read,
which the attention's closures keep anyway, rather than kept from the
forward pass. Without a tape the block drops the four sequences once the
gating has read them, before the output projection runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
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


def _triple_gate(phi: str, gate_seq, value_seq, value_attn, gate_attn):
    """phi(gate * attended value) * (attended gate * value)."""
    gated = ad.mul(gate_attn, value_seq)
    return ad.mul(ad.activation(phi, ad.mul(gate_seq, value_attn)), gated)


def block_forward(
    x, p: BlockParams, rng: np.random.Generator | None = None,
) -> ad.Tensor:
    x = ad.as_tensor(x)
    gate_seq, value_seq, shared = cm.conv_modules_forward(
        x, (p.to_gate, p.to_value, p.attn.shared), rng)
    value_attn, gate_attn = joint_attention(shared, value_seq, gate_seq,
                                            p.attn)
    del shared
    if p.single_gate:
        gated = ad.mul(gate_attn, value_seq)
    else:
        gated = ad.recompute(functools.partial(_triple_gate, p.gate_phi),
                             gate_seq, value_seq, value_attn, gate_attn)
    # nothing later reads the four sequences: without a tape they are freed
    # here, before the output projection runs
    del gate_seq, value_seq, value_attn, gate_attn
    return ad.add(x, cm.conv_module_forward(gated, p.out_proj, rng))
