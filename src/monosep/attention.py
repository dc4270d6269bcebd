"""Joint single-head attention: chunked quadratic local + linearized global.

Both branches read low-dimensional queries/keys derived from one shared
representation (a convolution module output), per-branch elementwise scale
and offset, and rotary position embedding. The local branch scores
non-overlapping chunks of size P with squared-ReLU attention; the global
branch is a bilinear product evaluated key-side first so no frames-by-frames
matrix is ever formed. The joint output is the elementwise sum of the two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .conv_module import ConvModuleParams, DenseParams, init_projection
from .errors import ConfigError

if TYPE_CHECKING:  # config imports this module for _MODES
    from .config import ModelConfig


@functools.lru_cache(maxsize=1)  # one (S, D, dtype) regime stays resident
def _rope_tables(n_pos: int, dim: int, base: float, dtype) -> tuple:
    half = dim // 2
    theta = float(base) ** (-2.0 * np.arange(half) / dim)
    angles = np.arange(n_pos)[:, None] * theta[None, :]
    tables = (np.cos(angles).astype(dtype), np.sin(angles).astype(dtype))
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def rope(x, base: float = 10000.0) -> ad.Tensor:
    """Rotate feature pairs (2j, 2j+1) of row m by angle m * base^(-2j/D)."""
    x = ad.as_tensor(x)
    if x.ndim != 2:
        raise ConfigError(f"rope expects (S, D), got shape {x.shape}")
    n_pos, dim = x.shape
    if dim % 2 != 0:
        raise ConfigError(f"rope needs an even feature dim, got {dim}")
    cos, sin = _rope_tables(n_pos, dim, base, x.dtype)
    even, odd = x.data[:, 0::2], x.data[:, 1::2]
    out = np.empty_like(x.data)
    out[:, 0::2] = even * cos - odd * sin
    out[:, 1::2] = even * sin + odd * cos

    def backward(g):
        ge, go = g[:, 0::2], g[:, 1::2]
        gx = np.empty_like(g)
        gx[:, 0::2] = ge * cos + go * sin  # rotate back by -angle
        gx[:, 1::2] = -ge * sin + go * cos
        ad.accumulate_grad(x, gx)

    return ad.make_op(out, [x], backward)


@dataclass
class ChunkPlan:
    frames: int  # true sequence length S
    size: int  # chunk length P
    count: int  # number of chunks H = ceil(S / P)
    pad: int  # H * P - S, always < P


def plan_chunks(frames: int, size: int) -> ChunkPlan:
    if size < 1:
        raise ConfigError(f"chunk size must be >= 1, got {size}")
    count = -(-frames // size)
    return ChunkPlan(frames=frames, size=size, count=count,
                     pad=count * size - frames)


@dataclass
class AttentionParams:
    shared: ConvModuleParams | DenseParams  # N -> D
    local_q_scale: ad.Tensor
    local_q_offset: ad.Tensor
    local_k_scale: ad.Tensor
    local_k_offset: ad.Tensor
    global_q_scale: ad.Tensor
    global_q_offset: ad.Tensor
    global_k_scale: ad.Tensor
    global_k_offset: ad.Tensor
    chunk_size: int
    mode: str  # one of _MODES


_MODES = ("joint", "local_only", "global_only")


def init_attention(
    store: ad.ParamStore, prefix: str, cfg: ModelConfig,
    rng: np.random.Generator,
) -> AttentionParams:
    shared = init_projection(store, f"{prefix}.shared", cfg.n_feat,
                             cfg.attn_dim, cfg, cfg.dense_qk, rng)

    def pair(name):
        return (
            store.add(f"{prefix}.{name}_scale", np.ones(cfg.attn_dim)),
            store.add(f"{prefix}.{name}_offset", np.zeros(cfg.attn_dim)),
        )

    lq, lqo = pair("local_q")
    lk, lko = pair("local_k")
    gq, gqo = pair("global_q")
    gk, gko = pair("global_k")
    return AttentionParams(
        shared=shared,
        local_q_scale=lq, local_q_offset=lqo,
        local_k_scale=lk, local_k_offset=lko,
        global_q_scale=gq, global_q_offset=gqo,
        global_k_scale=gk, global_k_offset=gko,
        chunk_size=cfg.chunk_size,
        mode=cfg.attention_mode,
    )


def _derive(shared, scale, offset):
    return rope(ad.add(ad.mul(shared, scale), offset))


def derive_qk(shared, p: AttentionParams):
    """Shared (S, D) -> (local q, local k, global q, global k), RoPE applied."""
    return (
        _derive(shared, p.local_q_scale, p.local_q_offset),
        _derive(shared, p.local_k_scale, p.local_k_offset),
        _derive(shared, p.global_q_scale, p.global_q_offset),
        _derive(shared, p.global_k_scale, p.global_k_offset),
    )


def global_attention(q, k, values, gates):
    """Linearized branch: out = q @ ((1/S) k^T x), key side contracted first.

    Cost O(S * D * G) and intermediates of size D x G; the frames-by-frames
    score matrix is never materialized.
    """
    q, k = ad.as_tensor(q), ad.as_tensor(k)
    beta = 1.0 / q.shape[0]
    k_t = ad.transpose(k)

    def branch(x):
        return ad.matmul(q, ad.mul(ad.matmul(k_t, x), beta))

    return branch(values), branch(gates)


def local_attention(q, k, values, gates, chunk_size: int):
    """Chunked quadratic branch with squared-ReLU scores, built once per
    chunk and shared by the value and gate paths."""
    q, k = ad.as_tensor(q), ad.as_tensor(k)
    frames, dim = q.shape
    plan = plan_chunks(frames, chunk_size)

    def chunked(x, width):
        x = ad.pad_axis_end(ad.as_tensor(x), 0, plan.pad)
        return ad.reshape(x, (plan.count, plan.size, width))

    q3 = chunked(q, dim)
    k3 = chunked(k, dim)
    gamma = 1.0 / chunk_size
    scores = ad.relu_squared(
        ad.mul(ad.matmul(q3, ad.permute(k3, (0, 2, 1))), gamma)
    )

    def branch(x):
        width = x.shape[1]
        out = ad.matmul(scores, chunked(x, width))
        out = ad.reshape(out, (plan.count * plan.size, width))
        return ad.narrow(out, 0, 0, frames)

    return branch(values), branch(gates)


def joint_attention(
    x, values, gates, p: AttentionParams, train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Block input (S, N) + value/gate sequences (S, G) -> attended pair.

    Returns (attended values, attended gates). Modes (``p.mode``): "joint"
    sums the local and global branch outputs elementwise; the *_only modes
    return a single branch for ablations.
    """
    shared = p.shared(x, train, rng)
    q_loc, k_loc, q_glob, k_glob = derive_qk(shared, p)
    if p.mode == "local_only":
        return local_attention(q_loc, k_loc, values, gates, p.chunk_size)
    if p.mode == "global_only":
        return global_attention(q_glob, k_glob, values, gates)
    lv, lg = local_attention(q_loc, k_loc, values, gates, p.chunk_size)
    gv, gg = global_attention(q_glob, k_glob, values, gates)
    return ad.add(lv, gv), ad.add(lg, gg)
