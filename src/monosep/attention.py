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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .conv_module import ConvModuleParams, init_conv_module
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
        return (gx,)

    return ad.make_op(out, [x], backward)


@dataclass
class AttentionParams:
    shared: ConvModuleParams  # N -> D
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
    shared = init_conv_module(store, f"{prefix}.shared", cfg.n_feat,
                              cfg.attn_dim,
                              None if cfg.dense_qk else cfg.dw_kernel,
                              cfg.dropout_p, rng)

    def pair(name):
        return (
            store.param(f"{prefix}.{name}_scale", (cfg.attn_dim,), np.ones),
            store.param(f"{prefix}.{name}_offset", (cfg.attn_dim,), np.zeros),
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


def _chunk_scores(q3, k3, gamma: float) -> np.ndarray:
    """relu(q k^T * gamma) for a batch of chunks: q3, k3 (n, m, D) ->
    (n, m, m). Its square is the chunks' attention weights."""
    s = np.matmul(q3, k3.transpose(0, 2, 1))
    s *= gamma
    return np.maximum(s, 0, out=s)


def local_attention(q, k, values, gates, chunk_size: int):
    """Chunked quadratic branch with squared-ReLU scores, built once per
    chunk and shared by the value and gate paths.

    One primitive with two outputs, (attended values, attended gates). The
    whole chunks are one batched GEMM, a ragged last chunk its own, so no
    zero-padded copy of q, k, values or gates is made; only the chunks'
    positive scores outlive the forward pass. The backward closure runs
    once, on both outputs' gradients, and takes an output without one as
    zero.
    """
    if chunk_size < 1:
        raise ConfigError(f"chunk size must be >= 1, got {chunk_size}")
    q, k, values, gates = (ad.as_tensor(t) for t in (q, k, values, gates))
    frames = q.shape[0]
    whole = frames - frames % chunk_size
    # (first frame, end frame, chunk length) of the whole chunks and of a
    # ragged last chunk
    parts = [(0, whole, chunk_size)] if whole else []
    if whole < frames:
        parts.append((whole, frames, frames - whole))

    def chunks(a: np.ndarray, lo: int, hi: int, m: int) -> np.ndarray:
        return a[lo:hi].reshape(-1, m, a.shape[1])

    def attend(weights, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Each part's (n, m, m) weights, or their transposes, times its
        frames of x (S, W), written into one (S, W) array."""
        out = np.empty(x.shape, dtype=np.result_type(*weights, x))
        for w, part in zip(weights, parts):
            np.matmul(w.transpose(0, 2, 1) if transpose else w,
                      chunks(x, *part), out=chunks(out, *part))
        return out

    gamma = 1.0 / chunk_size
    pos = [_chunk_scores(chunks(q.data, *part), chunks(k.data, *part), gamma)
           for part in parts]
    weights = [p * p for p in pos]
    out_v, out_g = attend(weights, values.data), attend(weights, gates.data)
    inputs = (q, k, values, gates)
    rq, rk, rv, rg = (t.requires_grad for t in inputs)
    qv, kv, vv, gv = q.data, k.data, values.data, gates.data

    def backward(grads):
        weights = [p * p for p in pos]
        g_values, g_gates = (
            attend(weights, g, transpose=True) if g is not None and r else None
            for g, r in zip(grads, (rv, rg)))
        # d(weights) is the sum over outputs of g x^T per chunk; through
        # relu(s)^2 and s = gamma q k^T, d(q k^T) = 2 gamma pos d(weights)
        paths = [(x, g) for x, g in zip((vv, gv), grads) if g is not None]
        dscores = []
        for p, part in zip(pos, parts):
            d = sum(np.matmul(chunks(g, *part),
                              chunks(x, *part).transpose(0, 2, 1))
                    for x, g in paths)
            d *= p
            d *= 2.0 * gamma
            dscores.append(d)
        return (attend(dscores, kv) if rq else None,
                attend(dscores, qv, transpose=True) if rk else None,
                g_values, g_gates)

    return ad.make_op((out_v, out_g), inputs, backward)


def joint_attention(
    x, values, gates, p: AttentionParams,
    rng: np.random.Generator | None = None,
):
    """Block input (S, N) + value/gate sequences (S, G) -> attended pair.

    Returns (attended values, attended gates). Modes (``p.mode``): "joint"
    sums the local and global branch outputs elementwise; the *_only modes
    return a single branch for ablations.
    """
    q_loc, k_loc, q_glob, k_glob = derive_qk(p.shared(x, rng), p)
    if p.mode == "local_only":
        return local_attention(q_loc, k_loc, values, gates, p.chunk_size)
    if p.mode == "global_only":
        return global_attention(q_glob, k_glob, values, gates)
    # drop each q/k pair and branch output once nothing later reads it:
    # no backward closure reads a branch output, so its array is freed
    # there and then, under a tape too
    lv, lg = local_attention(q_loc, k_loc, values, gates, p.chunk_size)
    del q_loc, k_loc
    gv, gg = global_attention(q_glob, k_glob, values, gates)
    del q_glob, k_glob
    out_v = ad.add(lv, gv)
    del lv, gv
    return out_v, ad.add(lg, gg)
