"""Convolution module: norm -> expanding linear -> SiLU -> depthwise + skip.

The skip around the depthwise convolution is folded into its centre tap:
y0 + depthwise(y0, w) is computed as depthwise(y0, w + e_centre), one
convolution and no extra (frames, channels) sum. ``dw_w`` keeps its meaning
(the taps without the skip), so checkpoints are unchanged; outputs match
the unfolded sum within a relative 1e-13 (float64) or 1e-5 (float32) per
frame.

Used in three widths inside each block (feature-to-gate/value at 2N, the
shared attention representation at D, and the output projection back to N).
A dense variant (norm + linear only) stands in for ablation runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

if TYPE_CHECKING:  # config imports attention, which imports this module
    from .config import ModelConfig


@dataclass
class ConvModuleParams:
    norm_gain: ad.Tensor  # (N_in,)
    norm_bias: ad.Tensor  # (N_in,)
    proj_weight: ad.Tensor  # (N_out, N_in)
    proj_bias: ad.Tensor  # (N_out,)
    dw_weight: ad.Tensor  # (N_out, K2)
    dropout_p: float = 0.0

    def __call__(self, x, rng: np.random.Generator | None = None) -> ad.Tensor:
        return conv_module_forward(x, self, rng)


@dataclass
class DenseParams:
    norm_gain: ad.Tensor
    norm_bias: ad.Tensor
    proj_weight: ad.Tensor
    proj_bias: ad.Tensor

    def __call__(self, x, rng: np.random.Generator | None = None) -> ad.Tensor:
        return dense_forward(x, self)


def _init_norm_and_proj(store, prefix, n_in, n_out, rng):
    bound = 1.0 / math.sqrt(n_in)
    return (
        store.add(f"{prefix}.norm_g", np.ones(n_in)),
        store.add(f"{prefix}.norm_b", np.zeros(n_in)),
        store.uniform(f"{prefix}.proj_w", (n_out, n_in), bound, rng),
        store.add(f"{prefix}.proj_b", np.zeros(n_out)),
    )


def init_conv_module(
    store: ad.ParamStore, prefix: str, n_in: int, n_out: int, dw_kernel: int,
    dropout_p: float, rng: np.random.Generator,
) -> ConvModuleParams:
    if dw_kernel % 2 == 0:
        raise ConfigError(f"depthwise kernel must be odd, got {dw_kernel}")
    gain, bias, proj_w, proj_b = _init_norm_and_proj(store, prefix, n_in, n_out, rng)
    k_bound = 1.0 / math.sqrt(dw_kernel)
    return ConvModuleParams(
        norm_gain=gain,
        norm_bias=bias,
        proj_weight=proj_w,
        proj_bias=proj_b,
        dw_weight=store.uniform(f"{prefix}.dw_w", (n_out, dw_kernel),
                                k_bound, rng),
        dropout_p=dropout_p,
    )


def init_dense(
    store: ad.ParamStore, prefix: str, n_in: int, n_out: int,
    rng: np.random.Generator,
) -> DenseParams:
    gain, bias, proj_w, proj_b = _init_norm_and_proj(store, prefix, n_in, n_out, rng)
    return DenseParams(
        norm_gain=gain, norm_bias=bias, proj_weight=proj_w, proj_bias=proj_b
    )


def init_projection(
    store: ad.ParamStore, prefix: str, n_in: int, n_out: int,
    cfg: ModelConfig, dense: bool, rng: np.random.Generator,
) -> ConvModuleParams | DenseParams:
    """A convolution module, or its dense stand-in when ``dense`` is set."""
    if dense:
        return init_dense(store, prefix, n_in, n_out, rng)
    return init_conv_module(store, prefix, n_in, n_out, cfg.dw_kernel,
                            cfg.dropout_p, rng)


def conv_module_forward(
    x, p: ConvModuleParams, rng: np.random.Generator | None = None,
) -> ad.Tensor:
    """x (S, N_in) -> (S, N_out); the skip spans the depthwise convolution
    and is folded into its centre tap.

    Dropout draws its masks from ``rng`` when one is given (training) and
    is the identity without one (inference).
    """
    y0 = ad.silu(ad.linear(ad.layer_norm(x, p.norm_gain, p.norm_bias),
                           p.proj_weight, p.proj_bias))
    taps = p.dw_weight.shape[1]
    centre = np.zeros(taps, dtype=p.dw_weight.dtype)
    centre[taps // 2] = 1.0
    y = ad.depthwise_conv1d(y0, ad.add(p.dw_weight, centre))
    return ad.dropout(y, p.dropout_p, rng)


def dense_forward(x, p: DenseParams) -> ad.Tensor:
    """Ablation stand-in: normalization and projection only."""
    return ad.linear(ad.layer_norm(x, p.norm_gain, p.norm_bias),
                     p.proj_weight, p.proj_bias)
