"""Convolution module: norm -> expanding linear -> SiLU -> depthwise + skip.

The skip around the depthwise convolution is folded into its centre tap:
y0 + depthwise(y0, w) is computed as depthwise(y0, w + e_centre), one
convolution and no extra (frames, channels) sum. ``dw_w`` keeps its meaning
(the taps without the skip), so checkpoints are unchanged; outputs match
the unfolded sum within a relative 1e-13 (float64) or 1e-5 (float32) per
frame.

The stage runs as one tape primitive, ``ad.conv_stage``, with dropout
after it. Under a tape a module keeps the normalized input with its
1/sigma, the pre-activation and the bool dropout mask; backward rebuilds
the norm output, the logistic and the silu output from them, so losses and
gradients are bitwise those of the separate primitives. Without a tape
each intermediate is freed where the separate primitives freed it.

Used in three widths inside each block (feature-to-gate/value at 2N, the
shared attention representation at D, and the output projection back to N).
Ablation runs build the module without its depthwise stage
(``dw_kernel=None``): normalization and projection only, under the same
parameter names. ``linear_params`` declares the weight and bias of every
dense projection in the model, here and in the mask head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError


@dataclass
class ConvModuleParams:
    norm_gain: ad.Tensor  # (N_in,)
    norm_bias: ad.Tensor  # (N_in,)
    proj_weight: ad.Tensor  # (N_out, N_in)
    proj_bias: ad.Tensor  # (N_out,)
    dw_weight: ad.Tensor | None  # (N_out, K2); None: norm and projection only
    dropout_p: float = 0.0

    def __call__(self, x, rng: np.random.Generator | None = None) -> ad.Tensor:
        return conv_module_forward(x, self, rng)


def linear_params(
    store: ad.ParamStore, prefix: str, n_in: int, n_out: int,
    rng: np.random.Generator,
) -> tuple[ad.Tensor, ad.Tensor]:
    """``{prefix}_w`` (n_out, n_in) drawn from U(+-1/sqrt(n_in)), then a
    zero ``{prefix}_b`` (n_out,)."""
    bound = 1.0 / math.sqrt(n_in)
    return (store.param(f"{prefix}_w", (n_out, n_in), ad.uniform(bound, rng)),
            store.param(f"{prefix}_b", (n_out,), np.zeros))


def init_conv_module(
    store: ad.ParamStore, prefix: str, n_in: int, n_out: int,
    dw_kernel: int | None, dropout_p: float, rng: np.random.Generator,
) -> ConvModuleParams:
    """``dw_kernel=None`` builds the dense stand-in: no depthwise stage."""
    if dw_kernel is not None and dw_kernel % 2 == 0:
        raise ConfigError(f"depthwise kernel must be odd, got {dw_kernel}")
    norm_gain = store.param(f"{prefix}.norm_g", (n_in,), np.ones)
    norm_bias = store.param(f"{prefix}.norm_b", (n_in,), np.zeros)
    proj_w, proj_b = linear_params(store, f"{prefix}.proj", n_in, n_out, rng)
    dw_weight = None
    if dw_kernel is not None:
        dw_weight = store.param(f"{prefix}.dw_w", (n_out, dw_kernel),
                                ad.uniform(1.0 / math.sqrt(dw_kernel), rng))
    return ConvModuleParams(
        norm_gain=norm_gain,
        norm_bias=norm_bias,
        proj_weight=proj_w,
        proj_bias=proj_b,
        dw_weight=dw_weight,
        dropout_p=dropout_p,
    )


def conv_module_forward(
    x, p: ConvModuleParams, rng: np.random.Generator | None = None,
) -> ad.Tensor:
    """x (S, N_in) -> (S, N_out); the skip spans the depthwise convolution
    and is folded into its centre tap. Without a depthwise stage the module
    is normalization and projection only, with no activation or dropout.

    Dropout draws its masks from ``rng`` when one is given (training) and
    is the identity without one (inference).
    """
    if p.dw_weight is None:
        return ad.conv_stage(x, p.norm_gain, p.norm_bias, p.proj_weight,
                             p.proj_bias)
    taps = p.dw_weight.shape[1]
    centre = np.zeros(taps, dtype=p.dw_weight.dtype)
    centre[taps // 2] = 1.0
    y = ad.conv_stage(x, p.norm_gain, p.norm_bias, p.proj_weight,
                      p.proj_bias, ad.add(p.dw_weight, centre))
    return ad.dropout(y, p.dropout_p, rng)
