"""Convolution module: norm -> expanding linear -> SiLU -> depthwise + skip.

The stage runs as one tape primitive, ``ad.conv_stage``, which folds the
skip into the depthwise centre tap, with dropout after it. Modules that
read the same input (a block's gate, value and shared attention modules)
run as one ``ad.conv_stage`` with one head each, through
``conv_modules_forward``: the input is normalized once, and under a tape
the stage keeps that one normalized input with its 1/sigma, each head's
pre-activation and each module's bool dropout mask. Backward rebuilds the
norm outputs, the logistic and the silu output from them, so losses and
gradients are bitwise those of the separate primitives. Without a tape each
intermediate is freed where the separate primitives freed it.

Used in three widths inside each block (feature-to-gate/value at 2N, the
shared attention representation at D, and the output projection back to N).
Ablation runs build the module without its depthwise stage
(``dw_kernel=None``): the dense stand-in, a ``conv_stage`` head without
taps (the norm then the projection, under the same parameter names), with
no activation or dropout. ``linear_params`` declares the weight and bias of
every dense projection in the model, here and in the mask head.
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
    """``{prefix}.norm_g``, ``{prefix}.norm_b``, the projection and, for an
    odd ``dw_kernel``, the depthwise taps ``{prefix}.dw_w``;
    ``dw_kernel=None`` builds the dense stand-in, without taps."""
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
    """x (S, N_in) -> (S, N_out): ``conv_modules_forward`` of one module."""
    return conv_modules_forward(x, (p,), rng)[0]


def conv_modules_forward(
    x, modules: tuple[ConvModuleParams, ...],
    rng: np.random.Generator | None = None,
) -> tuple[ad.Tensor, ...]:
    """Every module in ``modules`` on the one input x (S, N_in), as one
    ``ad.conv_stage`` that normalizes x once; one (S, N_out) output per
    module, in order. The skip spans the depthwise convolution, which
    ``ad.conv_stage`` folds into its centre tap. The dense stand-in (no
    depthwise taps) is the norm and the projection, with no activation or
    dropout.

    Dropout draws its masks from ``rng`` when one is given (training), one
    module after another, and is the identity without one (inference).
    """
    outs = ad.conv_stage(x, *(t for p in modules for t in (
        p.norm_gain, p.norm_bias, p.proj_weight, p.proj_bias, p.dw_weight)))
    if len(modules) == 1:
        outs = (outs,)
    return tuple(y if p.dw_weight is None else ad.dropout(y, p.dropout_p, rng)
                 for y, p in zip(outs, modules))
