"""Waveform codec: convolutional encoder, mask application, decoder.

The encoder turns a length-T waveform into a non-negative feature sequence
of shape (S, N) with S = (T - K)/(K/2) + 1 frames (kernel K, stride K/2).
The decoder inverts the framing with a transposed convolution using the
same kernel and stride; the caller trims the result back to T. K is fixed
when ``init_codec`` creates the weights: ``encode`` and ``decode`` read it
from the weight shapes, so no call can frame with another kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InputTooShortError


@dataclass
class CodecParams:
    enc_weight: ad.Tensor  # (N, 1, K)
    enc_bias: ad.Tensor  # (N,)
    dec_weight: ad.Tensor  # (N, 1, K)


def init_codec(
    store: ad.ParamStore, prefix: str, n_feat: int, kernel: int,
    rng: np.random.Generator,
) -> CodecParams:
    if kernel < 2 or kernel % 2 != 0:
        raise ConfigError(f"codec kernel must be even and >= 2, got {kernel}")
    init = ad.uniform(1.0 / math.sqrt(kernel), rng)
    return CodecParams(
        enc_weight=store.param(f"{prefix}.enc_w", (n_feat, 1, kernel), init),
        enc_bias=store.param(f"{prefix}.enc_b", (n_feat,), np.zeros),
        dec_weight=store.param(f"{prefix}.dec_w", (n_feat, 1, kernel), init),
    )


def pad_amount(n_samples: int, kernel: int) -> int:
    """Zeros to append so the last stride window lands on the final sample."""
    stride = kernel // 2
    return (stride - (n_samples - kernel) % stride) % stride


def encode(wave, params: CodecParams) -> ad.Tensor:
    """Waveform (T,) -> non-negative features (S, N), S = 2(T'-K)/K + 1 for
    T right-padded to T' by ``pad_amount``."""
    wave = ad.as_tensor(wave)
    if wave.ndim != 1:
        raise ConfigError(f"encode expects a 1-D waveform, got shape {wave.shape}")
    kernel = params.enc_weight.shape[2]
    n_samples = wave.shape[0]
    if n_samples < kernel:
        raise InputTooShortError(
            f"waveform has {n_samples} samples, encoder kernel needs {kernel}"
        )
    x = ad.reshape(wave, (n_samples, 1))
    x = ad.pad_axis_end(x, 0, pad_amount(n_samples, kernel))
    return ad.relu(ad.conv1d(x, params.enc_weight, params.enc_bias, kernel // 2))


def apply_mask(features: ad.Tensor, masks: ad.Tensor, speaker: int) -> ad.Tensor:
    """Select mask ``speaker`` from (S, C, N) and gate the features with it."""
    n_frames, n_speakers, n_feat = masks.shape
    if not 0 <= speaker < n_speakers:
        raise IndexError(f"speaker {speaker} out of range for {n_speakers} masks")
    if (n_frames, n_feat) != features.shape:
        raise ConfigError(
            f"mask shape {masks.shape} does not match features {features.shape}"
        )
    one = ad.narrow(masks, 1, speaker, 1)
    return ad.mul(ad.reshape(one, features.shape), features)


def decode(features, params: CodecParams, trim_to: int | None = None) -> ad.Tensor:
    """Features (S, N) -> waveform ((S-1)*K/2 + K,), optionally trimmed."""
    stride = params.dec_weight.shape[2] // 2
    wave = ad.transposed_conv1d(features, params.dec_weight, stride)
    wave = ad.reshape(wave, (wave.shape[0],))
    if trim_to is not None:
        if trim_to > wave.shape[0]:
            raise ConfigError(
                f"cannot trim to {trim_to}: decoded length is {wave.shape[0]}"
            )
        wave = ad.narrow(wave, 0, 0, trim_to)
    return wave
