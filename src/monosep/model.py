"""Full separation model: codec + masking net, parameter bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .codec import CodecParams, apply_mask, decode, encode, init_codec
from .config import ModelConfig
from .masking import MaskingNetParams, init_masking_net, masking_net_forward


@dataclass
class SeparationModel:
    config: ModelConfig
    store: ad.ParamStore
    codec: CodecParams
    net: MaskingNetParams


def build_model(cfg: ModelConfig, seed: int = 0,
                dtype=np.float64) -> SeparationModel:
    cfg.validate()
    store = ad.ParamStore(dtype=dtype)
    rng = np.random.default_rng(seed)
    codec = init_codec(store, "codec", cfg.n_feat, cfg.enc_kernel, rng)
    net = init_masking_net(store, "net", cfg, rng)
    return SeparationModel(config=cfg, store=store, codec=codec, net=net)


def count_parameters(cfg: ModelConfig, seed: int = 0) -> int:
    """Total trainable scalars for a config; float32 keeps big presets cheap."""
    return build_model(cfg, seed=seed, dtype=np.float32).store.total_scalars()


def encode_features(model: SeparationModel, mixture) -> ad.Tensor:
    """Mixture waveform (T,) -> non-negative feature map (S, N)."""
    mixture = ad.as_tensor(mixture)
    if mixture.dtype != model.store.dtype and not mixture.requires_grad:
        # keep single-precision models single precision end to end
        mixture = ad.constant(mixture.data.astype(model.store.dtype))
    return encode(mixture, model.codec, model.config.enc_kernel)


def compute_masks(
    model: SeparationModel, features, train: bool = False,
    rng: np.random.Generator | None = None,
) -> ad.Tensor:
    """Feature map (S, N) -> per-speaker masks (S, C, N)."""
    return masking_net_forward(features, model.net, train, rng)


def separate(
    model: SeparationModel, mixture, train: bool = False,
    rng: np.random.Generator | None = None,
) -> list[ad.Tensor]:
    """Mixture waveform (T,) -> C estimated source waveforms, each (T,)."""
    cfg = model.config
    n_samples = ad.as_tensor(mixture).shape[0]
    features = encode_features(model, mixture)
    masks = compute_masks(model, features, train, rng)
    estimates = []
    for speaker in range(cfg.n_speakers):
        gated = apply_mask(features, masks, speaker)
        estimates.append(
            decode(gated, model.codec, cfg.enc_kernel, trim_to=n_samples)
        )
    return estimates
