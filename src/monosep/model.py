"""Full separation model: codec + masking net, parameter bookkeeping.

Every choice in ``ModelConfig`` is fixed by ``build_model``; the forward
path reads shapes and flags off the parameters, never off ``config``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .codec import CodecParams, apply_mask, decode, encode, init_codec
from .config import ModelConfig
from .errors import NumericalError
from .masking import MaskingNetParams, init_masking_net, masking_net_forward


@dataclass
class SeparationModel:
    config: ModelConfig
    store: ad.ParamStore
    codec: CodecParams
    net: MaskingNetParams


def build_model(cfg: ModelConfig, seed: int = 0,
                dtype=np.float32) -> SeparationModel:
    """Single precision unless asked otherwise; a model for
    ``ad.gradient_check`` must be built with ``dtype=np.float64``."""
    return init_model(ad.ParamStore(dtype=dtype), cfg, seed)


def init_model(store: ad.ParamStore, cfg: ModelConfig,
               seed: int = 0) -> SeparationModel:
    """Add every parameter of ``cfg``'s model to ``store``, initialized
    from ``seed``, and return the model built on them."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    codec = init_codec(store, "codec", cfg.n_feat, cfg.enc_kernel, rng)
    net = init_masking_net(store, "net", cfg, rng)
    return SeparationModel(config=cfg, store=store, codec=codec, net=net)


class _ShapeStore(ad.ParamStore):
    """A store that only records shapes: ``param`` registers a zero-stride
    placeholder of the declared shape and never calls ``init``."""

    def param(self, name: str, shape: tuple, init) -> ad.Tensor:
        return self._register(name, np.broadcast_to(self.dtype.type(0), shape))


def count_parameters(cfg: ModelConfig) -> int:
    """Total trainable scalars for a config, counted from the declared
    shapes: nothing is allocated or drawn."""
    return init_model(_ShapeStore(), cfg).store.total_scalars()


def encode_features(model: SeparationModel, mixture) -> ad.Tensor:
    """Mixture waveform (T,) -> non-negative feature map (S, N); a
    non-finite sample raises ``NumericalError``."""
    mixture = ad.as_tensor(mixture)
    if not np.isfinite(mixture.data).all():
        raise NumericalError("mixture has non-finite samples")
    if mixture.dtype != model.store.dtype and not mixture.requires_grad:
        # keep single-precision models single precision end to end
        mixture = ad.Tensor(mixture.data.astype(model.store.dtype))
    return encode(mixture, model.codec)


def separate(
    model: SeparationModel, mixture, rng: np.random.Generator | None = None,
) -> list[ad.Tensor]:
    """Mixture waveform (T,) -> C estimated source waveforms, each (T,).

    Passing ``rng`` is training mode: dropout draws its masks from it.
    Without it (inference) the output is a deterministic function of the
    parameters and the mixture.
    """
    n_samples = ad.as_tensor(mixture).shape[0]
    features = encode_features(model, mixture)
    masks = masking_net_forward(features, model.net, rng)  # (S, C, N)
    return [
        decode(apply_mask(features, masks, speaker), model.codec,
               trim_to=n_samples)
        for speaker in range(masks.shape[1])
    ]
