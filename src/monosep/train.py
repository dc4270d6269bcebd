"""Training loop: Adam, global gradient-norm clipping, hold-then-plateau
learning-rate schedule, per-epoch logging, best-validation checkpointing."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .checkpoint import Checkpoint
from .config import TrainConfig
from .errors import ConfigError, NumericalError
from .losses import pit_loss, si_sdri
from .model import SeparationModel, separate

_VAL_FRACTION = 0.125  # last eighth of the dataset
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's published defaults


class Adam:
    """Standard Adam with bias correction and the published betas and eps;
    operates on a ParamStore. Only ``lr`` varies: the training loop sets it
    from the schedule before every step. A parameter whose ``grad`` is
    ``None`` (no backward pass reached it since ``zero_grad``) is skipped,
    its moments untouched, as ``torch.optim`` does."""

    def __init__(self, store: ad.ParamStore, lr: float):
        self.store = store
        self.lr = lr
        self.step_count = 0
        self.m = {n: np.zeros_like(t.data) for n, t in store.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in store.items()}

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - _BETA1 ** self.step_count
        bc2 = 1.0 - _BETA2 ** self.step_count
        for name, t in self.store.items():
            g = t.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            t.data = t.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)


def clip_gradient_norm(store: ad.ParamStore, max_norm: float) -> float:
    """Scale all trainable gradients so their global norm is at most
    ``max_norm``; returns the pre-clip norm. A parameter whose ``grad`` is
    ``None`` counts for nothing and stays ``None``. A non-finite norm raises
    ``NumericalError`` before any gradient is touched."""
    norm = store.grad_norm()
    if not math.isfinite(norm):
        bad = next((n for n, t in store.items()
                    if t.grad is not None and not np.isfinite(t.grad).all()),
                   None)
        where = f"parameter {bad!r}" if bad else "the global norm (overflow)"
        raise NumericalError(f"non-finite gradient in {where}: norm={norm}")
    if norm > max_norm:
        scale = max_norm / norm
        for _, t in store.items():
            if t.grad is not None:
                t.grad = t.grad * scale
    return norm


class PlateauSchedule:
    """Hold the rate for ``hold_epochs``, then multiply by ``decay`` whenever
    validation loss has not fallen below ``best - 1e-12`` for more than
    ``patience`` epochs; ``update`` returns whether the epoch improved."""

    def __init__(self, lr: float, hold_epochs: int, decay: float,
                 patience: int):
        self.lr = lr
        self.hold_epochs = hold_epochs
        self.decay = decay
        self.patience = patience
        self.best = math.inf
        self.bad_epochs = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        if val_loss < self.best - 1e-12:
            self.best = val_loss
            self.bad_epochs = 0
            return True
        if epoch >= self.hold_epochs:
            self.bad_epochs += 1
            if self.bad_epochs > self.patience:
                self.lr *= self.decay
                self.bad_epochs = 0
        return False


def split_dataset(data):
    """Train/validation split: the last eighth (at least one item) validates.

    A single-item dataset validates on its one training item.
    """
    if len(data) < 2:
        return list(data), list(data)
    n_val = max(1, round(len(data) * _VAL_FRACTION))
    return list(data[:-n_val]), list(data[-n_val:])


def dataset_loss(model, items) -> float:
    """Mean PIT loss over ``items`` in evaluation mode (no dropout)."""
    if not items:
        raise ConfigError("evaluation data is empty")
    total = 0.0
    for mixture, sources in items:
        loss, _ = pit_loss(separate(model, mixture), sources)
        total += loss.item()
    return total / len(items)


def dataset_si_sdri(model, items) -> float:
    """Mean SI-SDR improvement over ``items``: separated quality under the
    best speaker permutation, minus the unprocessed-mixture baseline."""
    if not items:
        raise ConfigError("evaluation data is empty")
    total = 0.0
    pairs = 0
    for mixture, sources in items:
        ests = separate(model, mixture)
        _, perm = pit_loss(ests, sources)
        for ref_index, est_index in enumerate(perm):
            gain = si_sdri(ests[est_index], mixture, sources[ref_index])
            total += gain.item()
            pairs += 1
    return total / pairs


def train(
    model: SeparationModel, cfg: TrainConfig, data, log=None,
) -> Checkpoint:
    """Minimize PIT SI-SDR loss over ``data``, one optimizer step per
    training item; returns the checkpoint (parameters, optimizer moments,
    RNG state, epoch) of the last epoch the schedule counts as improved."""
    cfg.validate()
    if not data:
        raise ConfigError("training data is empty")
    train_items, val_items = split_dataset(data)
    opt = Adam(model.store, cfg.lr)
    schedule = PlateauSchedule(cfg.lr, cfg.hold_epochs, cfg.lr_decay,
                               cfg.patience)
    rng = np.random.default_rng(cfg.seed)
    store = model.store
    best = None
    for epoch in range(cfg.max_epochs):
        epoch_total = 0.0
        for step, (mixture, sources) in enumerate(train_items):
            store.zero_grad()
            with ad.Tape() as tape:
                # ``ests`` holds the estimates until the next step rebinds
                # it: freed before backward, they let glibc trim the heap
                # and fault its pages back in on the next step
                ests = separate(model, mixture, rng=rng)
                loss, _ = pit_loss(ests, sources)
                value = loss.item()
                if not math.isfinite(value):
                    raise NumericalError(f"non-finite loss {value} at "
                                         f"epoch {epoch} batch {step}")
                tape.backward(loss)
            clip_gradient_norm(store, cfg.clip_norm)
            opt.lr = schedule.lr
            opt.step()
            epoch_total += value
            if cfg.max_steps and opt.step_count >= cfg.max_steps:
                break

        train_loss = epoch_total / (step + 1)
        val_loss = dataset_loss(model, val_items)
        if not math.isfinite(val_loss):
            raise NumericalError(
                f"non-finite validation loss {val_loss} at epoch {epoch}"
            )
        lr_now = schedule.lr
        improved = schedule.update(epoch, val_loss)
        if log is not None:
            log(f"epoch={epoch} lr={lr_now:.6g} train_loss={train_loss:.4f} "
                f"val_loss={val_loss:.4f}")
        if improved:
            best = Checkpoint(
                config=model.config,
                params={n: t.data.copy() for n, t in store.items()},
                adam_m={n: a.copy() for n, a in opt.m.items()},
                adam_v={n: a.copy() for n, a in opt.v.items()},
                adam_step=opt.step_count,
                rng_state=rng.bit_generator.state,
                epoch=epoch,
                best_val=val_loss,
            )
        if cfg.max_steps and opt.step_count >= cfg.max_steps:
            break
    return best
