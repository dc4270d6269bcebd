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


class Adam:
    """Standard Adam with bias correction; operates on a ParamStore."""

    def __init__(self, store: ad.ParamStore, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {n: np.zeros_like(t.data) for n, t in store.trainable()}
        self.v = {n: np.zeros_like(t.data) for n, t in store.trainable()}

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, t in self.store.trainable():
            g = t.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            t.data = t.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_gradient_norm(store: ad.ParamStore, max_norm: float) -> float:
    """Scale all trainable gradients so their global norm is at most
    ``max_norm``; returns the pre-clip norm. A non-finite norm raises
    ``NumericalError`` before any gradient is touched."""
    norm = store.grad_norm()
    if not math.isfinite(norm):
        bad = next((n for n, t in store.trainable()
                    if t.grad is not None and not np.isfinite(t.grad).all()),
                   None)
        where = f"parameter {bad!r}" if bad else "the global norm (overflow)"
        raise NumericalError(f"non-finite gradient in {where}: norm={norm}")
    if norm > max_norm:
        scale = max_norm / norm
        for _, t in store.trainable():
            t.grad = t.grad * scale
    return norm


class PlateauSchedule:
    """Hold the rate for ``hold_epochs``, then multiply by ``decay`` whenever
    validation loss has not improved for more than ``patience`` epochs."""

    def __init__(self, lr: float, hold_epochs: int, decay: float,
                 patience: int):
        self.lr = lr
        self.hold_epochs = hold_epochs
        self.decay = decay
        self.patience = patience
        self.best = math.inf
        self.bad_epochs = 0

    def update(self, epoch: int, val_loss: float) -> float:
        if val_loss < self.best - 1e-12:
            self.best = val_loss
            self.bad_epochs = 0
        elif epoch >= self.hold_epochs:
            self.bad_epochs += 1
            if self.bad_epochs > self.patience:
                self.lr *= self.decay
                self.bad_epochs = 0
        return self.lr


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
    total = 0.0
    for mixture, sources in items:
        loss, _ = pit_loss(separate(model, mixture), sources)
        total += loss.item()
    return total / len(items)


def dataset_si_sdri(model, items) -> float:
    """Mean SI-SDR improvement over ``items``: separated quality under the
    best speaker permutation, minus the unprocessed-mixture baseline."""
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
    """Minimize PIT SI-SDR loss over ``data``; returns the best-validation
    checkpoint (parameters, optimizer moments, RNG state, epoch)."""
    cfg.validate()
    if not data:
        raise ConfigError("training data is empty")
    train_items, val_items = split_dataset(data)
    opt = Adam(model.store, cfg.lr)
    schedule = PlateauSchedule(cfg.lr, cfg.hold_epochs, cfg.lr_decay,
                               cfg.patience)
    rng = np.random.default_rng(cfg.seed)
    store = model.store

    def snapshot(epoch: int, best_val: float = float("inf")) -> Checkpoint:
        return Checkpoint(
            config=model.config,
            params={n: t.data.copy() for n, t in store.items()},
            adam_m={n: a.copy() for n, a in opt.m.items()},
            adam_v={n: a.copy() for n, a in opt.v.items()},
            adam_step=opt.step_count,
            rng_state=rng.bit_generator.state,
            epoch=epoch,
            best_val=best_val,
        )

    best = snapshot(epoch=0)

    batches = [
        train_items[i:i + cfg.batch_size]
        for i in range(0, len(train_items), cfg.batch_size)
    ]
    steps_done = 0
    for epoch in range(cfg.max_epochs):
        epoch_total = 0.0
        epoch_batches = 0
        for b_index, batch in enumerate(batches):
            store.zero_grad()
            with ad.Tape() as tape:
                losses = []
                for mix_b, src_b in batch:
                    ests = separate(model, mix_b, train=True, rng=rng)
                    loss_b, _ = pit_loss(ests, src_b)
                    losses.append(loss_b)
                loss = losses[0]
                for extra in losses[1:]:
                    loss = ad.add(loss, extra)
                if len(losses) > 1:
                    loss = ad.div(loss, float(len(losses)))
                value = loss.item()
                if not math.isfinite(value):
                    raise NumericalError(
                        f"non-finite loss {value} at epoch {epoch} batch "
                        f"{b_index}; grad_norm={store.grad_norm():.4g}"
                    )
                tape.backward(loss)
            clip_gradient_norm(store, cfg.clip_norm)
            opt.lr = schedule.lr
            opt.step()
            epoch_total += value
            epoch_batches += 1
            steps_done += 1
            if cfg.max_steps and steps_done >= cfg.max_steps:
                break

        train_loss = epoch_total / max(1, epoch_batches)
        val_loss = dataset_loss(model, val_items)
        if not math.isfinite(val_loss):
            raise NumericalError(
                f"non-finite validation loss {val_loss} at epoch {epoch}"
            )
        lr_now = schedule.lr
        schedule.update(epoch, val_loss)
        if log is not None:
            log(f"epoch={epoch} lr={lr_now:.6g} train_loss={train_loss:.4f} "
                f"val_loss={val_loss:.4f}")
        if val_loss < best.best_val:
            best = snapshot(epoch, val_loss)
        if cfg.max_steps and steps_done >= cfg.max_steps:
            break
    return best
