"""Synthetic multi-tone mixtures for desk-scale training and tests.

Each speaker draws a fundamental from a disjoint frequency band, so sources
are separable in principle; a slow random amplitude envelope and a -30 dB
noise floor keep the signals from being trivially periodic. The mixture is
the exact sample-wise sum of the sources.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import ConfigError

# disjoint fundamental bands (Hz), one per speaker slot
SPEAKER_BANDS = ((150.0, 300.0), (400.0, 700.0), (900.0, 1400.0))

_NOISE_FLOOR_DB = -30.0
_N_HARMONICS = 3


def _check_speakers(n_speakers: int) -> None:
    if not 2 <= n_speakers <= len(SPEAKER_BANDS):
        raise ConfigError(
            f"n_speakers must be in [2, {len(SPEAKER_BANDS)}], got {n_speakers}"
        )


def draw_fundamentals(rng: np.random.Generator, n_speakers: int) -> list[float]:
    _check_speakers(n_speakers)
    return [float(rng.uniform(lo, hi)) for lo, hi in SPEAKER_BANDS[:n_speakers]]


def _source(rng, fundamental, n_samples, sample_rate):
    t = np.arange(n_samples) / sample_rate
    sig = np.zeros(n_samples)
    for h in range(1, _N_HARMONICS + 1):
        amp = rng.uniform(0.4, 1.0) / h
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sig += amp * np.sin(2.0 * np.pi * fundamental * h * t + phase)
    env_rate = rng.uniform(0.5, 2.0)
    env_phase = rng.uniform(0.0, 2.0 * np.pi)
    sig *= 0.55 + 0.45 * np.sin(2.0 * np.pi * env_rate * t + env_phase)
    sig *= 0.2 / max(np.abs(sig).max(), 1e-9)
    rms = np.sqrt(np.mean(sig * sig))
    noise = rng.normal(size=n_samples) * (rms * 10.0 ** (_NOISE_FLOOR_DB / 20.0))
    return sig + noise


def synth_dataset(
    seed: int, count: int, n_speakers: int, n_samples: int,
    sample_rate: int = 8000,
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Returns ``count`` items of (mixture, [source_0, ..., source_{C-1}]).

    ``n_speakers`` outside the speaker bands or ``n_samples < 1`` raises
    ``ConfigError``, even when ``count`` is 0.
    """
    _check_speakers(n_speakers)
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(count):
        fundamentals = draw_fundamentals(rng, n_speakers)
        sources = [
            _source(rng, f0, n_samples, sample_rate) for f0 in fundamentals
        ]
        mixture = reduce(np.add, sources)
        items.append((mixture, sources))
    return items
