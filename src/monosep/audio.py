"""WAV file reading and writing: mono 16-bit PCM only."""

from __future__ import annotations

import wave

import numpy as np

from .errors import NumericalError, WavFormatError

_SCALE = 32768.0


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a mono 16-bit PCM WAV; returns (samples in [-1, 1), sample rate).
    Any other file, or one cut short, raises ``WavFormatError``."""
    try:
        reader = wave.open(str(path), "rb")
    except (wave.Error, EOFError, RuntimeError) as exc:
        # wave raises a bare EOFError or RuntimeError for a cut-short chunk
        why = str(exc) or "a header or chunk is cut short"
        raise WavFormatError(f"{path}: not a readable WAV file ({why})") from exc
    with reader:
        if reader.getnchannels() != 1:
            raise WavFormatError(
                f"{path}: expected mono, got {reader.getnchannels()} channels"
            )
        if reader.getsampwidth() != 2:
            raise WavFormatError(
                f"{path}: expected 16-bit samples, got {8 * reader.getsampwidth()}-bit"
            )
        rate = reader.getframerate()
        declared = reader.getnframes()
        raw = reader.readframes(declared)
    if len(raw) != 2 * declared:
        raise WavFormatError(f"{path}: data chunk holds {len(raw)} bytes, "
                             f"its header declares {2 * declared}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _SCALE
    return samples, rate


def write_wav(path, samples, rate: int) -> None:
    """Write float samples as mono 16-bit PCM, clipping to the valid range;
    a non-finite sample raises ``NumericalError`` before the file is opened."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise WavFormatError(f"expected a 1-D signal, got shape {samples.shape}")
    if not np.isfinite(samples).all():
        raise NumericalError(f"{path}: signal has non-finite samples")
    clipped = np.clip(samples, -1.0, (_SCALE - 1.0) / _SCALE)
    pcm = np.round(clipped * _SCALE).astype("<i2")
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(rate)
        writer.writeframes(pcm.tobytes())
