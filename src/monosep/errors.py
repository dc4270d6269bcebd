"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are inconsistent; message names the offending axes."""


class ConfigError(ValueError):
    """A configuration value is invalid (unknown kind, even kernel, ...)."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite values; message names the culprit."""


class InputTooShortError(ValueError):
    """An input waveform is shorter than the encoder kernel."""


class InvalidReferenceError(ValueError):
    """A reference signal is unusable (e.g. all zeros) for SI-SDR."""


class WavFormatError(ValueError):
    """A WAV file does not match the mono / 8 kHz / 16-bit PCM contract."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed or incompatible with the model config."""


class TapeError(RuntimeError):
    """A tape was used after backward consumed it."""
