"""Exception types shared across the package. Each derives from
``MonosepError``, so one ``except`` catches every package error, and from
the builtin type its callers already expect."""


class MonosepError(Exception):
    """Base of every error the package raises on purpose."""


class DimensionError(MonosepError, ValueError):
    """Operand shapes are inconsistent; message names the offending axes."""


class ConfigError(MonosepError, ValueError):
    """A configuration value is invalid (unknown kind, even kernel, ...)."""


class NumericalError(MonosepError, ArithmeticError):
    """A computation produced non-finite values; message names the culprit."""


class InputTooShortError(MonosepError, ValueError):
    """An input waveform is shorter than the encoder kernel."""


class InvalidReferenceError(MonosepError, ValueError):
    """A reference signal is unusable (e.g. all zeros) for SI-SDR."""


class WavFormatError(MonosepError, ValueError):
    """A WAV file does not match the mono / 8 kHz / 16-bit PCM contract."""


class CheckpointError(MonosepError, ValueError):
    """A checkpoint file is malformed or incompatible with the model config."""


class TapeError(MonosepError, RuntimeError):
    """A tape was used after backward consumed it."""
