"""Exception taxonomy shared across the engine."""


class FbseError(Exception):
    """Base class for all engine errors."""


class InvalidSampleRateError(FbseError):
    """Audio arrived at a sample rate the operation does not accept."""


class ShapeMismatchError(FbseError):
    """Array shapes are inconsistent with the operation's contract."""


class EmptyInputError(FbseError):
    """An operation that needs at least one sample/frame got none."""


class DomainError(FbseError):
    """Spectrum is in the wrong domain (linear vs. compressed)."""


class InvalidExponentError(FbseError):
    """Compression exponent outside (0, 1]."""


class StaleGraphError(FbseError):
    """backward() called on a graph whose forward caches were released."""


class OversizeBlockError(FbseError):
    """Streaming push block larger than one hop."""


class NonFiniteInputError(FbseError):
    """Input audio holds NaN or inf samples."""


class StreamClosedError(FbseError):
    """Push after flush on the same stream."""


class AudioFormatError(FbseError):
    """WAV file is not a mono little-endian RIFF file of PCM16, IEEE float32 or
    IEEE float64 samples (plain or as a ``WAVE_FORMAT_EXTENSIBLE`` subformat),
    or is malformed: a missing ``fmt `` or ``data`` chunk, a chunk that runs
    past the end of the file, or a ``block_align`` that does not match."""


class CheckpointError(FbseError):
    """Checkpoint file is corrupt or does not match the model."""


class ConfigError(FbseError):
    """Model config file is malformed or has an unsupported version."""
