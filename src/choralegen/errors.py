"""Exception hierarchy shared by all modules."""


class Error(Exception):
    """Base class for all choralegen errors."""


class MalformedMidi(Error):
    """The byte stream is not a well-formed Standard MIDI File."""


class UnsupportedFormat(Error):
    """Valid SMF, but a format we do not handle (format 2, SMPTE time)."""


class EmptyAfterQuantization(Error):
    """Quantization produced a roll with no frames, or a roll to render has no note."""


class TooShort(Error):
    """A piano roll is too short to form input/target pairs."""


class TooLong(Error):
    """Quantized note events would span more than `pianoroll.MAX_STEPS` steps,
    a rendered roll would reach past MIDI tick 2^63, or a written MIDI
    file would need a delta time of 2^28 ticks or more, past SMF's 4-byte
    limit."""


class EmptyCorpus(Error):
    """No usable training data was found."""


class NonFiniteActivation(Error):
    """A NaN or infinity appeared during a forward pass."""

    def __init__(self, timestep):
        super().__init__(f"non-finite activation at timestep {timestep}")
        self.timestep = timestep


class NonFiniteGradient(Error):
    """A NaN or infinity appeared during the backward pass."""


class NonFiniteLoss(Error):
    """Training loss became NaN or infinite."""

    def __init__(self, epoch):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


class LengthMismatch(Error):
    """Sequences that must have equal length do not."""


class ShapeMismatch(Error):
    """Parameter/gradient containers are not shape-congruent."""


class VersionMismatch(Error):
    """Model file has a wrong magic or an unsupported version, or the
    command needs other layer sizes than the file holds."""


class ChecksumMismatch(Error):
    """Model file is truncated or its checksum does not validate."""


class ConfigError(Error):
    """A run-config file contains an unknown key or a bad value."""
