"""Error types shared across the toolkit."""


class UapAudioError(ValueError):
    """Base class for all toolkit errors."""


class InvalidInputError(UapAudioError):
    """An argument violates an operation's preconditions."""


class FormatError(UapAudioError):
    """A file is malformed or uses an unsupported encoding."""


class UndefinedMetricError(UapAudioError):
    """A metric has no defined value for the given inputs."""


class DegenerateVarianceError(UapAudioError):
    """A statistic's variance estimate collapsed to zero."""
