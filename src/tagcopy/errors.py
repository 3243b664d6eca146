"""Exception types shared across the toolkit.

Plain file-system problems (missing files, permissions) are left to the
built-in OSError family.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class LineCountMismatch(ToolkitError):
    """Parallel files disagree on the number of lines."""


class InsufficientData(ToolkitError):
    """A corpus is too small for the requested holdout sizes."""


class EmptyCorpus(ToolkitError):
    """An operation that needs sentence pairs received none."""


class InvalidParams(ToolkitError):
    """A parameter is outside its documented range."""


class EmptyPair(ToolkitError):
    """A sentence pair with an empty side reached an aligner operation."""


class LengthMismatch(ToolkitError):
    """Per-sentence inputs are not parallel, or indices are out of bounds."""


class ZeroProbability(ToolkitError):
    """A sentence has probability zero under the alignment model."""


class HttpError(ToolkitError):
    """A remote service kept failing after bounded retries."""


class MalformedResponse(ToolkitError):
    """A remote service answered with something unparseable."""


class MalformedFile(ToolkitError):
    """A file on disk does not follow its format; the message names path:line."""


class MissingComponent(ToolkitError):
    """A template needs an entity component the bundle does not have."""


class CountMismatch(ToolkitError):
    """Evaluation inputs disagree on the number of units."""


class EmptyInput(ToolkitError):
    """A statistic was requested over zero observations."""


class ConfigError(ToolkitError):
    """The pipeline configuration is missing or misusing a field."""
