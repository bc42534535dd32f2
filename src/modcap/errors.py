"""Exception types shared across the package.

Argument-level misuse (bad axis, empty vector, slope out of range) raises
plain ValueError; the classes below cover failures that callers are
expected to catch and map to distinct behaviour (exit codes, messages).
"""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class ConfigError(ValueError):
    """A model / run configuration is internally inconsistent."""


class CorpusSpecError(ValueError):
    """A corpus specification cannot be satisfied as written."""


class DataError(ValueError):
    """Stored corpus or checkpoint data is malformed or missing."""


class FormatError(DataError):
    """A serialized container fails structural validation."""


class TrainingError(RuntimeError):
    """Optimization produced a non-finite quantity and cannot continue."""


class OutputError(Exception):
    """An output path cannot be written."""
