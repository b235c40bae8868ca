"""Shared exception types."""


class HexgaitError(Exception):
    """Base class for package errors."""


class ConfigError(HexgaitError):
    """Invalid or unknown configuration (CLI exit code 2)."""


class DataError(HexgaitError):
    """Malformed input data (CLI exit code 3)."""


class DimensionError(HexgaitError, ValueError):
    """Frame/weight dimension mismatch or non-divisible pooling."""


class EmptyFrameError(HexgaitError, ValueError):
    """Operation requires at least one set bit."""


class EmptyStreamError(DataError, ValueError):
    """A stream holds no frames where at least one is needed."""


class EventBoundsError(DataError):
    """An event fell outside the sensor bounds."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class EventFileError(DataError):
    """Unparsable event file line."""

    def __init__(self, line_number: int, message: str):
        super().__init__(message)
        self.line_number = line_number
