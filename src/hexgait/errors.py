"""The two errors a command reports: each has its own CLI exit code."""


class ConfigError(Exception):
    """Invalid or unknown configuration (CLI exit code 2)."""


class DataError(Exception):
    """Malformed or unusable input file (CLI exit code 3)."""
